"""Mutation checks: each test monkeypatches one ``src/`` function with a
wrong version and asserts that a public call refuses the wrong answer.

A mutant that passes through the public API unnoticed would be a wrong
answer the tests cannot see, so each mutant here is caught by one targeted
call, not by rerunning the suite.  The a-action certificate is covered so
far: a wrong coefficient, a wrong target and a missing cofactor.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction

import pytest

from brieskorn.cli import EXIT_INVALID, main
from brieskorn.curve import FactoredCurve, _action_target, a_action_coefficient, invariants
from brieskorn.errors import InputError
from brieskorn.poly import Poly, parse_polynomial
from brieskorn.suspension import milnor_isolated

XY = ("x", "y")


def p(text):
    return parse_polynomial(text, XY)


def golden_sextic() -> FactoredCurve:
    return FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))


def shifted_on(target: Poly):
    """``a_action_coefficient`` off by 1/7 on the one representative ``target``."""

    def wrong(ws, rep):
        return a_action_coefficient(ws, rep) + (Fraction(1, 7) if rep == target else 0)

    return wrong


def failed_on(rep: Poly) -> str:
    return rf"^a-action verification failed on monomial {re.escape(str(rep))}$"


class TestAActionMutants:
    @pytest.mark.parametrize("rep", ["x^2", "x^3*y", "1", "x*y"])
    def test_shifted_curve_coefficient_names_its_monomial(self, monkeypatch, rep):
        assert p(rep) in invariants(golden_sextic(), weights=(1, 1)).basis
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p(rep)))
        with pytest.raises(InputError, match=failed_on(p(rep))):
            invariants(golden_sextic(), weights=(1, 1))

    @pytest.mark.parametrize("rep", ["1", "x*y^2"])
    def test_shifted_germ_coefficient_names_its_monomial(self, monkeypatch, rep):
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p(rep)))
        with pytest.raises(InputError, match=failed_on(p(rep))):
            milnor_isolated(p("x^3+y^4"))

    def test_shifted_coefficient_is_invalid_input_at_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p("y")))
        argv = ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", "--vars", "x,y"]
        assert main(argv + ["--weights", "1,1"], out=io.StringIO()) == EXIT_INVALID
        assert "a-action verification failed on monomial y" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run",
        [
            lambda: invariants(golden_sextic(), weights=(1, 1)),
            lambda: milnor_isolated(p("x^3+y^4")),
            lambda: milnor_isolated(parse_polynomial("z^3", ("z",))),
        ],
        ids=["curve", "germ", "one-variable germ"],
    )
    def test_flipped_f_x0_term_of_the_target(self, monkeypatch, run):
        def flipped(f_terms, fx0_terms, m, coefficient):
            return _action_target(f_terms, [(e, -c) for e, c in fx0_terms], m, coefficient)

        monkeypatch.setattr("brieskorn.curve._action_target", flipped)
        with pytest.raises(InputError, match="a-action verification failed"):
            run()

    @pytest.mark.parametrize(
        "run",
        [
            lambda: invariants(golden_sextic(), weights=(1, 1)),
            lambda: milnor_isolated(p("x^3+y^4")),
        ],
        ids=["curve", "germ"],
    )
    def test_missing_cofactor_is_an_invariant_violation(self, monkeypatch, run):
        monkeypatch.setattr(Poly, "divide_exact", lambda self, divisor: None)
        with pytest.raises(RuntimeError, match="internal invariant violation"):
            run()
