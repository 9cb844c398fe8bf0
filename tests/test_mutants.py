"""Mutation checks: each test monkeypatches one ``src/`` function with a
wrong version and asserts that a public call refuses the wrong answer.

A mutant that passes through the public API unnoticed would be a wrong
answer the tests cannot see, so each mutant here is caught by one targeted
call, not by rerunning the suite: a public call raises, or its answer
differs from the test-side oracle that the suite compares it with.
Covered: the a-action certificate (a wrong coefficient, a wrong target, a
missing cofactor), the derivation term of the (a,b)-module operator, the
Nakayama stop of mu, the nu target stop, the early unit return of the
isolation test and the ASCII escaping of the JSON writer.
"""

from __future__ import annotations

import io
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring

import pytest
from hypothesis import given

from brieskorn import cli
from brieskorn.ab_module import ABModule, _integer_operator, check_commutation
from brieskorn.cli import EXIT_INVALID, main
from brieskorn.curve import (
    FactoredCurve,
    _action_target,
    a_action_coefficient,
    invariants,
    milnor_fibre_betti,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.groebner import isolated_at_origin
from brieskorn.linalg import vec_axpy
from brieskorn.local_algebra import IdealGens, _nakayama_order, _reached
from brieskorn.poly import Poly, WeightSystem, parse_polynomial
from brieskorn.suspension import milnor_isolated

from conftest import mu as reference_mu, rank_one
from test_ab_module import (
    COMMUTING_MODULES,
    ab_modules,
    apply_a,
    generator,
    reference_check_commutation,
)
from test_groebner import ideal, reference_isolated

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


def without_derivation_term(module: ABModule, order: int):
    """``_integer_operator`` with the matrix part of a alone: each column
    (j, t) loses its derivation part  D t b^(t+1) e_j."""
    scale, columns = _integer_operator(module, order)
    for (j, t), column in columns.items():
        if 0 < t < order - 1:
            vec_axpy(column, -scale * t, {(j, t + 1): 1})
    return scale, columns


class TestDerivationTermMutant:
    """Commutation a b - b a = b^2 fails without the derivation term for
    N >= 3: the matrix parts cancel and leave the b^(t+2) e term over."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        monkeypatch.setattr("brieskorn.ab_module._integer_operator", without_derivation_term)

    def test_matrix_only_action_fails_commutation(self):
        assert not check_commutation(rank_one(Fraction(1, 2)))

    @pytest.mark.parametrize("module", COMMUTING_MODULES, ids=repr)
    def test_every_commuting_module_fails(self, module):
        assert not check_commutation(module)

    def test_truncation_two_checks_nothing(self):
        assert check_commutation(ABModule(1, 2, [[[0, 1]]]))

    @given(ab_modules())
    def test_is_the_reference_without_the_derivation_term(self, module):
        scale, columns = without_derivation_term(module, module.trunc_order)
        for (j, t), column in columns.items():
            scaled = {key: Fraction(v, scale) for key, v in column.items() if v}
            assert scaled == apply_a(module, generator(j, t), derivation_term=False)
        assert check_commutation(module) is False
        assert reference_check_commutation(module, derivation_term=False) is False


# (x^2 - y^3)^2, graded by (3, 2) and as a jet: mu = dim (h)/J = 2
SQUARED_CUSP = FactoredCurve.of(XY, [(p("x^2-y^3"), 2)])


class TestNakayamaStopMutant:
    @pytest.mark.parametrize("weights", [(3, 2), None], ids=["graded", "jet"])
    def test_one_order_early_is_caught_by_the_mu_oracle(self, monkeypatch, weights):
        f = SQUARED_CUSP.expand()
        ws = None if weights is None else WeightSystem.for_poly(f, weights)
        expected = reference_mu(f, IdealGens.of(XY, [p("x^2-y^3")]), ws).value
        assert invariants(SQUARED_CUSP, weights).mu == expected == 2
        monkeypatch.setattr(
            "brieskorn.local_algebra._nakayama_order",
            lambda counts: max(1, _nakayama_order(counts) - 1),
        )
        assert invariants(SQUARED_CUSP, weights).mu == 1


class TestNuTargetStopMutant:
    @pytest.mark.parametrize("weights", [(1, 1), None], ids=["graded", "jet"])
    def test_a_stop_that_never_fires_reaches_the_cap(self, monkeypatch, weights):
        monkeypatch.setattr("brieskorn.local_algebra._reached", lambda found, target: False)
        with pytest.raises(InconclusiveError, match="did not reach the target nu"):
            invariants(golden_sextic(), weights)

    @pytest.mark.parametrize("weights", [(1, 1), None], ids=["graded", "jet"])
    def test_a_scan_past_its_target_raises(self, monkeypatch, weights):
        # x^2 y^2: a b_1 - 1 target 0 is overshot by the one class of nu;
        # the raise in _reached is all that stops it
        lines = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)])
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti",
            lambda c, ws=None: milnor_fibre_betti(c, ws) - 1,
        )
        with pytest.raises(RuntimeError, match="1 classes, past the target 0"):
            invariants(lines, weights)
        # a stop that accepts the overshoot prints the wrong nu
        monkeypatch.setattr(
            "brieskorn.local_algebra._reached",
            lambda found, target: _reached(min(found, target), target),
        )
        report = invariants(lines, weights)
        assert (report.nu, len(report.basis_nu)) == (0, 1)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: nu stops on the one-sided target b_1 - mu, so a "
        "b_1 - 1 that the scan reaches exactly prints nu 3 and exits 0",
    )
    def test_betti_one_low_on_the_golden_sextic_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti",
            lambda c, ws=None: milnor_fibre_betti(c, ws) - 1,
        )
        with pytest.raises((RuntimeError, InconclusiveError)):
            invariants(golden_sextic(), weights=(1, 1))


class TestIsolationMutant:
    # curves through 0 (a line, two lines, a line with an embedded point):
    # the verdicts are compared, never fed to a scan that could not end
    @pytest.mark.parametrize("texts", [("x",), ("x*y",), ("x^2", "x*y")], ids=",".join)
    def test_a_unit_return_on_every_ideal_is_caught_by_the_reference(
        self, monkeypatch, texts
    ):
        I = ideal(*texts)
        assert isolated_at_origin(I) is reference_isolated(I) is False
        monkeypatch.setattr(IdealGens, "contains_unit", lambda self: True)
        assert isolated_at_origin(I) is True
        assert reference_isolated(I) is False


class TestJsonWriterMutant:
    def test_ascii_unsafe_strings_are_caught_against_json_dumps(self, monkeypatch):
        value = {"\u00e9": ["\U0001f600"]}
        assert cli._json(value) == json.dumps(value, indent=2)
        monkeypatch.setattr("brieskorn.cli.encode_basestring_ascii", encode_basestring)
        assert cli._json(value) != json.dumps(value, indent=2)
