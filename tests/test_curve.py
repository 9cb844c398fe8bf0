"""The plane-curve pipeline: annihilator data, hypotheses, invariants,
a-action, witnesses, and transversal Milnor numbers."""

from __future__ import annotations

import copy
import io
import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from brieskorn import groebner
from brieskorn.cli import EXIT_INVALID, EXIT_OK, main
from brieskorn.curve import (
    FactoredCurve,
    _action_certificate,
    _action_target,
    _closed_meet,
    _closed_milnor,
    _gcd,
    _weighted_shape,
    a_action,
    a_action_coefficient,
    annihilator_field,
    annihilator_form,
    check_hypotheses,
    invariants,
    milnor_fibre_betti,
    torsion_free_witness,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.forms import exact_form_images
from brieskorn.groebner import torsion_length
from brieskorn.linalg import Span, vec_axpy
from brieskorn.local_algebra import (
    IdealGens,
    _JetCounts,
    _PREDICTOR_MODULUS,
    _reached,
    common_denominator,
    integer_terms,
    jacobian_ideal,
    local_colength,
    local_quotient,
    monomials_below,
    monomials_of_weighted_degree,
    shifted_terms,
)
from brieskorn.poly import Poly, WeightSystem, graded_key, listing_key, parse_polynomial
from brieskorn.suspension import milnor_isolated

from conftest import (
    GradedIdeal,
    certificate_inputs,
    class_certificate,
    closed_form_witness,
    closed_product_exponents,
    curve_certificate_inputs,
    homogeneous_weights,
    mu,
    nu_jet_basis,
    nu_jet_reference,
    predicted,
    reference_integer_gcd,
    saturate_at_origin,
    scanned_betti,
    transversal_milnor,
    w_degree,
)
from forms_model import DiffForm, apply_field, exterior_d, gradient, one_form, wedge

XY = ("x", "y")


def p(text):
    return parse_polynomial(text, XY)


def sextic() -> FactoredCurve:
    return FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))


def cross(p1=2, p2=2) -> FactoredCurve:
    return FactoredCurve.of(XY, [(p("x"), p1), (p("y"), p2)])


FACTOR_POOL = ["x", "y", "x+y", "x-y", "x+y^2", "x^2+y^3"]


def random_corpus(count: int, seed: int = 2024) -> list[FactoredCurve]:
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        k = rng.randint(1, 3)
        texts = rng.sample(FACTOR_POOL, k)
        factors = [(p(t), rng.randint(2, 5)) for t in texts]
        corpus.append(FactoredCurve.of(XY, factors))
    return corpus


def watch_the_hot_path(monkeypatch) -> list[bool]:
    """Record each ``Poly.divide_exact`` call, in order, as whether it ran
    inside ``curve.a_action``."""
    divisions: list[bool] = []
    inside: list[bool] = []
    divide, action = Poly.divide_exact, a_action

    def recorded(poly, divisor):
        divisions.append(bool(inside))
        return divide(poly, divisor)

    def watched(*args):
        inside.append(True)
        try:
            return action(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Poly, "divide_exact", recorded)
    for module in ("curve", "suspension"):
        monkeypatch.setattr(f"brieskorn.{module}.a_action", watched)
    return divisions


def product_rule_form(curve: FactoredCurve) -> DiffForm:
    """Reference alpha by the product rule:
    sum_l p_l u_1 ... (u_l omitted) ... u_k psi du_l + u_1 ... u_k dpsi."""
    alpha = DiffForm.zero(XY, 1)
    for l, (u_l, p_l) in enumerate(curve.factors):
        cofactor = curve.residual * p_l
        for i, (u_i, _) in enumerate(curve.factors):
            if i != l:
                cofactor = cofactor * u_i
        alpha = alpha + exterior_d(u_l) * cofactor
    radical = Poly.constant(XY, 1)
    for u, _ in curve.factors:
        radical = radical * u
    return alpha + exterior_d(curve.residual) * radical


def product_rule_corpus() -> list[FactoredCurve]:
    """The random corpus, and random curves with non-monic and rational
    factors and a residual, constant or not."""
    rng = random.Random(11)
    pool = FACTOR_POOL + ["2*x+3*y^2", "3*x-2*y^3"]
    residuals = ["1", "5/3", "x^3+y^3", "2*y^2-3*x^3", "1/2*x*y+y^4"]
    corpus = random_corpus(12, seed=5)
    for residual in residuals * 2:
        texts = rng.sample(pool, rng.randint(1, 3))
        factors = [(p(t), rng.randint(2, 4)) for t in texts]
        corpus.append(FactoredCurve.of(XY, factors, p(residual)))
    return corpus


class TestFactoredCurve:
    def test_expand(self):
        assert sextic().expand() == p("x^6 + x^3*y^3")
        assert cross().expand() == p("x^2*y^2")

    def test_multiplicity_must_be_at_least_two(self):
        with pytest.raises(InputError):
            FactoredCurve.of(XY, [(p("x"), 1)])

    def test_no_factors_means_no_singular_curve(self):
        with pytest.raises(InputError) as err:
            FactoredCurve.of(XY, [])
        assert "no singular locus" in str(err.value)

    def test_duplicate_branches_rejected(self):
        with pytest.raises(InputError):
            FactoredCurve.of(XY, [(p("x"), 2), (p("2*x"), 3)])

    def test_residual_constraints(self):
        # nonzero constants are fine (unit rescaling), nonvanishing
        # nonconstant residuals are not
        FactoredCurve.of(XY, [(p("x"), 2)], p("5"))
        with pytest.raises(InputError):
            FactoredCurve.of(XY, [(p("x"), 2)], p("1 + y"))
        with pytest.raises(InputError):
            FactoredCurve.of(XY, [(p("x"), 2)], Poly.zero(XY))

    def test_two_variables_only(self):
        XYZ = ("x", "y", "z")
        with pytest.raises(InputError):
            FactoredCurve.of(XYZ, [(parse_polynomial("x", XYZ), 2)])

    def test_immutable(self):
        curve, report = sextic(), invariants(sextic(), weights=(1, 1))
        for obj, name in [(curve, "residual"), (curve, "_alpha"), (report, "mu"), (report, "new")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)

    def test_equality_and_hash_read_variables_factors_and_residual(self):
        a, b = sextic(), sextic()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, cross()}) == 2 and a != cross() and a != a.expand()
        # alpha is built from the three, so it is not compared
        object.__setattr__(b, "_alpha", annihilator_form(cross()))
        assert a == b and hash(a) == hash(b)
        # a copy is rebuilt through __init__, alpha included
        c = copy.copy(b)
        assert c == a and annihilator_form(c) == annihilator_form(a)
        assert repr(a) == (
            f"FactoredCurve(variables={XY!r}, factors=((Poly('x', vars={XY!r}), 3),), "
            f"residual=Poly('x^3 + y^3', vars={XY!r}))"
        )


class TestAnnihilatorForm:
    def test_sextic(self):
        assert annihilator_form(sextic()) == (p("6*x^3 + 3*y^3"), p("3*x*y^2"))
        alpha = one_form(annihilator_form(sextic()))
        assert exterior_d(sextic().expand()) == alpha * p("x^2")

    def test_cross(self):
        assert annihilator_form(cross()) == (p("2*y"), p("2*x"))

    def test_two_branch_homogeneous(self):
        c = FactoredCurve.of(XY, [(p("x+y"), 2), (p("x-y"), 3)])
        alpha = annihilator_form(c)
        u, v = p("x+y"), p("x-y")
        assert alpha == (v * 2 + u * 3, v * 2 + u * (-3))
        assert exterior_d(c.expand()) == one_form(alpha) * (u * v**2)

    @pytest.mark.parametrize("curve", product_rule_corpus(), ids=str)
    def test_equals_the_product_rule(self, curve):
        assert one_form(annihilator_form(curve)) == product_rule_form(curve)

    def test_factorization_on_random_corpus(self):
        for curve in random_corpus(12, seed=5):
            alpha = one_form(annihilator_form(curve))
            assert exterior_d(curve.expand()) == alpha * curve.multiplicity_cofactor()

    def test_wedge_with_df_vanishes(self):
        curve = sextic()
        assert wedge(exterior_d(curve.expand()), one_form(annihilator_form(curve))).is_zero

    def test_exact_multiple_lands_in_saturation(self):
        # d(h alpha) for h = x^2 y^2 lies in (x^2) times the top forms
        alpha = one_form(annihilator_form(sextic()))
        two_form = (alpha * p("x^2*y^2")).d()
        coeff = two_form.coefficient((0, 1))
        assert coeff.divide_exact(p("x^2")) is not None


# weights (w_x, w_y) and the weighted-homogeneous branches x, y and
# x^(w_y) - lam y^(w_x); distinct lam keep the branches coprime
ORACLE_WEIGHTS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]
ORACLE_LAMBDAS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3)]


@st.composite
def weighted_curves(draw):
    wx, wy = draw(st.sampled_from(ORACLE_WEIGHTS))
    pool = [p("x"), p("y")] + [
        Poly(XY, {(wy, 0): 1, (0, wx): -lam}) for lam in ORACLE_LAMBDAS
    ]
    chosen = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique_by=str)
    )
    residual = chosen.pop() if len(chosen) > 1 and draw(st.booleans()) else None
    factors = [(u, draw(st.integers(min_value=2, max_value=3))) for u in chosen]
    return FactoredCurve.of(XY, factors, residual), (wx, wy)


class TestAnnihilatorField:
    def test_sextic_proportional_to_reference(self):
        assert annihilator_field(sextic()) == (p("3*x*y^2"), p("-3*(2*x^3+y^3)"))

    def test_kills_f_on_corpus(self):
        for curve in random_corpus(12, seed=6):
            assert apply_field(annihilator_field(curve), curve.expand()).is_zero

    def test_dual_of_cross(self):
        assert annihilator_field(cross()) == (p("2*x"), p("-2*y"))

    @given(weighted_curves())
    def test_kills_f_on_weighted_curves(self, curve_and_weights):
        # no runtime check: df = h alpha, proved by exact division when the
        # curve is built, gives V(f) = h (b a - a b) = 0
        curve, _ = curve_and_weights
        (a, b), f = annihilator_form(curve), curve.expand()
        assert b * f.derivative("x") == a * f.derivative("y")
        assert apply_field(annihilator_field(curve), f).is_zero


class TestHypotheses:
    def test_valid_curves_pass(self):
        assert check_hypotheses(sextic())
        assert check_hypotheses(cross())
        # a single multiple smooth branch is legitimate
        assert check_hypotheses(FactoredCurve.of(XY, [(p("y"), 2)]))
        # the annihilator-form coefficients of these have colengths past jet
        # order 16 (46 for the first); the check reads no cap
        assert check_hypotheses(factored([("x", 3), ("x^2-y^5", 2), ("x^2+y^5", 2)]))
        assert check_hypotheses(factored([("x^2-y^5", 3), ("x", 3)], "x^2+y^5"))

    def test_branch_dividing_residual_rejected(self):
        c = FactoredCurve.of(XY, [(p("x"), 2)], p("x*y + x^2"))
        with pytest.raises(InputError) as err:
            check_hypotheses(c)
        assert "divides the residual" in str(err.value)

    def test_nonreduced_branch_rejected(self):
        c = FactoredCurve.of(XY, [(p("x^2"), 2)])
        with pytest.raises(InputError) as err:
            check_hypotheses(c)
        assert "not reduced" in str(err.value)

    def test_nonreduced_residual_rejected(self):
        c = FactoredCurve.of(XY, [(p("x"), 2)], p("y^2"))
        with pytest.raises(InputError) as err:
            check_hypotheses(c)
        assert "not reduced" in str(err.value)

    def test_associate_branches_rejected(self):
        c = FactoredCurve.of(XY, [(p("x+y"), 2), (p("x + y + y^2"), 2)])
        assert check_hypotheses(c)  # genuinely different branches pass
        with pytest.raises(InputError):
            check_hypotheses(
                FactoredCurve.of(XY, [(p("x + y^2"), 2), (p("x*y + x + y^2 - x*y"), 3)])
            )


class TestInvariants:
    def test_sextic_report(self):
        rep = invariants(sextic(), weights=(1, 1))
        assert (rep.mu, rep.nu, rep.rank) == (9, 4, 13)
        assert rep.betti_n == 13
        assert rep.gamma == 0 and rep.delta == 0
        assert [str(b) for b in rep.basis_nu] == ["1", "x", "y", "x*y"]
        assert [str(b) for b in rep.basis_mu] == [
            "x^2", "x^3", "x^4", "x^5",
            "x^2*y", "x^3*y", "x^4*y", "x^5*y",
            "x^2*y^2",
        ]
        assert len(rep.basis) == rep.rank
        assert rep.assumptions.exact
        assert rep.assumptions.torsion_free

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.fractions(-3, 3, max_denominator=3).filter(bool),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), unique=True, max_size=10),
    )
    def test_basis_order_by_exponent_is_the_order_by_lowest_term(self, h_terms, exponents):
        # invariants lists the classes h x^m by m: the lowest term of h x^m
        # is low(h) x^m, and listing order is translation invariant
        h = Poly(XY, h_terms)
        classes = [Poly(XY, shifted_terms(h.terms.items(), m)) for m in exponents]
        by_lowest_term = sorted(classes, key=lambda c: listing_key(min(c.terms, key=graded_key)))
        by_exponent = [classes[exponents.index(m)] for m in sorted(exponents, key=listing_key)]
        assert by_exponent == by_lowest_term

    def test_sextic_a_action(self):
        rep = invariants(sextic(), weights=(1, 1))
        for rep_poly, coeff in rep.a_action:
            exps = next(iter(rep_poly.terms))
            assert coeff == Fraction(exps[0] + exps[1] + 2, 6)

    def test_cross_report(self):
        rep = invariants(cross(), weights=(1, 1))
        assert (rep.mu, rep.nu, rep.rank) == (1, 1, 2)
        assert [str(b) for b in rep.basis] == ["x*y", "1"]
        assert dict((str(m), c) for m, c in rep.a_action) == {
            "1": Fraction(1, 2),
            "x*y": Fraction(1),
        }

    def test_unit_scaling_invariance(self):
        base = invariants(sextic(), weights=(1, 1))
        scaled_curve = FactoredCurve.of(XY, [(p("x"), 3)], p("7*x^3 + 7*y^3"))
        scaled = invariants(scaled_curve, weights=(1, 1))
        assert (scaled.mu, scaled.nu, scaled.rank) == (base.mu, base.nu, base.rank)
        third = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)], p("-3"))
        rep = invariants(third, weights=(1, 1))
        assert (rep.mu, rep.nu, rep.rank) == (1, 1, 2)

    def test_jet_path_matches(self):
        rep = invariants(sextic(), weights=None, jet_cap=18)
        assert (rep.mu, rep.nu, rep.rank, rep.betti_n) == (9, 4, 13, 13)
        assert [str(b) for b in rep.basis_nu] == ["1", "x", "y", "x*y"]
        assert rep.assumptions.exact
        assert rep.a_action is None

    def test_unimodular_substitution_invariance(self):
        substitutions = [
            {"x": p("x+y"), "y": p("y")},
            {"x": p("x"), "y": p("x+y")},
            {"x": p("x+2*y"), "y": p("x+3*y")},
        ]
        for sub in substitutions:
            u = p("x").substitute(sub)
            psi = p("x^3+y^3").substitute(sub)
            curve = FactoredCurve.of(XY, [(u, 3)], psi)
            rep = invariants(curve, weights=(1, 1), jet_cap=24)
            assert (rep.mu, rep.nu, rep.rank) == (9, 4, 13)
            assert len(rep.basis) == 13
            assert rep.a_action is not None and len(rep.a_action) == 13

    @pytest.mark.parametrize("weights", [(1, 1), None])
    def test_annihilator_form_built_once(self, monkeypatch, weights):
        # f, h, df and alpha are built with the curve, and annihilator_field,
        # the a-action certificate (h and f_x0) and check_hypotheses (when it
        # runs) read them: invariants constructs no curve data
        curve = factored([("x", 2), ("y", 2), ("x+y", 2), ("x-y", 2)])
        assert annihilator_form(curve) is annihilator_form(curve)
        built = []
        init = FactoredCurve.__init__

        def counted(c, *args):
            built.append(c)
            init(c, *args)

        monkeypatch.setattr(FactoredCurve, "__init__", counted)
        rep = invariants(curve, weights=weights)
        assert built == []
        assert (rep.mu, rep.nu, rep.rank) == (9, 9, 18)
        if weights is not None:
            inputs = curve_certificate_inputs(curve)
            assert a_action(*inputs, rep.weights, rep.basis) == rep.a_action

    @pytest.mark.parametrize("weights", [(1, 1), None], ids=["graded", "jet"])
    def test_hot_path_builds_no_form_and_divides_only_for_alpha(self, monkeypatch, weights):
        # the curve's exact division df = h alpha, one per partial, is the
        # only one: invariants hands h, f_x0 and its one twisted operator
        # to the certificate
        divisions = watch_the_hot_path(monkeypatch)
        curve = FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))
        assert divisions == [False, False]
        report = invariants(curve, weights=weights)
        assert (report.mu, report.nu, report.rank) == (9, 4, 13)
        assert (report.a_action is None) == (weights is None)
        assert divisions == [False, False]

    def test_hot_path_of_a_germ_builds_no_form_and_divides_nothing(self, monkeypatch):
        # milnor_isolated passes alpha = df and h = 1
        divisions = watch_the_hot_path(monkeypatch)
        germ = milnor_isolated(parse_polynomial("x^3+y^4", XY))
        assert len(germ.a_action) == germ.milnor == 6
        assert True not in divisions

    def test_non_quasi_homogeneous_weights_rejected(self):
        # every clause holds, so the weights error stands after the check
        c = FactoredCurve.of(XY, [(p("x"), 2)], p("x^2 + y^3"))
        assert check_hypotheses(c)
        with pytest.raises(InputError, match="is not quasi-homogeneous for weights"):
            invariants(c, weights=(1, 1))

    def test_equal_weighted_reports_hash_equal(self):
        first, second = (invariants(sextic(), weights=(1, 1)) for _ in range(2))
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_multiple_smooth_branch_degenerates_gracefully(self):
        # f = y^2: everything is killed by the annihilating flow
        rep = invariants(FactoredCurve.of(XY, [(p("y"), 2)]), weights=(1, 1))
        assert (rep.mu, rep.nu, rep.rank) == (0, 0, 0)


CORPUS_PATH = Path(__file__).resolve().parent.parent / "bench" / "corpus.json"


def parsed_curve(factors: str, residual: Optional[str] = None) -> FactoredCurve:
    """The curve of the CLI's ``--factors`` and ``--residual`` text."""
    pieces = (piece.rsplit(":", 1) for piece in factors.split(","))
    return factored([(text, int(m)) for text, m in pieces], residual)


def parsed_weights(text: Optional[str]) -> Optional[tuple[Fraction, ...]]:
    return None if text is None else tuple(Fraction(w) for w in text.split(","))


def corpus_cases():
    """Every graded and jet curve of the bench corpus, with its weights and
    its reference mu, nu and rank."""
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    for workload in ("graded", "jet"):
        for entry in corpus[workload]:
            yield pytest.param(
                parsed_curve(entry["factors"], entry.get("residual")),
                parsed_weights(entry.get("weights")),
                entry["reference"],
                id=f"{workload}-{entry['id']}",
            )


ANNIHILATOR = (
    "the annihilating field vanishes along a curve "
    "(annihilator-form coefficients share a positive-dimensional zero set)"
)

# each clause of check_hypotheses: a curve that violates it first, as CLI
# flags, and the clause's message
CLAUSES = [
    pytest.param(
        {"--factors": "x*y:2,x:2"},
        "branches x*y and x are associate (identical branches)",
        id="associate",
    ),
    pytest.param(
        {"--factors": "x:2", "--residual": "x*y"},
        "branch x divides the residual x*y",
        id="divides-residual",
    ),
    pytest.param(
        {"--factors": "x^2:2"},
        "branch x^2 is not reduced: its singular locus is not isolated",
        id="branch-not-reduced",
    ),
    pytest.param(
        {"--factors": "x:2", "--residual": "y^2"},
        "residual y^2 is not reduced: its singular locus is not isolated",
        id="residual-not-reduced",
    ),
    pytest.param({"--factors": "x*(x+y):2,x*(x-y):2"}, ANNIHILATOR, id="annihilator"),
    # graded input reads b_1 first too, and a refused certificate scan names the clause
    pytest.param(
        {"--factors": "x*y:2,x:2", "--weights": "1,1"},
        "branches x*y and x are associate (identical branches)",
        id="associate-graded",
    ),
    pytest.param(
        {"--factors": "x:2", "--residual": "x*y", "--weights": "1,1"},
        "branch x divides the residual x*y",
        id="divides-residual-graded",
    ),
    pytest.param(
        {"--factors": "x^2:2", "--weights": "1,1"},
        "branch x^2 is not reduced: its singular locus is not isolated",
        id="branch-not-reduced-graded",
    ),
    pytest.param(
        {"--factors": "x:2", "--residual": "y^2", "--weights": "1,1"},
        "residual y^2 is not reduced: its singular locus is not isolated",
        id="residual-not-reduced-graded",
    ),
    pytest.param(
        {"--factors": "x*(x+y):2,x*(x-y):2", "--weights": "1,1"},
        ANNIHILATOR,
        id="annihilator-graded",
    ),
    # the weights do not grade f, and the curve is not isolated either: the
    # clause is named, not the weights
    pytest.param(
        {"--factors": "x*(x+y):2,x*(x-y):2", "--weights": "1,2"},
        ANNIHILATOR,
        id="annihilator-and-bad-weights",
    ),
]

# refused pair scans, two parts sharing a factor through 0, which divides
# both coefficients of alpha, and the non-reduced branches of ROADMAP
# item 2, whose scans run to their colength bounds
REFUSALS = [
    pytest.param(
        {"--factors": "x*(x+y):2", "--residual": "x*(x-y)"}, ANNIHILATOR, id="branch-and-residual"
    ),
    pytest.param(
        {"--factors": "x*(x+y):2", "--residual": "x*(x-y)", "--weights": "1,1"},
        ANNIHILATOR,
        id="branch-and-residual-graded",
    ),
    pytest.param(
        {"--factors": "(x-y)*(x^5+y^5):2,(x-y)*(x^5+2*y^5):2", "--weights": "1,1"},
        ANNIHILATOR,
        id="degree-6-graded",
    ),
    pytest.param(
        {"--factors": "(x-y)*(x^5+y^7):2,(x-y)*(x^7+y^5+x^3*y^3):2"},
        ANNIHILATOR,
        id="degree-15",
    ),
    pytest.param(
        {
            "--factors": "(x-y)*(x^15+y^15+x^7*y^8):2,(x-y)*(x^15+2*y^15+x^8*y^7):2",
            "--weights": "1,1",
        },
        ANNIHILATOR,
        id="degree-16-graded",
    ),
    pytest.param(
        {"--factors": "(x^2+y^3)^2*(x^3-y^5+x*y):2"},
        "branch -y^11 - 2*x^2*y^8 - x^4*y^5 + x^3*y^6 + 2*x^5*y^3 + x*y^7 + x^7 + "
        "2*x^3*y^4 + x^5*y is not reduced: its singular locus is not isolated",
        id="non-reduced-degree-11",
    ),
    pytest.param(
        {"--factors": "(x-y)^2*(x^5+y^7+x^2*y^2):2"},
        "branch x^2*y^7 - 2*x*y^8 + y^9 + x^7 - 2*x^6*y + x^5*y^2 + x^4*y^2 - "
        "2*x^3*y^3 + x^2*y^4 is not reduced: its singular locus is not isolated",
        id="non-reduced-degree-9",
    ),
]

# curves that break two clauses at once: the clause named is the first in
# the order of check_hypotheses, whichever scan refuses first
MULTI_FAULT = [
    pytest.param(
        {"--factors": "x^2:2,x:2"},
        "branches x^2 and x are associate (identical branches)",
        id="associate-before-not-reduced",
    ),
    pytest.param(
        {"--factors": "x^2:2", "--residual": "x^3*y"},
        "branch x^2 divides the residual x^3*y",
        id="divides-residual-before-not-reduced",
    ),
    pytest.param(
        {"--factors": "x:2,y^2:2", "--residual": "x*y"},
        "branch x divides the residual x*y",
        id="earlier-divides-residual-before-later-not-reduced",
    ),
    pytest.param(
        {"--factors": "y:2", "--residual": "x*y^2"},
        "branch y divides the residual x*y^2",
        id="divides-residual-before-residual-not-reduced",
    ),
    pytest.param(
        {"--factors": "x*(x+y):2,x*(x-y):2", "--residual": "y^2"},
        "residual y^2 is not reduced: its singular locus is not isolated",
        id="residual-not-reduced-before-annihilator",
    ),
    pytest.param(
        {"--factors": "x^2:2,y:2", "--residual": "x*y"},
        "branch x^2 is not reduced: its singular locus is not isolated",
        id="not-reduced-before-later-divides-residual",
    ),
    pytest.param(
        {"--factors": "x:2,y:2", "--residual": "(x+y)^2", "--weights": "1,1"},
        "residual x^2 + 2*x*y + y^2 is not reduced: its singular locus is not isolated",
        id="residual-not-reduced-graded",
    ),
]


CLAUSE_BRANCHES = [
    "x", "y", "x+y", "x-y", "x+y^2", "x^2+y^3", "x^2", "y^2", "(x+y)^2", "x*y", "x*(x+y)",
    "x^2*y", "(x-y)*(x^2+y^3)",
]
CLAUSE_RESIDUALS = [None, "x*y", "y^2", "x^2+y^3", "(x-y)^2", "x*(x-y)", "x^3*y", "x+y^3"]


@st.composite
def clause_curves(draw) -> FactoredCurve:
    """Curves of a few branches from a pool that holds non-reduced and
    overlapping ones, with an optional residual."""
    texts = draw(st.lists(st.sampled_from(CLAUSE_BRANCHES), min_size=1, max_size=3, unique=True))
    return factored([(text, 2) for text in texts], draw(st.sampled_from(CLAUSE_RESIDUALS)))


def reference_clause(curve: FactoredCurve) -> Optional[str]:
    """The first violated clause, or None, decided with Groebner bases:
    exact divisions, and ``groebner.isolated_at_origin`` for (g, g_x, g_y)
    of each part and for (g_i, g_j) of each pair."""

    def isolated(*gens: Poly) -> bool:
        return groebner.isolated_at_origin(IdealGens.of(XY, list(gens)))

    branches = [u for u, _ in curve.factors]
    psi = None if curve.residual_is_constant else curve.residual
    for u, v in itertools.combinations(branches, 2):
        if u.divide_exact(v) is not None or v.divide_exact(u) is not None:
            return f"branches {u} and {v} are associate (identical branches)"
    for u in branches:
        if psi is not None and psi.divide_exact(u) is not None:
            return f"branch {u} divides the residual {psi}"
        if not isolated(u, u.derivative("x"), u.derivative("y")):
            return f"branch {u} is not reduced: its singular locus is not isolated"
    if psi is not None and not isolated(psi, psi.derivative("x"), psi.derivative("y")):
        return f"residual {psi} is not reduced: its singular locus is not isolated"
    parts = branches + ([] if psi is None else [psi])
    if not all(isolated(g, g2) for g, g2 in itertools.combinations(parts, 2)):
        return ANNIHILATOR
    return None


@pytest.fixture
def no_groebner(monkeypatch):
    """Every Groebner basis refused: the code under test must build none."""

    def refused(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(groebner, "_groebner", refused)


@pytest.fixture
def mu_scans(monkeypatch, no_groebner) -> list:
    """The ideals that reach the mu scan of (a, b), the only
    ``local_quotient`` call of the pipeline, with no Groebner basis."""
    quoted = []

    def quoting(I, ws):
        quoted.append(I)
        return local_quotient(I, ws)

    monkeypatch.setattr("brieskorn.curve.local_quotient", quoting)
    return quoted


class TestHypothesesFromScans:
    """``invariants`` and ``check_hypotheses`` run no Groebner basis and no
    second check: the stops of the colength scans of ``milnor_fibre_betti``
    prove every clause, and a scan that passes its bound names the first
    violated clause."""

    @pytest.mark.parametrize("curve, weights, reference", corpus_cases())
    def test_corpus_curves_build_no_groebner_basis(self, no_groebner, curve, weights, reference):
        assert check_hypotheses(curve)
        report = invariants(curve, weights).to_dict()
        assert {key: report[key] for key in reference} == reference

    @pytest.mark.parametrize("flags, message", CLAUSES + MULTI_FAULT)
    def test_each_clause_keeps_its_message(self, capsys, mu_scans, flags, message):
        curve = parsed_curve(flags["--factors"], flags.get("--residual"))
        with pytest.raises(InputError) as err:
            check_hypotheses(curve)
        assert str(err.value) == message
        with pytest.raises(InputError) as err:
            invariants(curve, parsed_weights(flags.get("--weights")))
        assert str(err.value) == message
        argv = ["invariants", *(word for pair in flags.items() for word in pair)]
        assert main(argv, out=io.StringIO()) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert mu_scans == []

    @given(clause_curves())
    def test_the_named_clause_is_the_groebner_reference(self, curve):
        try:
            assert check_hypotheses(curve)
        except InputError as err:
            assert str(err) == reference_clause(curve)
        else:
            assert reference_clause(curve) is None

    @pytest.mark.parametrize("flags, message", REFUSALS)
    def test_a_refusal_builds_no_groebner_basis_and_no_mu_scan(self, mu_scans, flags, message):
        # invariants alone: these scans run long, and check_hypotheses is
        # the same milnor_fibre_betti call
        curve = parsed_curve(flags["--factors"], flags.get("--residual"))
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            invariants(curve, parsed_weights(flags.get("--weights")))
        assert mu_scans == []

    def test_a_constant_f_is_named(self):
        # FactoredCurve.of refuses constant branches; the constructor does not
        two = Poly.constant(XY, 2)
        curve = FactoredCurve(XY, ((two, 2),), Poly.constant(XY, 1))
        with pytest.raises(InputError, match="^no singular locus: f is constant$"):
            invariants(curve)

    def test_a_constant_branch_is_refused_as_of_refuses_it(self):
        # beside x the constant branch 2 read as a degree-0 monomial of
        # Milnor number 1, so check_hypotheses passed and b_1 read 0
        two, x = Poly.constant(XY, 2), p("x")
        curve = FactoredCurve(XY, ((two, 2), (x, 2)), Poly.constant(XY, 1))
        message = "^factors must be nonconstant$"
        for call in (check_hypotheses, milnor_fibre_betti, invariants):
            with pytest.raises(InputError, match=message):
                call(curve)
        with pytest.raises(InputError, match=message):
            FactoredCurve.of(XY, [(two, 2), (x, 2)])


class TestCrossPathConsistency:
    """The graded and jet paths must agree, and the transported Milnor
    number must match a direct three-variable saturation (an independent
    route through completely different code)."""

    CASES = [
        # (factors as (text, mult), residual, weights, expected mu/nu/rank)
        ([("x", 2)], "x^2+y^3", (3, 2), (7, 2, 9)),
        ([("x", 3)], "x+y^2", (2, 1), (3, 2, 5)),
        # for x^2 y^3 the saturation is (x y^2) and the twisted action
        # kills everything: mu = 1, nu = 0, rank 1 (hand-checked; the
        # Milnor fibre is connected of Euler characteristic zero)
        ([("x", 2), ("y", 3)], None, (1, 1), (1, 0, 1)),
        ([("x+y", 2), ("x-y", 3)], None, (1, 1), (1, 0, 1)),
    ]

    @pytest.mark.parametrize("factors,residual,weights,expected", CASES)
    def test_paths_agree(self, factors, residual, weights, expected):
        from brieskorn.suspension import milnor_isolated, verify_suspension_direct

        curve = FactoredCurve.of(
            XY,
            [(p(t), m) for t, m in factors],
            p(residual) if residual else None,
        )
        graded = invariants(curve, weights=weights, jet_cap=24)
        jet = invariants(curve, weights=None, jet_cap=18)
        assert (graded.mu, graded.nu, graded.rank) == expected
        assert (jet.mu, jet.nu, jet.rank) == expected
        assert graded.assumptions.exact and jet.assumptions.exact
        germ = milnor_isolated(
            parse_polynomial("z^2", ("z",))
        )
        check = verify_suspension_direct(germ, curve, graded)
        assert check.agrees and check.mu_direct == expected[0]


def changed(text: str) -> str:
    """The nonlinear coordinate change x -> x + y^2, on polynomial text."""
    return text.replace("x", "(x+y^2)")


def factored(factors, residual=None) -> FactoredCurve:
    return FactoredCurve.of(
        XY, [(p(t), m) for t, m in factors], p(residual) if residual else None
    )


class TestSaturationTheorem:
    """sat(J) = (h), h = u_1^(p_1-1) ... u_k^(p_k-1): the curve pipeline takes
    the saturation from the factors instead of a general saturation."""

    # (factors, residual, weights, graded (mu, nu, rank))
    CHANGES = [
        ([("x", 3)], "x^3+y^3", (1, 1), (9, 4, 13)),
        ([("x", 3), ("y", 2)], "x^2+y^3", (3, 2), (12, 8, 20)),
        ([("x", 2), ("y", 2), ("x+y", 2), ("x-y", 2)], None, (1, 1), (9, 9, 18)),
        ([("x", 2)], "x^2+y^5", (5, 2), (13, 4, 17)),
    ]

    @pytest.mark.parametrize("factors,residual,weights,expected", CHANGES)
    def test_coordinate_change_keeps_graded_invariants(
        self, factors, residual, weights, expected
    ):
        graded = invariants(factored(factors, residual), weights=weights)
        assert (graded.mu, graded.nu, graded.rank) == expected
        moved = factored(
            [(changed(t), m) for t, m in factors],
            changed(residual) if residual else None,
        )
        jet = invariants(moved, weights=None)
        assert (jet.mu, jet.nu, jet.rank) == expected

    # the Groebner saturation of J has the slices of (h)
    CHAIN_CASES = [
        ([("x", 3)], "x^3+y^3", (1, 1)),
        ([("x", 2)], "x^2+y^3", (3, 2)),
        ([("x", 2), ("y", 2), ("x+y", 2), ("x-y", 2)], None, (1, 1)),
        ([("x", 3), ("y", 2)], "x^2+y^3", (3, 2)),
        ([("x^2-y^3", 2)], None, (3, 2)),
        ([("x^2+y^5", 2)], None, (5, 2)),
        ([("x", 2), ("y", 2)], "x+y", (1, 1)),
    ]

    @pytest.mark.parametrize("factors,residual,weights", CHAIN_CASES)
    def test_colon_chain_gives_the_slices_of_h(self, factors, residual, weights):
        curve = factored(factors, residual)
        f = curve.expand()
        ws = WeightSystem.for_poly(f, weights)
        saturated = GradedIdeal(saturate_at_origin(jacobian_ideal(f)), ws)
        theorem = GradedIdeal(IdealGens.of(XY, [curve.multiplicity_cofactor()]), ws)

        def rows(span):  # reduced rows are unique; their order is insertion order
            return {frozenset(row.items()) for row in span.row_vectors()}

        for wdeg in range(12 * max(theorem.int_weights) + 1):
            assert rows(saturated.slice_span(wdeg)) == rows(theorem.slice_span(wdeg))

    def test_generated_quasi_homogeneous_mu_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        X, Y = sympy.symbols("x y")
        branches = {
            (1, 1): ["x", "y", "x+y", "x-y", "x+2*y"],
            (2, 1): ["x", "y", "x+y^2", "x-y^2", "x+3*y^2"],
            (3, 2): ["x", "y", "x^2+y^3", "x^2-y^3", "x^2+2*y^3"],
            (5, 2): ["x", "y", "x^2+y^5", "x^2-y^5"],
        }

        def to_sympy(text):
            return sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})

        def colength(factors, residual) -> int:
            # alpha = sum_l p_l (prod_{i != l} u_i) psi du_l + (prod u_i) dpsi
            us = [(to_sympy(t), m) for t, m in factors]
            psi = to_sympy(residual) if residual else sympy.Integer(1)
            product = sympy.Mul(*(u for u, _ in us))
            coefficients = []
            for var in (X, Y):
                total = product * sympy.diff(psi, var)
                for l, (u_l, p_l) in enumerate(us):
                    others = sympy.Mul(*(u for i, (u, _) in enumerate(us) if i != l))
                    total += p_l * others * psi * sympy.diff(u_l, var)
                coefficients.append(sympy.expand(total))
            basis = sympy.groebner(coefficients, X, Y, order="grevlex")
            leads = [sympy.Poly(g, X, Y).monoms(order="grevlex")[0] for g in basis.exprs]
            x_pow = min(a for a, b in leads if b == 0)
            y_pow = min(b for a, b in leads if a == 0)
            count = sum(
                1
                for a in range(x_pow)
                for b in range(y_pow)
                if not any(a >= la and b >= lb for la, lb in leads)
            )
            # supported only at the origin, so the global count is the local one
            for power in (X ** max(count, 1), Y ** max(count, 1)):
                assert basis.reduce(power)[1] == 0
            return count

        rng = random.Random(7)
        seen = []
        while len(seen) < 30:
            weights = rng.choice(sorted(branches))
            pool = rng.sample(branches[weights], rng.randint(2, 3))
            k = rng.randint(1, len(pool))
            factors = [(t, rng.randint(2, 3)) for t in pool[:k]]
            residual = pool[k] if k < len(pool) else None
            if (factors, residual, weights) in seen:
                continue
            seen.append((factors, residual, weights))
            curve = factored(factors, residual)
            check_hypotheses(curve)
            f = curve.expand()
            h = IdealGens.of(XY, [curve.multiplicity_cofactor()])
            ws = WeightSystem.for_poly(f, weights)
            result = mu(f, h, ws)  # the test-only reference
            assert result.exact
            assert result.value == colength(factors, residual), (factors, residual)
            assert local_quotient(coefficient_ideal(curve), ws)[0] == result.value


class TestAActionOracle:
    def test_wrong_coefficient_fails(self):
        f, alpha = sextic().expand(), annihilator_form(sextic())
        ws = WeightSystem.for_poly(f, (1, 1))
        assert class_certificate(*certificate_inputs(f, alpha), ws)(p("1"), Fraction(1, 3))
        assert not class_certificate(*certificate_inputs(f, alpha), ws)(p("1"), Fraction(1, 2))

    def test_cross_values(self):
        f, alpha = cross().expand(), annihilator_form(cross())
        ws = WeightSystem.for_poly(f, (1, 1))
        assert class_certificate(*certificate_inputs(f, alpha), ws)(p("1"), Fraction(1, 2))
        assert class_certificate(*certificate_inputs(f, alpha), ws)(p("x*y"), Fraction(1))
        assert not class_certificate(*certificate_inputs(f, alpha), ws)(p("1"), Fraction(1, 3))

    def test_shared_degree_span_still_checks_each_representative(self, monkeypatch):
        # x^2, x*y and y^2 share one weighted degree and one predicted
        # coefficient, built once; the certificate still compares a
        # coefficient at each class, after the frame is proved
        f, alpha = sextic().expand(), annihilator_form(sextic())
        ws = WeightSystem.for_poly(f, (1, 1))
        basis = [p("x^2"), p("x*y"), p("y^2")]
        calls = []

        def counted(weights, degree):
            calls.append(degree)
            return a_action_coefficient(weights, degree)

        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", counted)
        proved = a_action(*certificate_inputs(f, alpha), ws, basis)
        assert [c for _, c in proved] == [Fraction(2, 3)] * 3 and calls == [2]
        holds = _action_certificate(*certificate_inputs(f, alpha), ws)
        assert holds(p("x^2"), 2, Fraction(2, 3))
        assert not holds(p("x*y"), 2, Fraction(2, 3) + Fraction(1, 7))
        assert holds(p("x*y"), 2, Fraction(2, 3))

    def test_a_class_without_one_degree_is_refused(self):
        # two w-degrees, or none (the zero class)
        f, alpha = sextic().expand(), annihilator_form(sextic())
        ws = WeightSystem.for_poly(f, (1, 1))
        for basis in ([p("x^2")], [p("1")]):
            assert a_action(*certificate_inputs(f, alpha), ws, basis)
        for rep in (p("x^2 + y"), p("0")):
            with pytest.raises(InputError, match=r"is not quasi-homogeneous$"):
                a_action(*certificate_inputs(f, alpha), ws, [p("x^2"), rep])

    def test_eta_degree_past_the_jet_cap(self):
        # the oracle slices lie past jet_cap * min(weights): each one is a
        # finite exact solve, so no cap applies and the report is exact
        curve = factored([("y", 3), ("x^2-y^5", 3)])
        graded = invariants(curve, weights=(5, 2))
        assert (graded.mu, graded.nu, graded.rank) == (7, 14, 21)
        assert graded.assumptions.exact
        assert len(graded.a_action) == 21
        jet = invariants(curve, weights=None)  # an independent route
        assert (jet.mu, jet.nu, jet.rank) == (7, 14, 21)

    def test_three_branch_curve_past_the_jet_cap(self):
        # mu 46 is the colength of the annihilator-form coefficients
        # (sympy Groebner basis, supported at the origin)
        curve = factored([("x", 3), ("x^2-y^5", 2), ("x^2+y^5", 2)])
        report = invariants(curve, weights=(5, 2))
        assert report.mu == 46
        assert report.assumptions.exact
        assert len(report.a_action) == report.rank

    def test_coefficient_formula_positive(self):
        ws = WeightSystem.for_poly(sextic().expand(), (1, 1))
        rep = invariants(sextic(), weights=(1, 1))
        for rep_poly, _ in rep.a_action:
            assert predicted(ws, rep_poly) > 0


def reference_target(f: Poly, m: Poly, coefficient: Fraction) -> dict:
    """The oracle's target as it was built from Poly products:
    f m - c f_x0 (int m dx_0)."""
    variables = f.variables
    primitive = Poly(
        variables,
        {(e[0] + 1,) + e[1:]: Fraction(c, e[0] + 1) for e, c in m.terms.items()},
    )
    return dict((f * m - f.derivative(variables[0]) * primitive * coefficient).terms)


def form_weighted_degree(form: DiffForm, weights) -> Optional[Fraction]:
    """The weighted degree of a form, dx_i counting w_i; None when its
    terms are not all of one degree."""
    degrees = set()
    for key, coeff in form.terms.items():
        d = coeff.quasi_homogeneous_degree(weights)
        if d is None:
            return None
        degrees.add(d + sum((weights[i] for i in key), Fraction(0)))
    if len(degrees) != 1:
        return None
    return degrees.pop()


def reference_oracle(f: Poly, alpha: tuple[Poly, ...], ws: WeightSystem):
    """Membership of  f m vol - c df ^ xi  in the span of the exact forms
    d(eta ^ alpha) of its weighted degree, with Poly-built targets: the
    independent reference for ``_action_certificate``, deciding every c."""
    n = len(f.variables)
    int_weights, scale = ws.integer_scaled()
    images = [
        (sum(int_weights[j] for j in index_set), image)
        for index_set, image in exact_form_images(alpha).items()
    ]
    alpha_degree = form_weighted_degree(one_form(alpha), ws.weights)
    spans: dict[int, Span] = {}

    def eta_span(eta_degree: int) -> Span:
        span = Span()
        for index_degree, image in images:
            for h_exp in monomials_of_weighted_degree(
                n, int_weights, eta_degree - index_degree
            ):
                vec = image(h_exp)
                if vec:
                    span.insert(vec)
        return span

    def holds(m: Poly, coefficient: Fraction) -> bool:
        target = reference_target(f, m, coefficient)
        if not target:
            return True
        degrees = {sum(map(mul, e, int_weights)) for e in target}
        if len(degrees) != 1 or alpha_degree is None:
            raise InputError("forms are not quasi-homogeneous under the certificate")
        eta_degree = int(degrees.pop() + sum(int_weights) - alpha_degree * scale)
        if eta_degree not in spans:
            spans[eta_degree] = eta_span(eta_degree)
        return spans[eta_degree].contains(target)

    return holds


def is_positive_multiple(vec: dict, reference: dict) -> bool:
    """True when vec = r * reference for one rational r > 0."""
    if vec.keys() != reference.keys():
        return False
    if not vec:
        return True
    key = next(iter(vec))
    ratio = Fraction(vec[key]) / reference[key]
    return ratio > 0 and all(v == ratio * reference[k] for k, v in vec.items())


ISOLATED_ORACLE_GERMS = [
    ("x^3 + y^4", ("x", "y")),
    ("x^2*y + y^4", ("x", "y")),
    ("1/2*x^3 + 2/3*y^3", ("x", "y")),
    ("x^2 + y^3 + z^4", ("x", "y", "z")),
    ("x^2*y + y^3 + z^2", ("x", "y", "z")),
]


class TestIntegerOracleTarget:
    """The certificate's integer-shift target against the Poly-built one."""

    @given(weighted_curves())
    def test_target_and_verdicts_match_the_poly_reference(self, curve_and_weights):
        curve, weights = curve_and_weights
        report = invariants(curve, weights=weights)
        ws = report.weights
        f = curve.expand()
        alpha = annihilator_form(curve)
        holds = class_certificate(*certificate_inputs(f, alpha), ws)
        reference = reference_oracle(f, alpha, ws)
        scale = common_denominator(f)
        f_terms = integer_terms(f, scale)
        fx0_terms = integer_terms(f.derivative("x"), scale)
        for rep in report.basis:
            c = predicted(ws, rep)
            for coefficient in (c, c + Fraction(1, 7)):
                for t in rep.terms:
                    target = _action_target(
                        f_terms, fx0_terms, t, coefficient.numerator, coefficient.denominator
                    )
                    monomial = Poly.monomial(XY, t)
                    assert is_positive_multiple(target, reference_target(f, monomial, coefficient))
                assert holds(rep, coefficient) == (coefficient == c)
            assert reference(rep, c)

    @pytest.mark.parametrize("text,variables", ISOLATED_ORACLE_GERMS)
    def test_isolated_germs_share_the_oracle(self, text, variables):
        # milnor_isolated proves its coefficients through the same
        # certificate, with alpha = df, in two and three variables
        germ = milnor_isolated(parse_polynomial(text, variables))
        f = germ.poly
        alpha = gradient(f)
        holds = class_certificate(*certificate_inputs(f, alpha), germ.weights)
        reference = reference_oracle(f, alpha, germ.weights)
        assert [m for m, _ in germ.a_action] == list(germ.basis)
        assert len(germ.a_action) == germ.milnor
        for m, c in germ.a_action:
            assert holds(m, c) and reference(m, c)
            assert not holds(m, c + Fraction(1, 7))


class TestEulerWitness:
    """The Euler-field certificate proves every predicted coefficient c*
    with no span, and no other c; the span reference decides every c."""

    @given(weighted_curves())
    def test_curves_need_no_span(self, curve_and_weights):
        curve, weights = curve_and_weights
        report = invariants(curve, weights=weights)
        ws = report.weights
        holds = class_certificate(*curve_certificate_inputs(curve), ws)
        assert [rep for rep, _ in report.a_action] == list(report.basis)
        for rep, c in report.a_action:
            assert c == predicted(ws, rep) and holds(rep, c)

    @pytest.mark.parametrize("text,variables", ISOLATED_ORACLE_GERMS)
    def test_isolated_germs_need_no_span(self, text, variables):
        germ = milnor_isolated(parse_polynomial(text, variables))
        f = germ.poly
        holds = class_certificate(*certificate_inputs(f), germ.weights)
        assert [m for m, _ in germ.a_action] == list(germ.basis)
        assert len(germ.a_action) == germ.milnor
        for m, c in germ.a_action:
            assert c == predicted(germ.weights, m) and holds(m, c)

    CASES = [
        ("x^3 + y^4", ("x", "y"), None, (4, 3)),
        ("x^2 + y^3 + z^4", ("x", "y", "z"), None, (6, 4, 3)),
        (None, ("x", "y"), sextic, (1, 1)),
    ]

    @pytest.mark.parametrize("text,variables,curve,weights", CASES)
    def test_verdicts_match_the_span_reference(self, text, variables, curve, weights):
        # every monomial of degree < 7 and c in {c*, c* + 1/7, c* - 1}: the
        # certificate holds at c* alone, each of its verdicts is a member
        # of the span reference, and some wrong c is a member too, which
        # the certificate leaves unproved
        if curve is None:
            f = parse_polynomial(text, variables)
            alpha = gradient(f)
        else:
            f, alpha = curve().expand(), annihilator_form(curve())
        ws = WeightSystem.for_poly(f, weights)
        holds = class_certificate(*certificate_inputs(f, alpha), ws)
        reference = reference_oracle(f, alpha, ws)
        wrong_members = 0
        for exps in monomials_below(len(variables), 7):
            m = Poly.monomial(variables, exps)
            c_star = predicted(ws, m)
            for c in (c_star, c_star + Fraction(1, 7), c_star - 1):
                proved, member = holds(m, c), reference(m, c)
                assert proved == (c == c_star), (exps, c)
                assert member or not proved, (exps, c)
                wrong_members += member and c != c_star
        assert wrong_members > 0

    def test_witness_needs_an_exact_cofactor(self):
        # alpha = x dy - y dx does not divide df of x^2 + y^2, so no h gives
        # df = h alpha, which every caller proves (the curve's exact
        # division, or h = 1 for alpha = df): with h = 1 the frame
        # comparison refuses c* at 1, x and y
        f = p("x^2 + y^2")
        images = exact_form_images((-p("y"), p("x")))
        ws = WeightSystem.for_poly(f, (1, 1))
        for m in (p("1"), p("x"), p("y")):
            holds = class_certificate(f, f.derivative("x"), p("1"), images, ws)
            assert not holds(m, predicted(ws, m))
        # with the true alpha = df and h = 1 each is proved
        holds = class_certificate(*certificate_inputs(f), ws)
        assert all(holds(m, predicted(ws, m)) for m in (p("1"), p("x"), p("y")))


def per_class_certificate(f: Poly, alpha: tuple[Poly, ...], ws: WeightSystem):
    """The Euler-field certificate as it was before its affine frame: each
    class m is proved on its own, by the full identity
    f m vol - c df ^ xi = d(eta ^ alpha) (or by omega = 0), at any c, with
    omega from Poly products (``reference_target``)."""
    variables, n = f.variables, len(f.variables)
    i = next(i for i, a in enumerate(alpha) if not a.is_zero)
    h = f.derivative(variables[i]).divide_exact(alpha[i])
    scale_h = common_denominator(h)
    h_terms = integer_terms(h, scale_h)
    int_weights, weight_scale = ws.integer_scaled()
    q = ws.total_degree * weight_scale
    images = exact_form_images(alpha)
    index_images = [
        (j, images[tuple(k for k in range(1, n) if k != j)]) for j in range(1, n)
    ]
    common = lcm(*(image.scale for _, image in index_images))
    parts = [
        ((-1) ** (n + j - 1) * int_weights[j] * (common // image.scale), j, image)
        for j, image in index_images
    ]

    def holds(m: Poly, coefficient: Fraction) -> bool:
        omega = reference_target(f, m, coefficient)
        if not omega:
            return True
        c_p = lcm(*(m_t.denominator * (t[0] + 1) for t, m_t in m.terms.items()))
        ph: dict = {}
        for t, m_t in m.terms.items():
            p_coeff = m_t.numerator * (c_p // (m_t.denominator * (t[0] + 1)))
            vec_axpy(ph, p_coeff, shifted_terms(h_terms, (t[0] + 1,) + t[1:]))
        total: dict = {}
        for factor, j, image in parts:
            for e, c in ph.items():
                vec_axpy(total, factor * c, image(e[:j] + (e[j] + 1,) + e[j + 1 :]))
        # d(eta ^ alpha) = total q.denominator / (q.numerator c_p scale_h common)
        return total.keys() == omega.keys() and all(
            v * c_p * q.numerator * scale_h * common == total[e] * q.denominator
            for e, v in omega.items()
        )

    return holds


def reference_a_action(f, alpha, ws, basis, coefficient_of=a_action_coefficient):
    """The per-class loop: every class checked in full by
    ``per_class_certificate``, with the coefficient that ``coefficient_of``
    predicts at its w-degree."""
    holds = per_class_certificate(f, alpha, ws)
    out = []
    for rep in basis:
        coefficient = coefficient_of(ws, w_degree(ws, rep))
        if not holds(rep, coefficient):
            raise InputError(f"a-action verification failed on monomial {rep}")
        out.append((rep, coefficient))
    return tuple(out)


def shifted_on(target: Poly):
    """``a_action_coefficient`` off by 1/7 at the one w-degree of the class
    ``target``; ``a_action`` refuses the first class of that degree
    (``first_of_degree``)."""

    def wrong(ws, degree):
        shift = Fraction(1, 7) if degree == w_degree(ws, target) else 0
        return a_action_coefficient(ws, degree) + shift

    return wrong


def first_of_degree(ws: WeightSystem, classes, target: Poly) -> Poly:
    """The first of ``classes`` whose w-degree is that of ``target``."""
    return next(m for m in classes if w_degree(ws, m) == w_degree(ws, target))


def failed_on(rep: Poly) -> str:
    return rf"^a-action verification failed on monomial {re.escape(str(rep))}$"


def record_targets(monkeypatch, certificate=_action_certificate, variables=XY) -> list:
    """Record each target that ``certificate`` computes, in its module's
    namespace, as (monomial in ``variables``, whether omega != 0, so that
    the identity was compared in full)."""
    seen = []

    def recording(f_terms, fx0_terms, t, c_num, c_den):
        target = _action_target(f_terms, fx0_terms, t, c_num, c_den)
        seen.append((str(Poly.monomial(variables, t)), bool(target)))
        return target

    monkeypatch.setitem(certificate.__globals__, "_action_target", recording)
    return seen


def compared_in_full(seen: list) -> list[str]:
    """The monomials of the targets ``seen`` by one certificate
    (``record_targets``) at which it compared the identity in full: its
    frame, proved right after the first omega != 0."""
    first = next((k for k, (_, full) in enumerate(seen) if full), len(seen))
    return [m for m, _ in seen[first + 1 :]]


def proved_in_turn(monkeypatch, certificate, texts, defect=None) -> Optional[list[str]]:
    """Prove the monomials of ``texts`` in turn at their c* by one
    certificate of the germ x^3 + y^4 (where omega is 0 at no monomial);
    the monomials it compares in full, or None once one is refused.
    ``defect``, a function of the exponent t of x^t, is added to every
    target at the exponent 0."""
    seen = record_targets(monkeypatch, certificate)
    if defect is not None:
        recording = certificate.__globals__["_action_target"]

        def defective(f_terms, fx0_terms, t, c_num, c_den):
            target = recording(f_terms, fx0_terms, t, c_num, c_den)
            vec_axpy(target, defect(t), {(0, 0): 1})
            return target

        monkeypatch.setitem(certificate.__globals__, "_action_target", defective)
    f = p("x^3 + y^4")
    ws = WeightSystem.for_poly(f, (4, 3))
    holds = certificate(*certificate_inputs(f), ws)
    for m in map(p, texts):
        if not holds(m, w_degree(ws, m), predicted(ws, m)):
            return None
    assert all(full for _, full in seen)
    return compared_in_full(seen)


def affine_defect_at_y(t):
    """A defect affine in t that vanishes at 1 and x but not at y."""
    return t[1]


GERM_VARIABLES = ("x", "y", "z")


@st.composite
def quasi_homogeneous_germs(draw):
    """A germ in 1-3 variables: the pure powers x_i^(a_i) plus some mixed
    monomials of the same weighted degree, nonzero rational coefficients,
    and classes that are monomials or two-term polynomials of one weighted
    degree."""
    n = draw(st.integers(1, 3))
    variables = GERM_VARIABLES[:n]
    exponents = [draw(st.integers(2, 5)) for _ in range(n)]
    degree = lcm(*exponents)
    weights = tuple(degree // a for a in exponents)
    nonzero = st.fractions(-3, 3, max_denominator=3).filter(bool)
    terms = {
        e: draw(nonzero)
        for e in monomials_of_weighted_degree(n, weights, degree)
        if sum(map(bool, e)) == 1 or draw(st.booleans())
    }
    f = Poly(variables, terms)
    classes = []
    for t in draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=8)):
        same = monomials_of_weighted_degree(n, weights, sum(map(mul, t, weights)))
        other = draw(st.sampled_from(same))
        classes.append(Poly(variables, {t: draw(nonzero), other: draw(nonzero)}))
    return f, WeightSystem.for_poly(f, weights), classes


def assert_same_verdicts(f, alpha, ws, basis, index):
    """``a_action`` equals the per-class reference on ``basis``, and both
    refuse a coefficient shifted at the w-degree of ``basis[index]``, naming
    the first class of that degree."""
    assert a_action(*certificate_inputs(f, alpha), ws, basis) == reference_a_action(
        f, alpha, ws, basis
    )
    if not basis:
        return
    target = basis[index % len(basis)]
    first = first_of_degree(ws, basis, target)
    with pytest.raises(InputError, match=failed_on(first)):
        reference_a_action(f, alpha, ws, basis, shifted_on(target))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("brieskorn.curve.a_action_coefficient", shifted_on(target))
        with pytest.raises(InputError, match=failed_on(first)):
            a_action(*certificate_inputs(f, alpha), ws, basis)


class TestAffineFrame:
    """The certificate compares its identity in full at the n + 1 monomials
    1, x_0, ..., x_(n-1) only: the defect at c*(t) is affine in t, so it
    vanishes on the affine hull of the frame, which holds every exponent."""

    @given(weighted_curves(), st.integers(0, 100))
    def test_curves_match_the_per_class_reference(self, curve_and_weights, index):
        curve, weights = curve_and_weights
        report = invariants(curve, weights=weights)
        f, alpha = curve.expand(), annihilator_form(curve)
        assert report.a_action == reference_a_action(f, alpha, report.weights, report.basis)
        assert_same_verdicts(f, alpha, report.weights, report.basis, index)

    @given(quasi_homogeneous_germs(), st.integers(0, 100))
    def test_germs_match_the_per_class_reference(self, germ, index):
        f, ws, classes = germ
        alpha = gradient(f)
        with pytest.MonkeyPatch.context() as mp:
            seen = record_targets(mp, variables=f.variables)
            a_action(*certificate_inputs(f, alpha), ws, classes)
        frame = [str(Poly.constant(f.variables, 1))] + list(f.variables)
        assert compared_in_full(seen) in ([], frame)
        assert_same_verdicts(f, alpha, ws, classes, index)

    def test_the_frame_is_1_x_y(self, monkeypatch):
        full = proved_in_turn(monkeypatch, _action_certificate, ["x^2*y^3", "x", "y^5"])
        assert full == ["1", "x", "y"]

    def test_the_hull_of_1_x_y_holds_every_exponent(self, monkeypatch):
        rest = [str(Poly.monomial(XY, e)) for e in monomials_below(2, 7)]
        assert proved_in_turn(monkeypatch, _action_certificate, rest) == ["1", "x", "y"]

    def test_an_affine_defect_off_1_and_x_is_caught_at_y(self, monkeypatch):
        assert proved_in_turn(monkeypatch, _action_certificate, ["x^2"], affine_defect_at_y) is None

    def test_powers_6_compares_three_monomials(self, monkeypatch):
        seen = record_targets(monkeypatch)
        report = invariants(factored([("x", 6)], "x^6+y^6"), weights=(1, 1))
        assert len(report.a_action) == 61
        assert seen[0] == ("x^5", True)
        assert compared_in_full(seen) == ["1", "x", "y"]

    def test_polynomial_classes_are_proved_by_linearity(self, monkeypatch):
        # (x^3 + y^3)^2: the classes h, h x, h y, h x y with h = x^3 + y^3,
        # then 1, x, y, x y; the first monomial x^3 of h proves the frame,
        # and every other monomial takes no check
        seen = record_targets(monkeypatch)
        report = invariants(factored([("x^3+y^3", 2)]), weights=(1, 1))
        assert [str(rep) for rep in report.basis_mu] == [
            "x^3 + y^3", "x^4 + x*y^3", "x^3*y + y^4", "x^4*y + x*y^4"
        ]
        for rep, c in report.a_action:
            assert c == Fraction(rep.total_degree() + 2, 6)
        assert seen[0] == ("x^3", True)
        assert compared_in_full(seen) == ["1", "x", "y"]

    def test_a_zero_omega_needs_no_frame(self, monkeypatch):
        # x^2 y^2: omega is 0 at both classes x y and 1, so each is proved
        # by eta = 0 alone, as by the per-class loop, and no frame is run
        seen = record_targets(monkeypatch)
        report = invariants(factored([("x", 2), ("y", 2)]), weights=(1, 1))
        assert [str(rep) for rep, _ in report.a_action] == ["x*y", "1"]
        assert seen == [("x*y", False), ("1", False)]


class TestTorsionFreeWitness:
    def test_sextic_at_order_12(self):
        assert torsion_free_witness(sextic(), 12)

    def test_cross_at_order_10(self):
        assert torsion_free_witness(cross(), 10)

    def test_sextic_under_coordinate_change(self):
        moved = factored([(changed("x"), 3)], changed("x^3+y^3"))
        assert torsion_free_witness(moved, 14)

    def test_window_too_small(self):
        with pytest.raises(InconclusiveError):
            torsion_free_witness(sextic(), 2)


class TestClosedFormWitness:
    def test_cross_gcd_two(self):
        witness = closed_form_witness(cross())
        assert witness == Poly.constant(XY, 1)
        assert (one_form(annihilator_form(cross())) * witness).d().is_zero

    def test_coprime_multiplicities_give_none(self):
        assert closed_form_witness(cross(2, 3)) is None
        assert closed_product_exponents(cross(2, 3)) == []

    def test_x4_y2(self):
        curve = cross(4, 2)
        witness = closed_form_witness(curve)
        assert witness == p("x")
        assert (one_form(annihilator_form(curve)) * witness).d().is_zero

    def test_requires_constant_residual(self):
        with pytest.raises(InputError):
            closed_form_witness(sextic())

    def test_a_witness_that_is_not_closed_is_an_invariant_violation(self):
        # x^4 y^2: h0 = x, and x alpha is closed only for the true alpha
        curve = cross(4, 2)
        a, b = annihilator_form(curve)
        object.__setattr__(curve, "_alpha", (a, b * 2))
        with pytest.raises(RuntimeError, match="predicted witness is not closed$"):
            closed_form_witness(curve)

    def test_corpus(self):
        from math import gcd
        for curve in random_corpus(15, seed=9):
            mults = [m for _, m in curve.factors]
            common = gcd(*mults) if len(mults) > 1 else mults[0]
            witness = closed_form_witness(curve)
            if common > 1:
                assert witness is not None
                assert (one_form(annihilator_form(curve)) * witness).d().is_zero
            else:
                assert witness is None
                assert closed_product_exponents(curve) == []


class TestTransversalMilnor:
    def test_sextic_branch(self):
        assert transversal_milnor(sextic(), 0) == 2

    def test_cross_branches(self):
        assert transversal_milnor(cross(), 0) == 1
        assert transversal_milnor(cross(), 1) == 1

    def test_catches_hidden_multiplicity(self):
        # the residual contributes an extra power of x along the branch
        curve = FactoredCurve.of(XY, [(p("x"), 2)], p("x^2 + x*y^2"))
        # expand = x^3 (x + y^2): branch x has valuation 3, not 2
        assert transversal_milnor(curve, 0) == 2

    def test_degenerate_slice_rejected(self):
        curve = FactoredCurve.of(XY, [(p("x^2"), 2)])
        with pytest.raises(InputError):
            transversal_milnor(curve, 0)

    def test_unknown_branch(self):
        with pytest.raises(InputError):
            transversal_milnor(cross(), 5)


def coefficient_ideal(curve: FactoredCurve) -> IdealGens:
    """(a, b) for the annihilator form alpha = a dx + b dy."""
    return IdealGens.of(XY, annihilator_form(curve))


def reference_cases():
    """The curves of these tests, with their weights where they have one."""
    cases = [(c, None) for c in random_corpus(8)]
    for factors, residual, weights, _ in (
        TestCrossPathConsistency.CASES + TestSaturationTheorem.CHANGES
    ):
        cases.append((factored(factors, residual), weights))
    for factors, residual, _, _ in TestSaturationTheorem.CHANGES:
        moved = [(changed(t), m) for t, m in factors]
        cases.append((factored(moved, changed(residual) if residual else None), None))
    for factors, residual, weights in TestSaturationTheorem.CHAIN_CASES:
        cases.append((factored(factors, residual), weights))
    for factors, _ in NO_CAP_CASES:
        cases.append((factored(factors), None))
    return cases


# unweighted curves whose mu lay past the old jet mu's cap (deg f + 2 > 24,
# or no two equal orders below it); mu is the colength of (a, b)
NO_CAP_CASES = [
    ([("y", 3), ("(x+y^2)^2-y^5", 3)], (7, 14, 21)),
    ([("x", 3), ("x^2-y^5", 2), ("x^2+y^5", 2)], (46, 54, 100)),
    ([("x", 3), ("(x+y^2)^2-y^5", 2), ("(x+y^2)^2+y^5", 2)], (42, 48, 90)),
]


class TestReferenceMu:
    """The pipeline's mu, the colength of (a, b) by ``local_quotient``,
    against the test-only reference (conftest ``mu``: (h) and J compared
    slice by slice, or jet by jet under the heuristic stop rule)."""

    @pytest.mark.parametrize("curve,weights", reference_cases(), ids=str)
    def test_reference_agrees_where_it_concludes(self, curve, weights):
        f = curve.expand()
        h = curve.multiplicity_cofactor()
        value = local_quotient(coefficient_ideal(curve))[0]
        for ws in [None] + ([WeightSystem.for_poly(f, weights)] if weights else []):
            dim, basis = local_quotient(coefficient_ideal(curve), ws)
            assert dim == value
            try:
                reference = mu(f, IdealGens.of(XY, [h]), ws)
            except InconclusiveError:
                assert ws is None  # only the jet reference has a cap
                continue
            assert reference.value == value
            if ws is not None and len(h.terms) == 1:
                # monomial h: the reference picks exactly the classes h x^m
                moved = {h * Poly.monomial(XY, m) for m in basis}
                assert set(reference.basis) == moved

    @pytest.mark.parametrize("factors,expected", NO_CAP_CASES, ids=str)
    def test_jet_mu_reads_no_cap(self, factors, expected):
        curve = factored(factors)
        report = invariants(curve)
        assert report.mu == expected[0] == torsion_length(coefficient_ideal(curve))
        if expected[1] is not None:
            assert (report.mu, report.nu, report.rank) == expected


def betti_cases():
    """Line, cusp and coordinate-change curves with their pinned rank, each
    graded, jet and moved by x -> x + y^2."""
    cases = []
    for factors, residual, weights, expected in (
        TestCrossPathConsistency.CASES + TestSaturationTheorem.CHANGES
    ):
        rank = expected[2]
        moved = [(changed(t), m) for t, m in factors]
        cases += [
            (factored(factors, residual), weights, rank),
            (factored(factors, residual), None, rank),
            (factored(moved, changed(residual) if residual else None), None, rank),
        ]
    return cases


def scan_count_cases():
    """The corpus curves, graded and jet, and the jet curves of
    ``betti_cases`` moved by x -> x + y^2, whose moved parts are
    homogeneous in no weight."""
    cases = list(corpus_cases())
    for curve, weights, rank in betti_cases()[2::3]:
        cases.append(pytest.param(curve, weights, {"rank": rank}, id=f"moved-{curve}"))
    return cases


class TestMilnorFibreBetti:
    """b_1 of the Milnor fibre by A'Campo's formula, the target of the nu
    scans: closed forms, and the ranks these tests pinned before nu read it."""

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 6), (5, 3)])
    @pytest.mark.parametrize("weights", [(1, 1), None])
    def test_monomial_closed_form(self, a, b, weights):
        # {x^a y^b = 1} is gcd(a, b) copies of C^*
        assert pinned_route_betti(factored([("x", a), ("y", b)]), weights) == gcd(a, b)

    @pytest.mark.parametrize(
        "curve,weights,expected",
        [
            (sextic(), (1, 1), 13),
            (sextic(), None, 13),
            (factored([("y", 3), ("x^2-y^5", 3)]), (5, 2), 21),
            (factored([("y", 3), ("x^2-y^5", 3)]), None, 21),
        ],
        ids=["sextic-graded", "sextic-jet", "y3-cusp3-graded", "y3-cusp3-jet"],
    )
    def test_golden_values(self, curve, weights, expected):
        assert pinned_route_betti(curve, weights) == expected

    @pytest.mark.parametrize("curve,weights,rank", betti_cases(), ids=str)
    def test_equals_pinned_rank(self, curve, weights, rank):
        assert pinned_route_betti(curve, weights) == rank

    @given(weighted_curves())
    def test_graded_closed_forms_equal_the_scans(self, curve_and_weights):
        assert_graded_betti_is_scanned(*curve_and_weights)

    @pytest.mark.parametrize("curve, weights, reference", scan_count_cases())
    def test_b1_scans_only_the_closed_form_misses(self, monkeypatch, curve, weights, reference):
        # graded and jet b_1 take one route: it scans each singular part
        # homogeneous in no weight, and each pair of parts that share no
        # weight (a monomial shares every weight), so a graded curve scans
        # nothing; the corpus curves are valid, so each gcd certificate holds
        calls = []

        def counting(I):
            calls.append(I)
            return local_colength(I)

        monkeypatch.setattr("brieskorn.curve.local_colength", counting)
        invariants(curve, weights)
        assert len(calls) == closed_form_misses(curve_parts(curve))

    def test_the_pinned_curves_take_both_routes(self):
        # every part of every jet corpus curve is homogeneous in a weight
        # its partners share, so the pin above counts no scan there; the
        # moved curves scan their moved parts
        counts = [
            closed_form_misses(curve_parts(param.values[0]))
            for param in scan_count_cases()
            if param.values[1] is None
        ]
        assert 0 in counts and max(counts) > 0


def pinned_route_betti(curve: FactoredCurve, weights) -> int:
    """b_1 as the graded report prints it, or as jet b_1 reads it."""
    return milnor_fibre_betti(curve) if weights is None else invariants(curve, weights).betti_n


def curve_parts(curve: FactoredCurve) -> list[Poly]:
    """The reduced parts of A'Campo's formula: the branches and a
    nonconstant residual."""
    return [u for u, _ in curve.factors] + ([] if curve.residual_is_constant else [curve.residual])


def closed_form_misses(parts: list[Poly]) -> int:
    """The colength scans of b_1 on valid parts: each singular part
    homogeneous in no weight, and each pair of parts that share none."""
    bound = max(g.total_degree() for g in parts)
    weights = {g: homogeneous_weights(g, bound) for g in parts}
    count = sum(not (jacobian_ideal(g).contains_unit() or weights[g]) for g in parts)
    return count + sum(not weights[g] & weights[g2] for g, g2 in itertools.combinations(parts, 2))


def assert_graded_betti_is_scanned(curve: FactoredCurve, weights):
    """b_1 equals b_1 of the colength scans alone, and per part the
    Milnor-Orlik number and per pair the weighted Bezout number equal the
    weighted colength scans."""
    ws = WeightSystem.for_poly(curve.expand(), weights)
    assert milnor_fibre_betti(curve) == scanned_betti(curve)
    (wx, wy), scale = ws.integer_scaled()
    parts = curve_parts(curve)
    degree = {g: g.quasi_homogeneous_degree(ws.weights) * scale for g in parts}
    for g in parts:
        d = degree[g]
        assert (d - wx) * (d - wy) == wx * wy * local_quotient(jacobian_ideal(g), ws)[0]
    for g, g2 in itertools.combinations(parts, 2):
        assert degree[g] * degree[g2] == wx * wy * local_quotient(IdealGens.of(XY, [g, g2]), ws)[0]


# primitive weights, with (1, 1) and both orders of (2, 3)
PART_WEIGHTS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]


@st.composite
def weighted_parts(draw, weights=None, powers=st.integers(0, 2), roots=(1, -1, 2, Fraction(1, 2))):
    """A part x^a y^b c prod_k (x^w_y - r_k y^w_x), homogeneous in the
    primitive weights w, with a, b from ``powers``, up to three roots r_k
    from the pool ``roots``, so that repeated roots are common, and a
    constant c; never a constant."""
    wx, wy = weights or draw(st.sampled_from(PART_WEIGHTS))
    a, b = draw(powers), draw(powers)
    drawn = draw(st.lists(st.sampled_from(roots), max_size=3))
    if a + b + len(drawn) == 0:
        a = 1
    g = Poly(XY, {(a, b): draw(st.sampled_from([1, -2, Fraction(3, 2)]))})
    for r in drawn:
        g = g * Poly(XY, {(wy, 0): 1, (0, wx): -r})
    return g


@st.composite
def weighted_pairs(draw):
    """Two parts homogeneous in one drawn weight, with powers of x and y
    rare and a wider root pool, so that both shared and coprime pairs are
    common."""
    weights = draw(st.sampled_from(PART_WEIGHTS))
    powers, roots = st.sampled_from([0, 0, 0, 1]), (1, -1, 2, -3, Fraction(1, 2))
    return tuple(draw(weighted_parts(weights, powers, roots)) for _ in range(2))


def scanned(I: IdealGens) -> Optional[int]:
    """The colength scan of I, or None when it refuses (I not isolated)."""
    try:
        return local_colength(I)
    except InputError:
        return None


class TestWeightedClosedForms:
    """b_1 reads Milnor-Orlik and weighted Bezout off each part, and
    pair, homogeneous in one weight, once an integer gcd certifies the
    hypothesis; the scans decide every other part and pair."""

    @given(weighted_parts())
    def test_closed_milnor_number_is_the_scan_or_refused_with_it(self, g):
        shape = _weighted_shape(g)
        assert shape is not None
        J = jacobian_ideal(g)
        assert _closed_milnor(shape) == (0 if J.contains_unit() else scanned(J))

    @given(weighted_pairs())
    def test_closed_meet_is_the_scan_or_refused_with_it(self, pair):
        g, g2 = pair
        meet = _closed_meet(_weighted_shape(g), _weighted_shape(g2))
        assert meet == scanned(IdealGens.of(XY, [g, g2]))

    @pytest.mark.parametrize(
        "text, weights",
        [
            ("x", None),
            ("x*y", None),
            ("x^2-y^3", (3, 2)),
            ("x*(y^2-x^5)", (2, 5)),
            ("x^3+y^3", (1, 1)),
            ("x+y^2", (2, 1)),
        ],
    )
    def test_shape_weight(self, text, weights):
        assert _weighted_shape(p(text))[0] == weights

    @pytest.mark.parametrize("text", ["x^2+y^3+x*y", "x+x^2", "y-x*y", "x^2+y^2+x^3"])
    def test_no_positive_weight_grades_a_mixed_part(self, text):
        assert _weighted_shape(p(text)) is None

    @pytest.mark.parametrize(
        "factors, residual",
        [
            ([("x^2-y^3", 2), ("x", 2)], None),
            ([("x", 2), ("y", 3)], "x^2+y^5"),
            ([("x^2+y^2", 3)], "x^4-y^4+x^2*y^2"),
        ],
    )
    def test_jet_betti_equals_the_scans(self, factors, residual):
        curve = factored(factors, residual)
        assert milnor_fibre_betti(curve) == scanned_betti(curve)

    @pytest.mark.parametrize(
        "factors, residual, scans, numbers",
        [
            ([("x", 3), ("y", 2)], "x^2+y^3", 0, (12, 8, 20, 20)),
            ([("x+y^2", 2), ("x-y", 2)], None, 1, (1, 1, 2, 2)),
        ],
        ids=["one-weight", "no-shared-weight"],
    )
    def test_jet_numbers_and_their_scans(self, monkeypatch, factors, residual, scans, numbers):
        # every part of the first curve is homogeneous in (3, 2), so b_1
        # scans nothing, as with the weights (3, 2); x + y^2 and x - y
        # are each homogeneous, in (2, 1) and (1, 1), so only their pair is
        # scanned
        calls = []

        def counting(I):
            calls.append(I)
            return local_colength(I)

        monkeypatch.setattr("brieskorn.curve.local_colength", counting)
        report = invariants(factored(factors, residual))
        assert (report.mu, report.nu, report.rank, report.betti_n) == numbers
        assert len(calls) == scans

    @given(
        st.lists(st.integers(-6, 6), max_size=5),
        st.lists(st.integers(-6, 6), max_size=5),
        st.lists(st.integers(-3, 3), max_size=3),
    )
    def test_gcd_is_the_integer_gcd(self, p1, p2, common):
        # a shared factor and shared content make nontrivial gcds common
        def trim(v):
            while v and not v[-1]:
                v.pop()
            return v

        def times(u, v):
            out = [0] * (len(u) + len(v) - 1) if u and v else []
            for i, c in enumerate(u):
                for j, d in enumerate(v):
                    out[i + j] += c * d
            return trim(out)

        a, b = times(trim(p1), trim(common)) or trim(p1), times(trim(p2), trim(common)) or trim(p2)
        assert _gcd(a, b) == reference_integer_gcd(a, b) == _gcd(b, a)


def jet_corpus() -> list[FactoredCurve]:
    """The curves of the benchmark corpus's jet workload."""
    corpus = Path(__file__).resolve().parents[1] / "bench" / "corpus.json"
    curves = []
    for entry in json.loads(corpus.read_text(encoding="utf-8"))["jet"]:
        factors = [f.rsplit(":", 1) for f in entry["factors"].split(",")]
        curves.append(factored([(t, int(m)) for t, m in factors], entry.get("residual")))
    return curves


def unit_homogeneous(curve: FactoredCurve) -> bool:
    """Whether f is homogeneous in unit weights, read off its terms; then
    so are h, alpha = df / h and every row of the jet scans, and
    conversely, since df = h alpha."""
    return len({sum(e) for e in curve.expand().terms}) == 1


def nu_reference(curve: FactoredCurve, target: int):
    """The jet nu basis of the orders 10, 12, ... (``nu_jet_reference``)."""
    sat = IdealGens.of(XY, [curve.multiplicity_cofactor()])
    return nu_jet_reference(sat, annihilator_field(curve), target)


def nu_exponents(report) -> list:
    return sorted(e for m in report.basis_nu for e in m.terms)


@pytest.fixture
def built_moduli(monkeypatch) -> list:
    """The modulus of each ``_JetCounts`` built while the test runs, None
    for an exact count."""
    moduli = []
    init = _JetCounts.__init__

    def recording(counts, *args, **kwargs):
        init(counts, *args, **kwargs)
        moduli.append(counts.modulus)

    monkeypatch.setattr(_JetCounts, "__init__", recording)
    return moduli


@pytest.fixture
def span_orders(monkeypatch) -> list:
    """The order of each greatest-term span built while the test runs."""
    orders = []
    greatest_terms = _JetCounts._greatest_terms

    def recording(counts, k):
        orders.append(k)
        return greatest_terms(counts, k)

    monkeypatch.setattr(_JetCounts, "_greatest_terms", recording)
    return orders


class TestJetNuScan:
    """The jet nu scan of the orders 1, 2, ..., whose order is picked by a
    count modulo a prime and certified by the exact span there, or counted
    exactly on input homogeneous in unit weights, against the scan of the
    orders 10, 12, ... it replaced (conftest ``nu_jet_reference``)."""

    @pytest.mark.parametrize("curve", jet_corpus(), ids=str)
    def test_basis_equals_the_order_ten_scan(self, curve):
        report = invariants(curve)
        reference = nu_reference(curve, report.nu)
        assert reference is not None and len(reference) == report.nu
        assert nu_exponents(report) == sorted(reference)

    @pytest.mark.parametrize("curve", jet_corpus()[::3], ids=str)
    def test_twisted_count_is_nu_at_every_order(self, curve):
        # the count kernel with the twisted images gives nu_N at every N,
        # exactly over the integers; modulo the predictor's prime it never
        # counts less
        sat = IdealGens.of(XY, [curve.multiplicity_cofactor()])
        field = annihilator_field(curve)
        [image] = exact_form_images(annihilator_form(curve)).values()
        exact = _JetCounts(sat, image, cap=12)
        modular = _JetCounts(sat, image, cap=12, modulus=_PREDICTOR_MODULUS)
        for order in range(1, 13):
            nu_order = len(nu_jet_basis(sat, field, order))
            assert exact.quotient_dim(order) == nu_order
            assert modular.quotient_dim(order) >= nu_order

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_a_small_prime_changes_no_report(self, monkeypatch, built_moduli, modulus):
        # the predictor runs on every curve homogeneous in no unit weights;
        # mod 2 or 3 its count runs ahead of nu_N on x^4 (x^4 + y^4) moved
        # by x -> x + y^2, so the exact span is built at an order short of
        # the stop, and only it may decide
        monkeypatch.setattr("brieskorn.local_algebra._PREDICTOR_MODULUS", modulus)
        short = []
        monkeypatch.setattr(
            "brieskorn.local_algebra._reached",
            lambda found, target: short.append(found < target) or _reached(found, target),
        )
        moved = factored([("x+y^2", 4)], "(x+y^2)^4+y^4")
        for curve in jet_corpus() + [moved]:
            built_moduli.clear()
            short.clear()
            report = invariants(curve)
            assert (modulus in built_moduli) is not unit_homogeneous(curve)
            reference = nu_reference(curve, milnor_fibre_betti(curve) - report.mu)
            assert report.nu == len(reference)
            assert nu_exponents(report) == sorted(reference)
        assert short == [True, False]

    @pytest.mark.parametrize("curve", jet_corpus(), ids=str)
    def test_target_past_nu_is_inconclusive(self, monkeypatch, built_moduli, curve):
        # a b_1 + 1 mutant: no order reaches the target, the cap ends the
        # scan, over GF(p) on every curve homogeneous in no unit weights
        betti = milnor_fibre_betti(curve)
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti", lambda c: betti + 1
        )
        with pytest.raises(InconclusiveError, match="did not reach the target nu") as info:
            invariants(curve)
        assert info.value.context["jet_cap"] == 24
        assert (_PREDICTOR_MODULUS in built_moduli) is not unit_homogeneous(curve)


@st.composite
def unit_homogeneous_argv(draw) -> list[str]:
    """``invariants`` arguments of a curve homogeneous in (1, 1), with no
    weights: one to three branches of the pool x, y, x - lam y, each of
    multiplicity 2 or 3, and sometimes a residual, x^2 + y^2, x^3 + y^3 or
    a line of the pool (then often invalid, which both routes refuse)."""
    lines = [p("x"), p("y")] + [p("x") - p("y") * lam for lam in ORACLE_LAMBDAS]
    pool = [str(line) for line in lines]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    argv = ["invariants", "--factors", ",".join(f"{t}:{draw(st.integers(2, 3))}" for t in chosen)]
    residual = draw(st.sampled_from([None, "x^2+y^2", "x^3+y^3", *pool]))
    if residual is not None:
        argv += ["--residual", residual]
    return argv + ["--vars", "x,y", "--format", "json"]


def cli_run(argv) -> tuple[int, str]:
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


class TestUnitHomogeneousJetInput:
    """Jet input homogeneous in unit weights is counted exactly: its mu and
    nu scans build no GF(p) count and no greatest-term span, and read the
    greedy basis off the count's non-leads."""

    def test_only_curves_homogeneous_in_no_unit_weights_build_the_predictor_and_the_span(
        self, built_moduli, span_orders
    ):
        homogeneous = 0
        for curve in jet_corpus():
            built_moduli.clear()
            span_orders.clear()
            invariants(curve)
            if unit_homogeneous(curve):
                homogeneous += 1
                assert built_moduli and set(built_moduli) == {None}
                assert span_orders == []
            else:
                assert _PREDICTOR_MODULUS in built_moduli and span_orders
        assert homogeneous == 14
        # the mu scan of an isolated germ z^k, (k z^(k-1)), is graded too
        span_orders.clear()
        assert milnor_isolated(parse_polynomial("z^4", ("z",))).milnor == 3
        assert span_orders == []

    @given(unit_homogeneous_argv())
    def test_reports_what_the_predictor_path_reports(self, argv):
        graded = cli_run(argv)
        with pytest.MonkeyPatch.context() as mp:
            # every count homogeneous in no weights: the mu scan reads the
            # greatest-term span and the nu scan runs the GF(p) predictor
            mp.setattr("brieskorn.local_algebra._homogeneous", lambda I, image, w: False)
            predicted = cli_run(argv)
        assert graded[0] == predicted[0]
        if graded[0] == EXIT_OK:
            first, second = (json.loads(text)["report"] for _, text in (graded, predicted))
            for field in ("mu", "nu", "basis_mu", "basis_nu"):
                assert first[field] == second[field]
        assert graded == predicted
