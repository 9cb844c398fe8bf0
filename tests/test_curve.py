"""The plane-curve pipeline: annihilator data, hypotheses, invariants,
a-action, witnesses, and transversal Milnor numbers."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from brieskorn.curve import (
    FactoredCurve,
    _action_certificate,
    _action_target,
    _exact_form_images,
    a_action,
    a_action_coefficient,
    annihilator_field,
    annihilator_form,
    check_hypotheses,
    closed_form_witness,
    invariants,
    milnor_fibre_betti,
    torsion_free_witness,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.forms import DiffForm
from brieskorn.groebner import torsion_length
from brieskorn.linalg import Span
from brieskorn.local_algebra import (
    IdealGens,
    _JetCounts,
    _PREDICTOR_MODULUS,
    _ShiftedImages,
    _twisted_raises,
    common_denominator,
    integer_terms,
    jacobian_ideal,
    local_quotient,
    monomials_below,
    monomials_of_weighted_degree,
)
from brieskorn.poly import Poly, WeightSystem, parse_polynomial
from brieskorn.suspension import milnor_isolated

from conftest import (
    GradedIdeal,
    closed_product_exponents,
    mu,
    nu_jet_basis,
    nu_jet_reference,
    saturate_at_origin,
    transversal_milnor,
    wedge,
)

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


class TestAnnihilatorForm:
    def test_sextic(self):
        alpha = annihilator_form(sextic())
        assert alpha == DiffForm(XY, 1, {(0,): p("6*x^3 + 3*y^3"), (1,): p("3*x*y^2")})
        f = sextic().expand()
        df = DiffForm(XY, 1, {(0,): f.derivative("x"), (1,): f.derivative("y")})
        assert df == alpha * p("x^2")

    def test_cross(self):
        alpha = annihilator_form(cross())
        assert alpha == DiffForm(XY, 1, {(0,): p("2*y"), (1,): p("2*x")})

    def test_two_branch_homogeneous(self):
        c = FactoredCurve.of(XY, [(p("x+y"), 2), (p("x-y"), 3)])
        alpha = annihilator_form(c)
        u, v = p("x+y"), p("x-y")
        expected = DiffForm(
            XY,
            1,
            {
                (0,): v * 2 + u * 3,
                (1,): v * 2 + u * (-3),
            },
        )
        assert alpha == expected
        f = c.expand()
        df = DiffForm(XY, 1, {(0,): f.derivative("x"), (1,): f.derivative("y")})
        assert df == alpha * (u * v**2)

    def test_factorization_on_random_corpus(self):
        for curve in random_corpus(12, seed=5):
            alpha = annihilator_form(curve)
            f = curve.expand()
            df = DiffForm(XY, 1, {(0,): f.derivative("x"), (1,): f.derivative("y")})
            assert df == alpha * curve.multiplicity_cofactor()

    def test_wedge_with_df_vanishes(self):
        curve = sextic()
        alpha = annihilator_form(curve)
        f = curve.expand()
        df = DiffForm(XY, 1, {(0,): f.derivative("x"), (1,): f.derivative("y")})
        assert wedge(df, alpha).is_zero

    def test_exact_multiple_lands_in_saturation(self):
        # d(h alpha) for h = x^2 y^2 lies in (x^2) times the top forms
        alpha = annihilator_form(sextic())
        two_form = (alpha * p("x^2*y^2")).d()
        coeff = two_form.coefficient((0, 1))
        assert coeff.divide_exact(p("x^2")) is not None


class TestAnnihilatorField:
    def test_sextic_proportional_to_reference(self):
        field = annihilator_field(sextic())
        assert field.coefficients == (p("3*x*y^2"), p("-3*(2*x^3+y^3)"))

    def test_kills_f_on_corpus(self):
        for curve in random_corpus(12, seed=6):
            field = annihilator_field(curve)
            assert field.apply(curve.expand()).is_zero

    def test_dual_of_cross(self):
        field = annihilator_field(cross())
        assert field.coefficients == (p("2*x"), p("-2*y"))


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
        # check_hypotheses, annihilator_field and a_action share one alpha
        curve = factored([("x", 2), ("y", 2), ("x+y", 2), ("x-y", 2)])
        calls = []

        def counted(c):
            calls.append(c)
            return annihilator_form(c)

        monkeypatch.setattr("brieskorn.curve.annihilator_form", counted)
        rep = invariants(curve, weights=weights)
        assert len(calls) == 1
        assert (rep.mu, rep.nu, rep.rank) == (9, 9, 18)
        if weights is not None:
            alpha = annihilator_form(curve)
            assert a_action(curve.expand(), alpha, rep.weights, rep.basis) == rep.a_action

    def test_non_quasi_homogeneous_weights_rejected(self):
        c = FactoredCurve.of(XY, [(p("x"), 2)], p("x^2 + y^3"))
        with pytest.raises(InputError):
            invariants(c, weights=(1, 1))

    def test_multiple_smooth_branch_degenerates_gracefully(self):
        # f = y^2: everything is killed by the annihilating flow
        rep = invariants(FactoredCurve.of(XY, [(p("y"), 2)]), weights=(1, 1))
        assert (rep.mu, rep.nu, rep.rank) == (0, 0, 0)


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
        assert _action_certificate(f, alpha, ws)(p("1"), Fraction(1, 3))
        assert not _action_certificate(f, alpha, ws)(p("1"), Fraction(1, 2))

    def test_cross_values(self):
        f, alpha = cross().expand(), annihilator_form(cross())
        ws = WeightSystem.for_poly(f, (1, 1))
        assert _action_certificate(f, alpha, ws)(p("1"), Fraction(1, 2))
        assert _action_certificate(f, alpha, ws)(p("x*y"), Fraction(1))
        assert not _action_certificate(f, alpha, ws)(p("1"), Fraction(1, 3))

    def test_shared_degree_span_still_checks_each_representative(self, monkeypatch):
        # x^2, x*y and y^2 share one weighted degree and one coefficient;
        # a wrong coefficient on the second of them must still be caught
        f, alpha = sextic().expand(), annihilator_form(sextic())
        ws = WeightSystem.for_poly(f, (1, 1))
        basis = [p("x^2"), p("x*y"), p("y^2")]
        assert [c for _, c in a_action(f, alpha, ws, basis)] == [Fraction(2, 3)] * 3

        def wrong_on_xy(weights, rep):
            shift = Fraction(1, 7) if rep == p("x*y") else 0
            return a_action_coefficient(weights, rep) + shift

        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", wrong_on_xy)
        with pytest.raises(InputError, match=r"monomial x\*y"):
            a_action(f, alpha, ws, basis)

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
            assert a_action_coefficient(ws, rep_poly) > 0


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


def reference_oracle(f: Poly, alpha: DiffForm, ws: WeightSystem):
    """Membership of  f m vol - c df ^ xi  in the span of the exact forms
    d(eta ^ alpha) of its weighted degree, with Poly-built targets: the
    independent reference for ``_action_certificate``, deciding every c."""
    n = len(f.variables)
    int_weights, scale = ws.integer_scaled()
    images = [
        (sum(int_weights[j] for j in index_set), image)
        for index_set, image in _exact_form_images(alpha)
    ]
    alpha_degree = form_weighted_degree(alpha, ws.weights)
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
        holds = _action_certificate(f, alpha, ws)
        reference = reference_oracle(f, alpha, ws)
        scale = common_denominator(f)
        f_terms = integer_terms(f, scale)
        fx0_terms = integer_terms(f.derivative("x"), scale)
        for rep in report.basis:
            c = a_action_coefficient(ws, rep)
            for coefficient in (c, c + Fraction(1, 7)):
                target = _action_target(f_terms, fx0_terms, rep, coefficient)
                assert is_positive_multiple(target, reference_target(f, rep, coefficient))
                assert holds(rep, coefficient) == (coefficient == c)
            assert reference(rep, c)

    @pytest.mark.parametrize("text,variables", ISOLATED_ORACLE_GERMS)
    def test_isolated_germs_share_the_oracle(self, text, variables):
        # milnor_isolated proves its coefficients through the same
        # certificate, with alpha = df, in two and three variables
        germ = milnor_isolated(parse_polynomial(text, variables))
        f = germ.poly
        alpha = DiffForm.from_poly(f).d()
        holds = _action_certificate(f, alpha, germ.weights)
        reference = reference_oracle(f, alpha, germ.weights)
        assert len(germ.a_coefficients) == germ.milnor
        for exps, c in germ.a_coefficients:
            m = Poly.monomial(variables, exps)
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
        holds = _action_certificate(curve.expand(), annihilator_form(curve), ws)
        assert [rep for rep, _ in report.a_action] == list(report.basis)
        for rep, c in report.a_action:
            assert c == a_action_coefficient(ws, rep) and holds(rep, c)

    @pytest.mark.parametrize("text,variables", ISOLATED_ORACLE_GERMS)
    def test_isolated_germs_need_no_span(self, text, variables):
        germ = milnor_isolated(parse_polynomial(text, variables))
        f = germ.poly
        holds = _action_certificate(f, DiffForm.from_poly(f).d(), germ.weights)
        assert len(germ.a_coefficients) == germ.milnor
        for exps, c in germ.a_coefficients:
            m = Poly.monomial(variables, exps)
            assert c == a_action_coefficient(germ.weights, m) and holds(m, c)

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
            alpha = DiffForm.from_poly(f).d()
        else:
            f, alpha = curve().expand(), annihilator_form(curve())
        ws = WeightSystem.for_poly(f, weights)
        holds = _action_certificate(f, alpha, ws)
        reference = reference_oracle(f, alpha, ws)
        wrong_members = 0
        for exps in monomials_below(len(variables), 7):
            m = Poly.monomial(variables, exps)
            c_star = a_action_coefficient(ws, m)
            for c in (c_star, c_star + Fraction(1, 7), c_star - 1):
                proved, member = holds(m, c), reference(m, c)
                assert proved == (c == c_star), (exps, c)
                assert member or not proved, (exps, c)
                wrong_members += member and c != c_star
        assert wrong_members > 0

    def test_witness_needs_an_exact_cofactor(self):
        # alpha = x dy - y dx does not divide df of x^2 + y^2, which no
        # caller passes: df = h alpha holds by construction
        f = p("x^2 + y^2")
        alpha = DiffForm(XY, 1, {(0,): -p("y"), (1,): p("x")})
        ws = WeightSystem.for_poly(f, (1, 1))
        with pytest.raises(RuntimeError, match="internal invariant violation"):
            _action_certificate(f, alpha, ws)


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
        assert (annihilator_form(cross()) * witness).d().is_zero

    def test_coprime_multiplicities_give_none(self):
        assert closed_form_witness(cross(2, 3)) is None
        assert closed_product_exponents(cross(2, 3)) == []

    def test_x4_y2(self):
        curve = cross(4, 2)
        witness = closed_form_witness(curve)
        assert witness == p("x")
        assert (annihilator_form(curve) * witness).d().is_zero

    def test_requires_constant_residual(self):
        with pytest.raises(InputError):
            closed_form_witness(sextic())

    def test_corpus(self):
        from math import gcd
        for curve in random_corpus(15, seed=9):
            mults = [m for _, m in curve.factors]
            common = gcd(*mults) if len(mults) > 1 else mults[0]
            witness = closed_form_witness(curve)
            if common > 1:
                assert witness is not None
                assert (annihilator_form(curve) * witness).d().is_zero
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
    alpha = annihilator_form(curve)
    return IdealGens.of(XY, [alpha.coefficient((i,)) for i in range(2)])


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


class TestMilnorFibreBetti:
    """b_1 of the Milnor fibre by A'Campo's formula, the target of the nu
    scans: closed forms, and the ranks these tests pinned before nu read it."""

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 6), (5, 3)])
    @pytest.mark.parametrize("weights", [(1, 1), None])
    def test_monomial_closed_form(self, a, b, weights):
        # {x^a y^b = 1} is gcd(a, b) copies of C^*
        curve = factored([("x", a), ("y", b)])
        ws = WeightSystem.for_poly(curve.expand(), weights) if weights else None
        assert milnor_fibre_betti(curve, ws) == gcd(a, b)

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
        ws = WeightSystem.for_poly(curve.expand(), weights) if weights else None
        assert milnor_fibre_betti(curve, ws) == expected

    @pytest.mark.parametrize("curve,weights,rank", betti_cases(), ids=str)
    def test_equals_pinned_rank(self, curve, weights, rank):
        ws = WeightSystem.for_poly(curve.expand(), weights) if weights else None
        assert milnor_fibre_betti(curve, ws) == rank


def jet_corpus() -> list[FactoredCurve]:
    """The curves of the benchmark corpus's jet workload."""
    corpus = Path(__file__).resolve().parents[1] / "bench" / "corpus.json"
    curves = []
    for entry in json.loads(corpus.read_text(encoding="utf-8"))["jet"]:
        factors = [f.rsplit(":", 1) for f in entry["factors"].split(",")]
        curves.append(factored([(t, int(m)) for t, m in factors], entry.get("residual")))
    return curves


class TestJetNuScan:
    """The jet nu scan of the orders 1, 2, ..., whose order is picked by a
    count modulo a prime and certified by the exact span there, against the
    scan of the orders 10, 12, ... it replaced (conftest
    ``nu_jet_reference``)."""

    @staticmethod
    def reference(curve: FactoredCurve, target: int):
        sat = IdealGens.of(XY, [curve.multiplicity_cofactor()])
        return nu_jet_reference(sat, annihilator_field(curve), target)

    @staticmethod
    def nu_exponents(report) -> list:
        return sorted(e for m in report.basis_nu for e in m.terms)

    @pytest.mark.parametrize("curve", jet_corpus(), ids=str)
    def test_basis_equals_the_order_ten_scan(self, curve):
        report = invariants(curve)
        reference = self.reference(curve, report.nu)
        assert reference is not None and len(reference) == report.nu
        assert self.nu_exponents(report) == sorted(reference)

    @pytest.mark.parametrize("curve", jet_corpus()[::3], ids=str)
    def test_twisted_count_is_nu_at_every_order(self, curve):
        # the count kernel with the twisted images gives nu_N at every N,
        # exactly over the integers; modulo the predictor's prime it never
        # counts less
        sat = IdealGens.of(XY, [curve.multiplicity_cofactor()])
        field = annihilator_field(curve)
        div = field.divergence()
        image = _ShiftedImages(field.coefficients, div)
        drop = max(0, -min(_twisted_raises(field, div, (1, 1))))
        exact = _JetCounts(sat, image, drop, cap=12)
        modular = _JetCounts(sat, image, drop, cap=12, modulus=_PREDICTOR_MODULUS)
        for order in range(1, 13):
            nu_order = len(nu_jet_basis(sat, field, order))
            assert exact.quotient_dim(order) == nu_order
            assert modular.quotient_dim(order) >= nu_order

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_a_small_prime_changes_no_report(self, monkeypatch, modulus):
        # the count runs ahead of nu_N mod 2 or 3, so the exact span is
        # built at orders short of the stop, and only it may decide
        monkeypatch.setattr("brieskorn.local_algebra._PREDICTOR_MODULUS", modulus)
        for curve in jet_corpus():
            report = invariants(curve)
            reference = self.reference(curve, milnor_fibre_betti(curve) - report.mu)
            assert report.nu == len(reference)
            assert self.nu_exponents(report) == sorted(reference)

    @pytest.mark.parametrize("curve", jet_corpus(), ids=str)
    def test_target_past_nu_is_inconclusive(self, monkeypatch, curve):
        # a b_1 + 1 mutant: no order reaches the target, the cap ends the scan
        betti = milnor_fibre_betti(curve)
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti", lambda c, ws=None: betti + 1
        )
        with pytest.raises(InconclusiveError, match="did not reach the target nu") as info:
            invariants(curve)
        assert info.value.context["jet_cap"] == 24
