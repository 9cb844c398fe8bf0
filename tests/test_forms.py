"""Differential forms and vector fields, with the test-side exterior
product, twisted action and dual form as references."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brieskorn.errors import InputError
from brieskorn.forms import DiffForm, VectorField, field_from_one_form
from brieskorn.poly import Poly, parse_polynomial

from conftest import apply_twisted, polys, wedge

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def one_form(a_text, b_text):
    return DiffForm(XY, 1, {(0,): p(a_text), (1,): p(b_text)})


class TestExteriorDerivative:
    def test_closed_form(self):
        assert one_form("2*y", "2*x").d().is_zero

    def test_d_x_dy(self):
        form = DiffForm(XY, 1, {(1,): p("x")})
        assert form.d() == DiffForm(XY, 2, {(0, 1): p("1")})

    def test_degree_rises(self):
        form = DiffForm.from_poly(p("x*y"))
        assert form.d().degree == 1

    @given(polys(max_degree=3, max_terms=3))
    def test_dd_zero_on_functions(self, poly):
        assert DiffForm.from_poly(poly).d().d().is_zero

    @given(polys(max_degree=2, max_terms=2), polys(max_degree=2, max_terms=2))
    def test_dd_zero_on_one_forms(self, a, b):
        form = DiffForm(XY, 1, {(0,): a, (1,): b})
        assert form.d().d().is_zero

    @given(
        st.lists(polys(XYZ, max_degree=2, max_terms=2), min_size=3, max_size=3)
    )
    def test_dd_zero_three_variables(self, coeffs):
        form = DiffForm(XYZ, 1, {(i,): c for i, c in enumerate(coeffs)})
        assert form.d().d().is_zero


class TestWedge:
    def test_dx_wedge_dy(self):
        dx = DiffForm(XY, 1, {(0,): p("1")})
        dy = DiffForm(XY, 1, {(1,): p("1")})
        assert wedge(dx, dy) == DiffForm(XY, 2, {(0, 1): p("1")})
        assert wedge(dx, dx).is_zero
        assert wedge(dy, dx) == DiffForm(XY, 2, {(0, 1): p("-1")})

    @given(polys(max_degree=2, max_terms=2), polys(max_degree=2, max_terms=2))
    def test_odd_square_zero(self, a, b):
        form = DiffForm(XY, 1, {(0,): a, (1,): b})
        assert wedge(form, form).is_zero

    def test_index_normalization_with_sign(self):
        permuted = DiffForm(XYZ, 2, {(2, 0): p("x", XYZ)})
        sorted_form = DiffForm(XYZ, 2, {(0, 2): p("-x", XYZ)})
        assert permuted == sorted_form
        assert DiffForm(XYZ, 2, {(1, 1): p("x", XYZ)}).is_zero


class TestVectorField:
    def test_divergence_examples(self):
        v = VectorField(XY, (p("x*y^2"), p("-(2*x^3+y^3)")))
        assert v.divergence() == p("-2*y^2")
        assert VectorField(XY, (p("x"), p("-y"))).divergence().is_zero
        assert VectorField.zero(XY).divergence().is_zero

    def test_twisted_action_closed_formula(self):
        # the divergence-corrected action on monomials, for the sextic field
        v = VectorField(XY, (p("x*y^2"), p("-(2*x^3+y^3)")))
        for a, b in [(0, 0), (1, 0), (0, 1), (2, 2), (3, 1)]:
            m = Poly.monomial(XY, (a, b))
            terms = {(a, b + 2): Fraction(a - b - 2)}
            if b >= 1:
                terms[(a + 3, b - 1)] = Fraction(-2 * b)
            assert apply_twisted(v, m) == Poly(XY, terms)

    def test_twisted_trivial_cases(self):
        v = VectorField(XY, (p("x"), p("-y")))
        assert apply_twisted(v, p("x^2*y^2")).is_zero
        assert apply_twisted(v, p("1")).is_zero

    def test_coefficient_count_enforced(self):
        with pytest.raises(InputError):
            VectorField(XY, (p("x"),))

    @given(polys(max_degree=2, max_terms=2), polys(max_degree=2, max_terms=2))
    def test_leibniz(self, g, h):
        v = VectorField(XY, (p("y^2"), p("x")))
        assert v.apply(g * h) == v.apply(g) * h + g * v.apply(h)


def dual_form(v: VectorField) -> DiffForm:
    """The (n-1)-form sum_i a_i (-1)^i dx_0 ^ ... ^ (dx_i omitted) ^ ... ^
    dx_(n-1) of V = sum_i a_i d/dx_i; in two variables a d/dx + b d/dy
    corresponds to a dy - b dx."""
    n = len(v.variables)
    return DiffForm(
        v.variables,
        n - 1,
        {
            tuple(j for j in range(n) if j != i): c if i % 2 == 0 else -c
            for i, c in enumerate(v.coefficients)
        },
    )


class TestDualityCorrespondence:
    def test_dual_form_sign_convention(self):
        # a d/dx + b d/dy corresponds to a dy - b dx
        v = VectorField(XY, (p("x^2"), p("y^3")))
        alpha = dual_form(v)
        assert alpha == DiffForm(XY, 1, {(1,): p("x^2"), (0,): p("-y^3")})
        assert field_from_one_form(alpha) == v

    @given(
        polys(max_degree=2, max_terms=2),
        polys(max_degree=2, max_terms=2),
        polys(max_degree=2, max_terms=2),
    )
    def test_twisted_action_matches_exact_form(self, a, b, h):
        # (V.h + div(V) h) dx^dy  =  d(h * alpha_V)  for alpha_V = a dy - b dx
        v = VectorField(XY, (a, b))
        lhs = DiffForm(XY, 2, {(0, 1): apply_twisted(v, h)})
        rhs = (dual_form(v) * h).d()
        assert lhs == rhs

