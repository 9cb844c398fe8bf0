"""Polynomial arithmetic, parsing, rendering, and weighted structure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brieskorn.errors import InputError, ParseError
from brieskorn.poly import (
    Poly,
    WeightSystem,
    exact_scalar,
    format_fraction,
    parse_fraction,
    parse_polynomial,
)

from conftest import fractions, polys, valuation

XY = ("x", "y")


def p(text: str, variables=XY) -> Poly:
    return parse_polynomial(text, variables)


class TestParser:
    def test_basic_expressions(self):
        assert p("x^2 + 2*x*y + y^2") == p("(x+y)^2")
        assert p("x^3*(x^3+y^3)") == p("x^6 + x^3*y^3")
        assert p("1/2*x - 1/2*x") == Poly.zero(XY)
        assert p("7") == Poly.constant(XY, 7)
        assert p("3/4") == Poly.constant(XY, Fraction(3, 4))
        assert p("-x + x") == Poly.zero(XY)
        assert p("2 - 3") == Poly.constant(XY, -1)

    def test_whitespace_ignored(self):
        assert p("  x ^ 2 +  y  ") == p("x^2+y")

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            p("x + z")
        assert "z" in str(err.value)
        assert err.value.position == 4

    def test_malformed(self):
        for bad in ("x +", "(x", "x^", "x^-2", "^2", "x**2"):
            with pytest.raises(ParseError):
                p(bad)

    def test_str_round_trip(self):
        for text in ("x^6 + x^3*y^3", "2*y", "-x + y", "1/2*x*y^2 - 3"):
            poly = p(text)
            assert p(str(poly)) == poly


class TestArithmetic:
    def test_product_and_power(self):
        assert p("x") * p("y") == p("x*y")
        assert p("x+y") ** 3 == p("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert p("x") ** 0 == Poly.constant(XY, 1)

    def test_scalar_multiplication(self):
        assert Fraction(1, 2) * p("2*x") == p("x")

    def test_exactness_no_drift(self):
        third = Poly.constant(XY, Fraction(1, 3))
        assert third * 3 == Poly.constant(XY, 1)

    @given(polys(), polys())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys(), polys(), polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_mixed_rings_rejected(self):
        with pytest.raises(InputError):
            p("x") + parse_polynomial("z", ("z",))

    @given(polys(), polys(), st.sampled_from([0, 1, -3, Fraction(2, 3)]))
    def test_results_are_what_the_validating_constructor_builds(self, a, b, k):
        # arithmetic skips the constructor's checks; its results must still
        # hold only nonzero exact coefficients
        for result in (a + b, a - b, -a, a * b, a * k, k * a, a.derivative("y")):
            assert result == Poly(result.variables, result.terms)
            assert all(type(c) in (int, Fraction) and c for c in result.terms.values())


class TestDerivative:
    def test_basic_examples(self):
        f = p("x^3*(x^3+y^3)")
        assert f.derivative("x") == p("6*x^5 + 3*x^2*y^3")
        assert f.derivative("y") == p("3*x^3*y^2")
        assert Poly.constant(XY, 7).derivative("x") == Poly.zero(XY)

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            p("x").derivative("q")

    @given(polys(), polys())
    def test_leibniz(self, g, h):
        lhs = (g * h).derivative("x")
        rhs = g.derivative("x") * h + g * h.derivative("x")
        assert lhs == rhs


class TestDivision:
    def test_exact_division(self):
        f = p("x^6 + x^3*y^3")
        assert f.divide_exact(p("x^3")) == p("x^3 + y^3")
        assert f.divide_exact(p("x^3 + y^3")) == p("x^3")
        assert p("x + y").divide_exact(p("x")) is None

    def test_valuation(self):
        f = p("x^6 + x^3*y^3")
        assert valuation(f, p("x")) == 3
        assert valuation(f, p("x^3+y^3")) == 1
        assert valuation(f, p("y")) == 0
        assert valuation(p("x^2*y^2"), p("x*y")) == 2


class TestWeights:
    def test_weighted_degree_examples(self):
        assert weighted_degree((3, 4), (Fraction(1), Fraction(1))) == 7
        assert weighted_degree((2, 1), (Fraction(1, 2), Fraction(1, 3))) == Fraction(4, 3)
        assert weighted_degree((0, 0), (Fraction(1), Fraction(1))) == 0

    def test_weight_system_verifies(self):
        f = p("x^6 + x^3*y^3")
        ws = WeightSystem.for_poly(f, (1, 1))
        assert ws.total_degree == 6
        with pytest.raises(InputError):
            WeightSystem.for_poly(p("x^2 + y^3"), (1, 1))
        ws2 = WeightSystem.for_poly(p("x^2 + y^3"), (Fraction(1, 2), Fraction(1, 3)))
        assert ws2.total_degree == 1

    def test_positive_weights_required(self):
        with pytest.raises(InputError):
            WeightSystem((0, 1), 1)

    def test_integer_scaling(self):
        ws = WeightSystem((Fraction(1, 2), Fraction(1, 3)), 1)
        scaled, scale = ws.integer_scaled()
        assert scaled == (3, 2) and scale == 6

    @given(
        st.sampled_from([("x", "y"), ("x", "y", "z")]).flatmap(
            lambda variables: st.tuples(
                polys(variables, max_degree=4, max_terms=5),
                st.lists(
                    st.builds(
                        Fraction,
                        st.integers(min_value=1, max_value=7),
                        st.integers(min_value=1, max_value=6),
                    ),
                    min_size=len(variables),
                    max_size=len(variables),
                ),
            )
        ),
        st.booleans(),
    )
    def test_quasi_homogeneous_degree_matches_the_fraction_reference(
        self, poly_and_weights, homogeneous_part
    ):
        poly, weights = poly_and_weights
        if homogeneous_part and poly.terms:
            # keep the terms of one weighted degree, so both outcomes occur
            first = weighted_degree(min(poly.terms), weights)
            poly = Poly(
                poly.variables,
                {e: c for e, c in poly.terms.items()
                 if weighted_degree(e, weights) == first},
            )
        degree = poly.quasi_homogeneous_degree(weights)
        assert degree == reference_degree(poly, weights)
        assert degree is None or isinstance(degree, Fraction)

    def test_quasi_homogeneous_degree_edge_cases(self):
        halves = (Fraction(1, 2), Fraction(1, 3))
        assert Poly.zero(XY).quasi_homogeneous_degree(halves) is None
        assert Poly.constant(XY, 5).quasi_homogeneous_degree(halves) == 0
        assert p("x^2 + y^3").quasi_homogeneous_degree(halves) == 1
        assert p("x^2 + y^2").quasi_homogeneous_degree(halves) is None
        assert p("x*y").quasi_homogeneous_degree((1, 1)) == 2
        with pytest.raises(InputError):
            p("x").quasi_homogeneous_degree((1,))


def weighted_degree(exponents, weights) -> Fraction:
    """Weighted degree of a monomial, summed in Fractions: the reference
    for ``Poly.quasi_homogeneous_degree``."""
    if len(exponents) != len(weights):
        raise InputError("exponent/weight length mismatch")
    total = Fraction(0)
    for e, w in zip(exponents, weights):
        total += Fraction(e) * w
    return total


def reference_degree(poly, weights):
    """The common weighted degree of the terms, summed in Fractions term by
    term; None for the zero polynomial or differing degrees."""
    degree = None
    for exps in poly.terms:
        d = weighted_degree(exps, weights)
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return degree


class TestSerialization:
    def test_rational_rendering(self):
        assert format_fraction(Fraction(-3, 7)) == "-3/7"
        assert str(Poly.constant(XY, Fraction(-3, 7))) == "-3/7"


class TestSubstitute:
    def test_linear_change(self):
        f = p("x*y")
        sub = {"x": p("x+y"), "y": p("x-y")}
        assert f.substitute(sub) == p("x^2 - y^2")

    @given(polys(max_degree=2, max_terms=3))
    def test_identity_substitution(self, poly):
        sub = {v: Poly.variable(XY, v) for v in XY}
        assert poly.substitute(sub) == poly


def mixed_polys(max_degree: int = 3, max_terms: int = 4) -> st.SearchStrategy[Poly]:
    """Polynomials whose coefficients mix ints, integral Fractions and
    Fractions with a real denominator."""
    exponent = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * 2))
    coefficient = st.one_of(st.integers(min_value=-6, max_value=6), fractions())
    return st.lists(st.tuples(exponent, coefficient), max_size=max_terms).map(
        lambda pairs: Poly(XY, dict(pairs))
    )


def all_fractions(poly: Poly) -> Poly:
    """The same polynomial with every coefficient held as a Fraction,
    integral ones included: built past the constructor, which would turn
    those into ints."""
    return Poly._trusted(poly.variables, {e: Fraction(c) for e, c in poly.terms.items()})


def assert_exact(result: Poly) -> None:
    """Every coefficient is a nonzero int or a Fraction with a real
    denominator: never a float, a bool or an integral Fraction."""
    for c in result.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1)


class TestExactScalars:
    def test_normaliser_rules(self):
        assert type(exact_scalar(3)) is int
        assert type(exact_scalar(Fraction(6, 3))) is int and exact_scalar(Fraction(6, 3)) == 2
        assert exact_scalar(Fraction(1, 2)) == Fraction(1, 2)
        for bad in (0.5, 1.0, True, False, "1"):
            with pytest.raises(TypeError):
                exact_scalar(bad)

    def test_integral_coefficients_are_ints(self):
        assert type(p("7").constant_value()) is int
        assert type(p("4/2*x").coefficient((1, 0))) is int
        assert type(p("1/2*x").coefficient((1, 0))) is Fraction
        assert type(Poly.zero(XY).constant_value()) is int
        assert type((p("x") * Fraction(3)).coefficient((1, 0))) is int
        assert type(parse_fraction("6/3")) is int
        assert p("2*x").lowest_monic() == p("x")
        assert type(p("2*x").lowest_monic().coefficient((1, 0))) is int

    def test_floats_raise(self):
        f = p("x + y")
        for build in (
            lambda: Poly(XY, {(1, 0): 0.5}),
            lambda: Poly.constant(XY, 0.0),
            lambda: f * 0.5,
            lambda: 0.5 * f,
            lambda: WeightSystem((0.5, 1), 1),
        ):
            with pytest.raises(TypeError):
                build()

    def test_bools_raise(self):
        # a bool is an int subclass, but never a coefficient
        f = p("x + y")
        for build in (
            lambda: Poly(XY, {(1, 0): True}),
            lambda: f * True,
            lambda: WeightSystem((True, 1), 1),
        ):
            with pytest.raises(TypeError):
                build()

    @given(
        mixed_polys(),
        mixed_polys(),
        st.one_of(st.integers(min_value=-3, max_value=3), fractions()),
        st.integers(min_value=0, max_value=3),
    )
    def test_mixed_coefficients_compute_as_fractions(self, a, b, k, n):
        fa, fb = all_fractions(a), all_fractions(b)
        pairs = [
            (a + b, fa + fb),
            (a - b, fa - fb),
            (-a, -fa),
            (a * b, fa * fb),
            (a * k, fa * Fraction(k)),
            (k * a, Fraction(k) * fa),
            (a**n, fa**n),
            (a.derivative("x"), fa.derivative("x")),
            (a.substitute({"x": b, "y": a}), fa.substitute({"x": fb, "y": fa})),
        ]
        if b:
            pairs.append(((a * b).divide_exact(b), fa))
            pairs.append((b.lowest_monic(), fb.lowest_monic()))
            quotient, reference = a.divide_exact(b), fa.divide_exact(fb)
            assert (quotient is None) == (reference is None)
            if quotient is not None:
                pairs.append((quotient, reference))
        for result, reference in pairs:
            assert result == reference
            assert_exact(result)
