"""Polynomial arithmetic, parsing, rendering, and weighted structure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from brieskorn import poly
from brieskorn.errors import InputError, ParseError
from brieskorn.poly import (
    Poly,
    WeightSystem,
    exact_scalar,
    format_fraction,
    parse_fraction,
    parse_polynomial,
    parse_ratio,
)

from conftest import fractions, polys, valuation

XY = ("x", "y")


def p(text: str, variables=XY) -> Poly:
    return parse_polynomial(text, variables)


# malformed input: the message and position of each refusal
MALFORMED = [
    ("y+", "expected a literal, variable, or parenthesized expression", 2),
    ("y^-1", "expected a nonnegative integer exponent", 2),
    ("(y", "expected ')'", 2),
    ("((x)", "expected ')'", 4),
    ("2/0*y", "zero denominator", 2),
    ("2/ 0", "zero denominator", 3),
    ("z", "unknown variable 'z' (declared: x, y)", 0),
    ("x + _a", "unknown variable '_a' (declared: x, y)", 4),
    ("", "expected a literal, variable, or parenthesized expression", 0),
    ("-", "expected a literal, variable, or parenthesized expression", 1),
    ("x y", "unexpected character 'y'", 2),
    ("x)", "unexpected character ')'", 1),
    ("3/", "unexpected character '/'", 1),
    ("2 / 3 x", "unexpected character 'x'", 6),
    ("x^2^", "expected a nonnegative integer exponent", 4),
    ("x^ 2 3", "unexpected character '3'", 5),
]


def reference_product(a: Poly, b: Poly) -> Poly:
    """a * b by the schoolbook double loop, through the validating constructor."""
    out: dict = {}
    for (i, j), c in a.terms.items():
        for (k, m), d in b.terms.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + Fraction(c) * d
    return Poly(XY, out)


def parses_like_the_reference(a: Poly, b: Poly, k: int) -> bool:
    """The parses of (a)*(b), (a)^k and -(a)^k - (b) hold the values and
    the exact coefficients that ``reference_product`` gives."""
    power = Poly.constant(XY, 1)
    for _ in range(k):
        power = reference_product(power, a)
    keys = {*power.terms, *b.terms}
    negated = Poly(XY, {e: -power.terms.get(e, 0) - b.terms.get(e, 0) for e in keys})
    cases = [
        (f"({a})*({b})", reference_product(a, b)),
        (f"({a})^{k}", power),
        (f"-({a})^{k} - ({b})", negated),
    ]
    exact = lambda c: type(c) is int or (type(c) is Fraction and c.denominator > 1)
    return all(
        p(text).terms == value.terms and all(map(exact, p(text).terms.values()))
        for text, value in cases
    )


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

    @given(polys())
    @example(Poly(XY, {(2, 1): Fraction(-3, 4), (0, 3): -1, (0, 0): Fraction(5, 2)}))
    def test_parses_what_it_prints(self, a):
        parsed = p(str(a))
        assert parsed == a
        assert_exact(parsed)

    @given(polys(max_terms=3), polys(max_terms=3), st.integers(0, 4))
    @example(p("2*x"), p("-1/2*y + 1"), 2)
    @example(p("-x"), p("x"), 3)
    def test_products_and_powers_are_the_reference_arithmetic(self, a, b, k):
        assert parses_like_the_reference(a, b, k)

    @pytest.mark.parametrize("text,message,position", MALFORMED)
    def test_malformed_input_is_refused_where_it_breaks(self, text, message, position):
        with pytest.raises(ParseError) as err:
            p(text)
        assert (str(err.value), err.value.position) == (
            f"{message} (at position {position})",
            position,
        )

    def test_repeated_variable_names_are_refused(self):
        for text in ("x", "2", "z"):
            with pytest.raises(InputError, match=r"duplicate variable names in \('x', 'x'\)"):
                parse_polynomial(text, ("x", "x"))

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("x^\u00b2", "expected a nonnegative integer exponent", 2),
            ("\u00b2*x", "expected a literal, variable, or parenthesized expression", 0),
        ],
    )
    def test_a_digit_that_is_no_decimal_is_a_parse_error(self, text, message, position):
        # a superscript two passes str.isdigit but not int(): no ValueError escapes
        with pytest.raises(ParseError, match=message) as err:
            p(text)
        assert err.value.position == position

    def test_decimal_digits_of_any_script_are_read(self):
        assert p("\u0663*x^\u0662") == p("3*x^2")


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

    def test_equal_weight_systems_hash_equal(self):
        first = WeightSystem((Fraction(1, 2), 1), 3)
        second = WeightSystem((Fraction(2, 4), Fraction(3, 3)), Fraction(6, 2))
        assert first == second and hash(first) == hash(second)
        assert len({first, second, WeightSystem((1, 1), 3)}) == 2

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


def sorted_str(poly: Poly) -> str:
    """``Poly.__str__``'s general path for any number of terms: the terms
    sorted by degree, the first with its sign, each later one joined by
    " + " or " - "."""
    if not poly.terms:
        return "0"
    first, *rest = sorted(poly.terms, key=lambda e: (sum(e), e), reverse=True)
    pieces = [poly._term_str(first, poly.terms[first])]
    for e in rest:
        c = poly.terms[e]
        pieces.append((" - " if c < 0 else " + ") + poly._term_str(e, abs(c)))
    return "".join(pieces)


# one-term polys: constants among them, coefficients +-1, ints and fractions
one_term_polys = st.builds(
    lambda e, c: Poly(XY, {e: c}),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.sampled_from([1, -1]), fractions().filter(bool), st.integers(-6, 6).filter(bool)),
)


class TestSerialization:
    def test_rational_rendering(self):
        assert format_fraction(Fraction(-3, 7)) == "-3/7"
        assert str(Poly.constant(XY, Fraction(-3, 7))) == "-3/7"

    @pytest.mark.parametrize(
        "text,written",
        [("x", "x"), ("-x", "-x"), ("-1/2*x^2*y", "-1/2*x^2*y"), ("7", "7"), ("-y^3", "-y^3"),
         ("0", "0"), ("2*x - y", "2*x - y")],
    )
    def test_pinned_texts(self, text, written):
        assert str(p(text)) == written

    @given(one_term_polys)
    @example(Poly(XY, {(0, 0): Fraction(-3, 7)}))
    @example(Poly(XY, {(1, 0): -1}))
    def test_one_term_is_written_as_the_general_path_writes_it(self, poly):
        assert str(poly) == sorted_str(poly)

    @given(polys())
    def test_every_poly_is_written_as_the_general_path_writes_it(self, poly):
        assert str(poly) == sorted_str(poly)


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

    @pytest.mark.parametrize(
        "text,value", [("3", 3), ("-3", -3), (" 3 ", 3), ("6/3", 2), ("-1/2", Fraction(-1, 2))]
    )
    def test_parse_fraction_values(self, text, value):
        got = parse_fraction(text)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("text", ["3", "-3", " 3 "])
    def test_parse_fraction_of_an_integer_builds_no_fraction(self, monkeypatch, text):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} built for {text!r}")

        monkeypatch.setattr(poly, "Fraction", refuse)
        assert parse_fraction(text) == int(text)

    @pytest.mark.parametrize("text", ["1/0", "x", "", "3/", "1.5"])
    def test_parse_fraction_refuses_bad_text(self, text):
        with pytest.raises(InputError, match=f"not a rational number: {text!r}"):
            parse_fraction(text)

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


def ratio_texts() -> st.SearchStrategy[str]:
    """Integer or quotient texts as a record or --weights holds them: a
    sign or padding on either part, zero numerators, negative and
    non-reduced denominators."""
    part = st.tuples(st.sampled_from(["", "+", "-", " ", " -"]), st.integers(0, 60))

    def text(num: tuple, den: tuple | None) -> str:
        return "%s%d" % num + ("" if den is None else "/%s%d" % den)

    return st.builds(text, part, st.none() | part.filter(lambda d: d[1] != 0))


def ratio_agrees(text: str, parse=parse_ratio) -> bool:
    """``parse(text)`` is the (numerator, denominator) pair of the value of
    ``parse_fraction`` on it, with a positive denominator."""
    value = Fraction(parse_fraction(text))
    return parse(text) == (value.numerator, value.denominator)


class TestParseRatio:
    """``parse_ratio`` reads a record coefficient straight to integers;
    ``parse_fraction`` is built on it."""

    @given(ratio_texts())
    @example("2/4")
    @example("1/-3")
    @example("+5")
    @example(" 7")
    @example("0/5")
    @example("-0")
    def test_is_the_value_of_parse_fraction(self, text):
        num, slash, den = text.partition("/")
        value = Fraction(int(num), int(den) if slash else 1)  # an independent oracle
        assert parse_fraction(text) == value
        assert ratio_agrees(text)
        assert parse_ratio(text) == (value.numerator, value.denominator)

    @pytest.mark.parametrize(
        "text,pair", [("2/4", (1, 2)), ("1/-3", (-1, 3)), ("-6/-4", (3, 2)), ("0/-5", (0, 1))]
    )
    def test_pairs_are_reduced_with_a_positive_denominator(self, text, pair):
        assert parse_ratio(text) == pair

    @pytest.mark.parametrize("text", ["1/0", "0/0", "1.5", "a", "", "3/", "/2"])
    def test_refuses_what_parse_fraction_refuses(self, text):
        with pytest.raises(InputError) as ratio:
            parse_ratio(text)
        with pytest.raises(InputError) as fraction:
            parse_fraction(text)
        assert str(ratio.value) == str(fraction.value) == f"not a rational number: {text!r}"

    def test_builds_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} built")

        monkeypatch.setattr(poly, "Fraction", refuse)
        assert [parse_ratio(t) for t in ("2/4", "1/-3", "7")] == [(1, 2), (-1, 3), (7, 1)]


def reference_substitute(poly: Poly, mapping) -> Poly:
    """The general route of ``Poly.substitute``: each term is its coefficient
    times the product of the powers of its variables' images."""
    ring = next(iter(mapping.values())).variables
    result = Poly.zero(ring)
    for exps, coeff in poly.terms.items():
        term = Poly.constant(ring, coeff)
        for name, e in zip(poly.variables, exps):
            term = term * mapping[name] ** e
        result = result + term
    return result


class TestFastPaths:
    """The integer and variable-image shortcuts of the kernel give what the
    general routes give, and hold only exact coefficients (for +, *, **,
    derivative and divide_exact also ``test_mixed_coefficients_compute_as_fractions``)."""

    @given(mixed_polys(max_degree=2, max_terms=3), st.integers(min_value=0, max_value=5))
    def test_power_is_the_product_of_copies(self, a, n):
        product = Poly.constant(XY, 1)
        for _ in range(n):
            product = product * a
        assert a**n == product
        assert_exact(a**n)

    @given(mixed_polys(), mixed_polys(), st.one_of(st.integers(-3, 3), fractions()))
    def test_exact_division_recovers_the_cofactor(self, a, b, c):
        if not b:
            return
        assert (a * b).divide_exact(b) == a
        assert_exact((a * b).divide_exact(b))
        if not b.is_constant() and c:
            # b divides a b + c only if b divides the unit c
            assert (a * b + Poly.constant(XY, c)).divide_exact(b) is None

    @given(mixed_polys())
    def test_lowest_monic_is_idempotent(self, a):
        if not a:
            return
        monic = a.lowest_monic()
        assert monic.lowest_monic() == monic
        assert_exact(monic)

    @given(
        mixed_polys(),
        st.lists(st.sampled_from(("u", "v", "w")), min_size=2, max_size=2),
        st.sampled_from([("u", "v", "w"), ("w", "v", "u"), ("v", "w", "u")]),
    )
    def test_variable_images_match_the_general_route(self, a, names, ring):
        # images may repeat a variable, so terms can merge and cancel
        mapping = {v: Poly.variable(ring, name) for v, name in zip(XY, names)}
        result = a.substitute(mapping)
        assert result == reference_substitute(a, mapping)
        assert_exact(result)
