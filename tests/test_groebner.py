"""The Groebner saturation and the torsion length of the direct check.

Oracles: sympy's reduced grevlex basis (importorskip), the reduced basis
of a permuted generator list, and the Thom-Sebastiani transport
dim (J : m^inf)/J of z^k + f = (k - 1) mu(f), with mu(f) from the graded
curve pipeline.  The test-local colon chain of ``test_local_algebra`` is
the third oracle (``test_graded_colon_chain_matches_full_recompute``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from brieskorn.curve import FactoredCurve, invariants
from brieskorn.groebner import (
    _encode,
    _groebner,
    _integer_gens,
    _normalized,
    isolated_at_origin,
    torsion_length,
)
from brieskorn.local_algebra import IdealGens, jacobian_ideal
from brieskorn.poly import Poly, parse_polynomial

from conftest import saturate_at_origin

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def ideal(*texts, variables=XY):
    return IdealGens.of(variables, [p(t, variables) for t in texts])


def reduced_basis(I: IdealGens) -> list[dict]:
    return _groebner(_integer_gens(I), head=1)


SYMPY_CASES = [
    ideal("x*y^2", "x^2*y"),
    ideal("x^3 - y^2", "x*y - 1"),
    ideal("x^2 + y^2 - 1", "x - y", "y^3"),
    jacobian_ideal(p("x^3*(x^3+y^3)")),
    jacobian_ideal(p("z^2 + (x^2-y^3)^2", XYZ)),
    jacobian_ideal(p("z^3 + x^2*y^2*(x+y)", XYZ)),
    jacobian_ideal(p("z^2 + (x+y^2)^3*((x+y^2)^3+y^3)", XYZ)),
    ideal("x*y - z^2", "y^2 - x*z + y", "x^3 - 2*z", variables=XYZ),
]


@pytest.mark.parametrize("I", SYMPY_CASES, ids=str)
def test_reduced_basis_matches_sympy(I):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(I.variables)
    exprs = [
        sympy.sympify(str(g).replace("^", "**"), locals=dict(zip(I.variables, symbols)))
        for g in I.generators
    ]
    expected = []
    for poly in sympy.groebner(exprs, *symbols, order="grevlex").polys:
        terms = poly.terms()
        scale = lcm(*(int(c.q) for _, c in terms))
        expected.append(_normalized({_encode(m): int(c * scale) for m, c in terms}))
    assert reduced_basis(I) == sorted(expected, key=max)


@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_reduced_basis_does_not_depend_on_generator_order(terms, rng):
    gens = [Poly(XY, t) for t in terms]
    shuffled = list(gens)
    rng.shuffle(shuffled)
    scaled = [g * Fraction(rng.choice([-3, 2, 5]), 7) for g in shuffled]
    assert reduced_basis(IdealGens.of(XY, gens)) == reduced_basis(IdealGens.of(XY, scaled))


class TestSaturation:
    def test_ideal_away_from_the_origin_is_saturated(self):
        # m is not associated to the maximal ideal of the point (-1, 0)
        result = saturate_at_origin(ideal("x + 1", "y"))
        assert [str(g) for g in result.generators] == ["y", "x + 1"]

    def test_embedded_point_at_the_origin_drops_out(self):
        # (x^2, x y) = (x) meet (x^2, y)
        result = saturate_at_origin(ideal("x^2", "x*y"))
        assert [str(g) for g in result.generators] == ["x"]

    def test_point_away_from_the_origin_stays(self):
        # V(I) = {0, (1, 0)}; saturating removes only the point at 0
        I = ideal("x^2*(x - 1)", "y", "x*y")
        result = saturate_at_origin(I)
        assert [str(g) for g in result.generators] == ["y", "-x + 1"]
        assert torsion_length(I) == 2


class TestIsolatedAtOrigin:
    @pytest.mark.parametrize(
        "gens, expected",
        [
            # finitely many points: a pure power of each variable leads
            (("x^2", "y^3"), True),
            (("x - 1", "y"), True),  # 0 is not on V(I)
            # a line through 0: the saturation lies in m
            (("x^2",), False),
            (("x*y", "x^2"), False),  # the line x = 0 with an embedded point
        ],
        ids=str,
    )
    def test_small_ideals(self, gens, expected):
        assert isolated_at_origin(ideal(*gens)) is expected

    def test_isolated_origin_with_a_line_elsewhere(self):
        # V(I) = {0} with the line x = 1: no pure power of y leads, so only
        # the saturation, which is (x - 1), decides
        I = ideal("(x-1)*x", "(x-1)*y")
        assert isolated_at_origin(I) is True
        assert torsion_length(I) == 1


class TestTorsionLength:
    @pytest.mark.parametrize(
        "gens, variables, expected",
        [
            (("x*y^2", "x^2*y"), XY, 1),  # (x y) / (x y^2, x^2 y)
            (("x", "y"), XY, 1),  # the unit ideal over m
            (("x",), XYZ, 0),
            (("x^2", "x*y"), XY, 1),  # (x) / (x^2, x y) is spanned by x
            (("x^2 + 1", "y"), XY, 0),  # empty at the origin
        ],
        ids=str,
    )
    def test_small_ideals(self, gens, variables, expected):
        assert torsion_length(ideal(*gens, variables=variables)) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            # the unweighted inputs on which the colon chain crashed and
            # returned 0
            ("z^2 + (x^2-y^3)^2", 2),
            ("z^2 + x^6*(x^6+y^6)", 36),
        ],
    )
    def test_colon_chain_failures(self, text, expected):
        assert torsion_length(jacobian_ideal(p(text, XYZ))) == expected


def changed(text: str) -> str:
    """The nonlinear coordinate change x -> x + y^2, on polynomial text."""
    return text.replace("x", "(x+y^2)")


BRANCHES = {
    (1, 1): ["x", "y", "x+y", "x-y"],
    (3, 2): ["x", "y", "x^2+y^3", "x^2-y^3"],
    (2, 1): ["x", "y", "x+y^2", "x-y^2"],
}


def generated_curves(count: int, seed: int = 11):
    rng = random.Random(seed)
    seen = []
    while len(seen) < count:
        weights = rng.choice(sorted(BRANCHES))
        pool = rng.sample(BRANCHES[weights], rng.randint(1, 3))
        factors = tuple((t, rng.randint(2, 3)) for t in pool)
        if (factors, weights) not in seen:
            seen.append((factors, weights))
    return seen


@pytest.mark.parametrize("factors, weights", generated_curves(16), ids=str)
def test_transport_to_suspensions(factors, weights):
    curve = FactoredCurve.of(XY, [(p(t), m) for t, m in factors])
    curve_mu = invariants(curve, weights=weights).mu
    text = str(curve.expand())
    for k in (2, 3):
        for g in (text, changed(text)):
            F = p(f"z^{k} + {g}", XYZ)
            assert torsion_length(jacobian_ideal(F)) == (k - 1) * curve_mu
