"""The Groebner saturation and the torsion length of the direct check.

Oracles: sympy's reduced grevlex basis (importorskip), the reduced basis
of a permuted generator list, the from-scratch saturation below (every
colon and meet eliminated from raw generators, no known basis, no strip and
no certified colon), and
the Thom-Sebastiani transport dim (J : m^inf)/J of z^k + f = (k - 1) mu(f),
with mu(f) from the graded curve pipeline.  The test-local colon chain of
``test_local_algebra`` is one more
(``test_graded_colon_chain_matches_full_recompute``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import le

import pytest
from hypothesis import given, strategies as st

from brieskorn import groebner
from brieskorn.curve import FactoredCurve, invariants
from brieskorn.groebner import (
    _colon,
    _decode,
    _divides,
    _groebner,
    _integer_gens,
    _lift,
    _normalized,
    _saturation,
    _standard_count,
    isolated_at_origin,
    torsion_length,
)
from brieskorn.local_algebra import IdealGens, _count_key, jacobian_ideal
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


# terms and binomials: the pair of the term x^2 y with x^3 + y^2 gives x y,
# which divides the first lead x^2 y, and the final pass reduces y^3 - x y
# to y^3; the reduced basis is (x y, y^3, x^3 + y^2)
MIXED = ideal("x^2*y", "x*y - y^3", "x^3 + y^2")

SYMPY_CASES = [
    ideal("x*y^2", "x^2*y"),
    ideal("x^3 - y^2", "x*y - 1"),
    ideal("x^2 + y^2 - 1", "x - y", "y^3"),
    jacobian_ideal(p("x^3*(x^3+y^3)")),
    jacobian_ideal(p("z^2 + (x^2-y^3)^2", XYZ)),
    jacobian_ideal(p("z^3 + x^2*y^2*(x+y)", XYZ)),
    jacobian_ideal(p("z^2 + (x+y^2)^3*((x+y^2)^3+y^3)", XYZ)),
    ideal("x*y - z^2", "y^2 - x*z + y", "x^3 - 2*z", variables=XYZ),
    MIXED,
]


def sympy_basis(I: IdealGens) -> list[dict]:
    """sympy's reduced grevlex basis of I, as primitive integer dicts
    sorted by leading monomial."""
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
        expected.append(_normalized({_count_key(m, (1,) * len(m)): int(c * scale) for m, c in terms}))
    return sorted(expected, key=max)


@pytest.mark.parametrize("I", SYMPY_CASES, ids=str)
def test_reduced_basis_matches_sympy(I):
    assert reduced_basis(I) == sympy_basis(I)


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


# -- the from-scratch reference ------------------------------------------------


def reference_colon(gens: list[dict], n: int, i: int) -> list[dict]:
    """I : x_i^inf = (I + (1 - t x_i)) meet k[x], eliminated from the raw
    generators of I.  It calls through the module, so that a test can count
    its calls."""
    one = _count_key((0,) * n, (1,) * n)
    x_i = _count_key(tuple(int(j == i) for j in range(n)), (1,) * n)
    return groebner._eliminate([_lift(g, 0) for g in gens] + [{(1, *x_i): 1, (0, *one): -1}])


def reference_saturation(gens: list[dict], n: int) -> list[dict]:
    """I : m^inf with every colon and meet eliminated from raw generators:
    no known basis, and a unit colon is dropped only after its elimination."""
    one = _count_key((0,) * n, (1,) * n)
    result = None
    for i in range(n):
        colon = reference_colon(gens, n, i)
        if max(colon[0])[0] == 0:
            continue
        if result is not None:
            colon = groebner._eliminate(
                [_lift(a, 1) for a in result]
                + [{**_lift(b, 0), **_lift(b, 1, -1)} for b in colon]
            )
        result = colon
    return result if result is not None else [{one: 1}]


def reference_isolated(I: IdealGens) -> bool:
    gens, n = _integer_gens(I), len(I.variables)
    leads = [_decode(max(g)) for g in groebner._groebner(gens, head=1)]
    if all(any(sum(e) == e[i] for e in leads) for i in range(n)):
        return True
    one = _count_key((0,) * n, (1,) * n)
    return any(one in g for g in reference_saturation(gens, n))


def box_point_count(small: list[tuple], big: list[tuple], box: list[int]) -> int:
    """The monomials of the box e_i < box[i] that a lead of ``big`` divides
    and no lead of ``small`` does, tested point by point."""
    return sum(
        1
        for m in product(*map(range, box))
        if any(all(map(le, e, m)) for e in big)
        and not any(all(map(le, e, m)) for e in small)
    )


def reference_torsion_length(I: IdealGens) -> int:
    gens, n = _integer_gens(I), len(I.variables)
    small = [_decode(max(g)) for g in groebner._groebner(gens, head=1)]
    big = [_decode(max(g)) for g in reference_saturation(gens, n)]
    return box_point_count(small, big, [max(e[i] for e in small) for i in range(n)])


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=size, max_size=4) for size in (1, 0)]
        )
    )
)
def test_the_column_count_is_the_box_point_count(leads):
    # LT(small) lies in LT(big), as LT(J) lies in LT(J : m^inf)
    small, extra = leads
    big = small + extra
    box = [max(e[i] for e in small) for i in range(len(small[0]))]
    assert _standard_count(small, box) - _standard_count(big, box) == box_point_count(small, big, box)
    assert _standard_count(big, box) == box_point_count(big, [(0,) * len(box)], box)


@st.composite
def integer_ideals(draw, n: int):
    """At most 3 integer generators of degree <= 3 with at most 3 terms;
    the last may be a monomial power of one variable or have a unit term."""
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    polys = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    gens = draw(st.lists(polys, min_size=1, max_size=3))
    last = draw(st.sampled_from(["random", "power", "unit"]))
    if last == "power":
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(1, 3))
        gens[-1] = {tuple(k * (j == i) for j in range(n)): 1}
    elif last == "unit":
        gens[-1] = {**gens[-1], (0,) * n: draw(st.integers(1, 3))}
    variables = XYZ[:n]
    return IdealGens.of(variables, [Poly(variables, g) for g in gens])


any_ideal = st.sampled_from([2, 3]).flatmap(integer_ideals)


@given(any_ideal)
def test_saturation_matches_the_from_scratch_reference(I):
    gens, n = _integer_gens(I), len(I.variables)
    assert _saturation(_groebner(gens, head=1), n) == reference_saturation(gens, n)
    assert torsion_length(I) == reference_torsion_length(I)
    assert isolated_at_origin(I) is reference_isolated(I)


@given(any_ideal)
def test_certified_colon_matches_the_elimination_colon(I):
    gens, n = _integer_gens(I), len(I.variables)
    basis = _groebner(gens, head=1)
    for i in range(n):
        assert _colon(basis, n, i) == reference_colon(gens, n, i)


@given(
    st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(integer_ideals(n), integer_ideals(n))),
    st.booleans(),
)
def test_a_known_basis_gives_the_basis_of_the_whole_ideal(ideals, t_degree):
    basis, new = (_integer_gens(I) for I in ideals)
    G = _groebner(basis, head=1)
    assert _groebner(new, 1, known=G) == _groebner(G + new, head=1)
    lifted = [_lift(g, t_degree) for g in G]
    mixed = [{**_lift(b, 0), **_lift(b, 1, -1)} for b in new]
    assert _groebner(mixed, 2, known=lifted) == _groebner(lifted + mixed, head=2)


@pytest.mark.parametrize("I", SYMPY_CASES, ids=str)
def test_every_known_basis_is_minimal_and_primitive(monkeypatch, I):
    # the precondition under which _groebner takes a known basis as it is
    # and tests each lead only against later leads
    knowns, original = [], groebner._groebner
    monkeypatch.setattr(
        groebner,
        "_groebner",
        lambda polys, head, known=(): knowns.append((known, head)) or original(polys, head, known),
    )
    torsion_length(I)
    isolated_at_origin(I)
    for known, head in knowns:
        leads = [max(g) for g in known]
        assert all(g == _normalized(g) for g in known)
        assert not any(
            _divides(a, b, head) for i, a in enumerate(leads) for j, b in enumerate(leads) if i != j
        )


class TestSavedWork:
    @staticmethod
    def counted(monkeypatch, name: str) -> list:
        calls, original = [], getattr(groebner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counting)
        return calls

    def test_the_colon_by_a_monomial_power_runs_no_elimination(self, monkeypatch):
        # J = (x y^2, x^2 y, z): the x-colon strips to (y, z) and the y-colon
        # to (x, z), both certified; the z-colon strips z to 1; one meet
        J = jacobian_ideal(p("z^2 + x^2*y^2", XYZ))
        eliminations = self.counted(monkeypatch, "_eliminate")
        assert torsion_length(J) == 1
        assert len(eliminations) == 1
        eliminations.clear()
        assert reference_torsion_length(J) == 1
        assert len(eliminations) == 4

    def test_the_unit_x_colon_of_the_golden_sextic_suspension_runs_no_elimination(
        self, monkeypatch
    ):
        # J = (z, 2 x^5 + x^2 y^3, x^3 y^2) holds no power of x: x^2 and x^3
        # strip off to (z, y^2, x^3), and then x^3 strips to 1
        J = jacobian_ideal(p("z^2 + x^3*(x^3+y^3)", XYZ))
        basis, one = reduced_basis(J), _count_key((0, 0, 0), (1, 1, 1))
        assert not any(len(g) == 1 and max(g)[3] == -max(g)[0] for g in basis)
        eliminations = self.counted(monkeypatch, "_eliminate")
        assert _colon(basis, 3, 0) == [{one: 1}]
        assert torsion_length(J) == 9
        assert eliminations == []
        assert reference_colon(_integer_gens(J), 3, 0) == [{one: 1}]
        assert len(eliminations) == 1

    def test_a_colon_the_lemma_cannot_certify_still_eliminates(self, monkeypatch):
        # the y-colon of J = (z, x y^3 - x^3, y^5 - x^2 y^2): y^2 strips off,
        # and the stripped basis (z, y^3 - x^2) has the lead y^3
        J = jacobian_ideal(p("z^2 + (x^2-y^3)^2", XYZ))
        basis = reduced_basis(J)
        eliminations = self.counted(monkeypatch, "_eliminate")
        colon = _colon(basis, 3, 1)
        assert len(eliminations) == 1
        assert colon == reference_colon(_integer_gens(J), 3, 1)
        assert colon == reduced_basis(ideal("z", "y^3 - x^2", variables=XYZ))

    def test_equal_colons_run_no_meet(self, monkeypatch):
        # the x- and y-colons of J = (z, x y^3 - x^3, y^5 - x^2 y^2) are both
        # (z, y^3 - x^2); only the y-colon is eliminated
        J = jacobian_ideal(p("z^2 + (x^2-y^3)^2", XYZ))
        eliminations = self.counted(monkeypatch, "_eliminate")
        assert torsion_length(J) == 2
        assert len(eliminations) == 1

    def test_a_constant_stops_buchberger_at_the_unit_ideal(self, monkeypatch):
        # the z-colon of z^3 + x^2 y strips z^2 to 1
        J, one = jacobian_ideal(p("z^3 + x^2*y", XYZ)), _count_key((0, 0, 0), (1, 1, 1))
        basis = reduced_basis(J)
        reductions = self.counted(monkeypatch, "_reduce")
        assert _colon(basis, 3, 2) == [{one: 1}]
        assert reductions == []
        assert reference_colon(_integer_gens(J), 3, 2) == [{one: 1}]
        assert reductions

    def test_an_ideal_of_terms_forms_no_s_polynomial(self, monkeypatch):
        # J = (z, x y^2, x^2 y): every pair is one of two terms, whose
        # S-polynomial is 0
        J = jacobian_ideal(p("z^2 + x^2*y^2", XYZ))
        s_polys = self.counted(monkeypatch, "_s_poly")
        assert reduced_basis(J) == _integer_gens(ideal("z", "x*y^2", "x^2*y", variables=XYZ))
        assert s_polys == []

    def test_the_final_pass_reduces_only_an_element_with_a_reducible_non_lead_term(
        self, monkeypatch
    ):
        # (x y + y^2, y^2) is a minimal Groebner basis that is not reduced:
        # the other lead y^2 divides the non-lead term y^2 of x y + y^2
        known = _integer_gens(ideal("x*y + y^2", "y^2"))
        reduced, original = [], groebner._reduce
        monkeypatch.setattr(
            groebner, "_reduce", lambda g, *rest: reduced.append(g) or original(g, *rest)
        )
        assert _groebner([], 1, known=known) == _integer_gens(ideal("y^2", "x*y"))
        assert reduced == [known[0]]
        basis = reduced_basis(MIXED)
        reduced.clear()
        assert _groebner([], 1, known=basis) == basis
        assert reduced == []

    def test_a_unit_generator_runs_no_buchberger(self, monkeypatch):
        runs = self.counted(monkeypatch, "_groebner")
        assert isolated_at_origin(ideal("x + y^2", "1 + x")) is True
        assert runs == []
        assert reference_isolated(ideal("x + y^2", "1 + x")) is True
        assert len(runs) == 1


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
