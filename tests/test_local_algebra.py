"""Jet quotients, saturation, mu, and twisted quotients.

Derived expected values are frozen from the independent monomial-ideal
oracle below (plain divisibility counting), never from the row-reduction
path they are checking.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, strategies as st

from brieskorn.curve import _exact_form_images
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.forms import DiffForm, VectorField
from brieskorn.groebner import isolated_at_origin, torsion_length
from brieskorn.local_algebra import (
    IdealGens,
    _PREDICTOR_MODULUS,
    _JetCounts,
    _ShiftedImages,
    _count_key,
    _nakayama_order,
    _twisted_raises,
    jacobian_ideal,
    local_colength,
    local_quotient,
    monomials_below,
    monomials_of_weighted_degree,
    twisted_quotient_dim,
)
from brieskorn.poly import Poly, WeightSystem, parse_polynomial

from conftest import (
    GradedIdeal,
    RefSpan,
    apply_twisted,
    greedy_slice_quotient,
    greedy_twisted_slices,
    ideal_jet_span,
    jet_key_order,
    jet_quotient,
    mu,
    nu_jet_basis,
    polys,
    ref_kernel_relations,
    saturate_at_origin,
    stable_colength,
    wedge,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def ideal(*texts, variables=XY):
    return IdealGens.of(variables, [p(t, variables) for t in texts])


def monomial_ideal_colength_oracle(generator_exponents, order, n_vars=2):
    """Independent oracle: count monomials of degree < order divisible by
    no generator of a monomial ideal."""
    count = 0
    for m in monomials_below(n_vars, order):
        if not any(
            all(me >= ge for me, ge in zip(m, gen)) for gen in generator_exponents
        ):
            count += 1
    return count


def spans_equal(I, J, order=12):
    si = ideal_jet_span(I, order)
    sj = ideal_jet_span(J, order)
    return si.rank == sj.rank and all(sj.contains(r) for r in si.row_vectors())


class TestJetQuotients:
    def test_maximal_ideal(self):
        assert jet_quotient(ideal("2*x", "2*y"), 5)[0] == 1

    def test_monomial_ideal_against_oracle(self):
        # (3x^2, 4y^3): the oracle counts {1, x, y, xy, y^2, xy^2}
        expected = monomial_ideal_colength_oracle([(2, 0), (0, 3)], 8)
        assert expected == 6
        assert jet_quotient(ideal("3*x^2", "4*y^3"), 8)[0] == expected

    def test_not_stabilized_principal(self):
        expected = monomial_ideal_colength_oracle([(2, 0)], 4)
        assert expected == 7
        assert jet_quotient(ideal("x^2"), 4)[0] == expected
        # the quotient is infinite dimensional: the jet value keeps growing
        assert jet_quotient(ideal("x^2"), 6)[0] > 7

    def test_monotone_in_generators(self):
        small = ideal("x^2", "y^3")
        large = ideal("x^2", "y^3", "x*y")
        for order in (4, 6, 8):
            assert jet_quotient(large, order)[0] <= jet_quotient(small, order)[0]

    def test_monotone_in_order(self):
        I = ideal("x^3", "y^2 + x^5")
        dims = [jet_quotient(I, order)[0] for order in (2, 4, 6, 8, 10)]
        assert dims == sorted(dims)

    def test_basis_lists_standard_monomials(self):
        dim, basis = jet_quotient(ideal("3*x^2", "4*y^3"), 8)
        names = {str(Poly.monomial(XY, e)) for e in basis}
        assert dim == 6
        assert names == {"1", "x", "y", "x*y", "y^2", "x*y^2"}

    def test_stable_colength_raises_on_infinite(self):
        with pytest.raises(InconclusiveError, match="colength did not stabilize") as info:
            stable_colength(ideal("x^2"), cap=14)
        assert info.value.context == {"jet_cap": 14}

    def test_stable_colength_reports_the_agreeing_orders(self):
        dim, basis, orders = stable_colength(ideal("x^2", "y^3"), cap=14)
        assert (dim, orders) == (6, (4, 6))
        assert len(basis) == 6


class TestJacobianIdeal:
    def test_sextic_factors_as_claimed(self):
        f = p("x^3*(x^3+y^3)")
        J = jacobian_ideal(f)
        # the partials factor through x^2 exactly
        assert f.derivative("x") == p("3*x^2") * p("2*x^3 + y^3")
        assert f.derivative("y") == p("3*x^2") * p("x*y^2")
        assert spans_equal(J, ideal("x^2*(2*x^3+y^3)", "x^3*y^2"))

    def test_simple_cases(self):
        assert spans_equal(jacobian_ideal(p("x^2+y^2")), ideal("x", "y"))
        assert spans_equal(jacobian_ideal(p("x^2*y^2")), ideal("x*y^2", "x^2*y"))

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            jacobian_ideal(Poly.constant(XY, 5))


class TestSaturation:
    def test_sextic_saturates_to_x_squared(self):
        result = saturate_at_origin(jacobian_ideal(p("x^3*(x^3+y^3)")))
        assert [str(g) for g in result.generators] == ["x^2"]

    def test_sextic_saturation_jet_path(self):
        result = saturate_at_origin(jacobian_ideal(p("x^3*(x^3+y^3)")))
        assert spans_equal(result, ideal("x^2"))

    def test_isolated_gives_unit_ideal(self):
        result = saturate_at_origin(jacobian_ideal(p("x^2+y^2")))
        assert result.contains_unit()
        assert [str(g) for g in result.generators] == ["1"]

    def test_monomial_example(self):
        result = saturate_at_origin(ideal("x*y^2", "x^2*y"))
        assert spans_equal(result, ideal("x*y"))

    def test_contains_original_ideal(self):
        I = ideal("x*y^2", "x^2*y")
        span = ideal_jet_span(saturate_at_origin(I), 10)
        for g in I.generators:
            assert span.contains({e: c for e, c in g.terms.items()})

    def test_idempotent(self):
        I = ideal("x*y^2", "x^2*y")
        once = saturate_at_origin(I)
        twice = saturate_at_origin(once)
        assert spans_equal(once, twice)

    def test_two_dimensional_zero_set_is_its_own_saturation(self):
        # one variable's worth of equations in three variables: m is not
        # associated to (x), and the saturation needs no dimension bound
        I = IdealGens.of(XYZ, [p("x", XYZ)])
        assert [str(g) for g in saturate_at_origin(I).generators] == ["x"]


# -- reference: the graded colon chain that recomputes every slice ------------


def reference_colon_span(monos, targets):
    """The colon step probing each target with a Fraction unit vector."""
    candidates = []
    for m in monos:
        compound = {}
        for i, target in enumerate(targets):
            shifted = tuple(e + (1 if j == i else 0) for j, e in enumerate(m))
            residual = {shifted: Fraction(1)}
            if target is not None:
                residual = target.reduce(residual)
            for key, value in residual.items():
                compound[(i, key)] = value
        candidates.append((m, compound))
    relations = ref_kernel_relations(
        candidates, key_order=lambda k: (k[0], jet_key_order(k[1]))
    )
    colon = RefSpan(jet_key_order)
    for rel in relations:
        colon.insert(rel)
    return colon


def reference_graded_saturate(I, weights, jet_cap, window):
    """Every slice 0..top recomputed at every colon step."""
    graded = GradedIdeal(I, weights)
    wmax = max(graded.int_weights)
    wdeg_cap = jet_cap * wmax

    def colon_once(prev, top):
        out = {}
        for wdeg in range(0, top + 1):
            monos = graded.monomials(wdeg)
            targets = [prev.get(wdeg + w) for w in graded.int_weights]
            if monos:
                out[wdeg] = reference_colon_span(monos, targets)
            else:
                out[wdeg] = RefSpan(jet_key_order)
        return out

    base = {}
    for wdeg in range(wdeg_cap + 1):
        base[wdeg] = RefSpan(jet_key_order)
        for row in graded.slice_span(wdeg).row_vectors():
            base[wdeg].insert(row)
    current = base
    steps = 0
    while steps < jet_cap:
        top = wdeg_cap - (steps + 1) * wmax
        if top < 0:
            break
        nxt = colon_once(current, top)
        if all(nxt[w].rank == current[w].rank for w in range(top + 1)):
            margin = max(window, wmax + 1)
            nonempty = [w for w in range(top + 1) if graded.monomials(w)]
            tail = nonempty[-margin:] if margin > 0 else []
            if any(nxt[w].rank != base[w].rank for w in tail):
                raise InconclusiveError("graded saturation still active near the cap")
            return nxt, top, steps
        current = nxt
        steps += 1
    raise InconclusiveError("graded colon chain did not stabilize")


def reduced_rows(span):
    """Reduced rows are unique; their order is insertion order."""
    return {frozenset(row.items()) for row in span.row_vectors()}


# the colon step counts of the reference chain, which concludes on all five
@pytest.mark.parametrize(
    "f, weights, colon_steps",
    [
        (p("x^3*(x^3+y^3)"), (1, 1), 5),
        (p("x^2*(x^2+y^3)"), (3, 2), 5),
        (p("x^2*y^2*(x+y)^2*(x-y)^2"), (1, 1), 5),
        (p("x^3*y^2*(x^2+y^3)"), (3, 2), 7),
        (p("z^2+x^2*y^2", XYZ), (1, 1, 1), 1),
    ],
    ids=str,
)
def test_graded_colon_chain_matches_full_recompute(f, weights, colon_steps):
    # the Groebner saturation has the slices of the reference colon chain;
    # the Jacobian ideal is graded for these weights even where f is not
    # (z^2 + x^2 y^2), so the certificate's total degree plays no part
    I, ws = jacobian_ideal(f), WeightSystem(weights, 1)
    ref_slices, top, steps = reference_graded_saturate(I, ws, 24, 4)
    assert steps == colon_steps
    saturated = GradedIdeal(saturate_at_origin(I), ws)
    for wdeg in range(top + 1):
        assert reduced_rows(saturated.slice_span(wdeg)) == reduced_rows(ref_slices[wdeg])


def vanishing_polys(variables=XY, max_exponent=3, max_terms=3):
    """Polynomials without a constant term, so that they vanish at 0;
    most also vanish elsewhere (x - x^2 at x = 1)."""
    exponent = st.tuples(
        *([st.integers(0, max_exponent)] * len(variables))
    ).filter(any)
    coefficient = st.sampled_from([-3, -2, -1, 1, 2, 3])
    terms = st.lists(st.tuples(exponent, coefficient), min_size=1, max_size=max_terms)
    return terms.map(lambda pairs: Poly(variables, dict(pairs)))


@st.composite
def weighted_ideals(draw):
    """Two generators, each a random combination of the monomials of one
    weighted degree, with the weight system that grades them."""
    weights = draw(st.sampled_from([(1, 1), (2, 1), (3, 2), (5, 2)]))
    generators = []
    for _ in range(2):
        monos = ()
        while not monos:
            monos = monomials_of_weighted_degree(2, weights, draw(st.integers(1, 10)))
        size = len(monos)
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        generators.append(Poly(XY, dict(zip(monos, coefficients))))
    assume(not any(g.is_zero for g in generators))
    return IdealGens.of(XY, generators), WeightSystem(weights, 1)


class TestLocalQuotient:
    """The colength of an ideal isolated at 0, by the Nakayama jet stop or
    the graded slice stop, against the Groebner torsion length."""

    @given(st.lists(vanishing_polys(), min_size=2, max_size=3))
    @example([p("x - x^2"), p("y")])
    @example([p("x - x^2"), p("y^2 - y^3")])
    @example([p("x^2*y - x"), p("y - x*y^2")])
    def test_jet_scan_equals_torsion_length(self, generators):
        I = IdealGens.of(XY, generators)
        assume(isolated_at_origin(I))
        dim, basis = local_quotient(I)
        assert dim == len(basis) == torsion_length(I) == local_colength(I)

    @given(weighted_ideals())
    def test_graded_scan_equals_jet_scan(self, data):
        I, ws = data
        assume(isolated_at_origin(I))
        graded_dim, graded_basis = local_quotient(I, ws)
        jet_dim, jet_basis = local_quotient(I)
        assert graded_dim == len(graded_basis) == jet_dim == torsion_length(I)
        assert local_colength(I, ws) == graded_dim
        if ws.weights == (1, 1):  # the same greedy order
            assert graded_basis == jet_basis

    def test_points_away_from_zero_do_not_count(self):
        # (x - x^2, y^2 - y^3) vanishes at four points; at 0 the ideal is (x, y^2)
        assert local_quotient(ideal("x - x^2", "y^2 - y^3")) == (2, [(0, 0), (0, 1)])
        assert local_quotient(ideal("x - 1", "y")) == (0, [])

    def test_no_cap(self):
        # the Nakayama stop comes at order 40, past any jet cap
        assert local_quotient(ideal("x^40", "y"))[0] == 40
        dim, basis = local_quotient(ideal("x^40", "y^3"), WeightSystem((3, 40), 1))
        assert dim == len(basis) == 120

    def test_unit_ideal(self):
        assert local_quotient(ideal("1 + x", "y")) == (0, [])
        assert local_quotient(ideal("2", "x"), WeightSystem((1, 1), 1)) == (0, [])


def weighted_generators(draw, weights, variables, count, max_degree):
    """``count`` generators, each a random combination of the monomials of
    one weighted degree in 1..``max_degree``."""
    n = len(variables)
    degrees = [d for d in range(1, max_degree + 1) if monomials_of_weighted_degree(n, weights, d)]
    generators = []
    for _ in range(count):
        monos = monomials_of_weighted_degree(n, weights, draw(st.sampled_from(degrees)))
        size = len(monos)
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        generators.append(Poly(variables, dict(zip(monos, coefficients))))
    assume(not any(g.is_zero for g in generators))
    return generators


WEIGHTS = [(1, 1), (3, 2), (5, 2), (2, 1, 1)]


@st.composite
def quasi_homogeneous_ideals(draw):
    """n or n + 1 quasi-homogeneous generators in n = 2 or 3 variables,
    with the weight system that grades them; kept when the ideal is
    isolated at 0."""
    weights = draw(st.sampled_from(WEIGHTS))
    variables = XY if len(weights) == 2 else XYZ
    count = draw(st.integers(len(weights), len(weights) + 1))
    max_degree = 8 if len(weights) == 2 else 4
    I = IdealGens.of(variables, weighted_generators(draw, weights, variables, count, max_degree))
    assume(isolated_at_origin(I))
    return I, WeightSystem(weights, 1)


@st.composite
def graded_twisted_problems(draw):
    """One or two quasi-homogeneous generators and a field graded for the
    same weights: each V_i a random combination of the monomials of
    weighted degree s + w_i, for one shift s (negative shifts lower the
    order)."""
    weights = draw(st.sampled_from(WEIGHTS))
    variables = XY if len(weights) == 2 else XYZ
    n = len(variables)
    I = IdealGens.of(
        variables, weighted_generators(draw, weights, variables, draw(st.integers(1, 2)), 6)
    )
    shift = draw(st.integers(-max(weights), 3))
    coefficients = []
    for w in weights:
        monos = monomials_of_weighted_degree(n, weights, shift + w)
        values = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        coefficients.append(Poly(variables, dict(zip(monos, values))))
    return I, VectorField(variables, tuple(coefficients)), WeightSystem(weights, 1)


class TestWeightedCounts:
    """With a certificate the weighted count's non-lead monomials are the
    greedy slice basis of the reference; off homogeneous input they differ
    from the greedy jet basis, which is why the unweighted count reads its
    basis off a greatest-term span instead."""

    @given(quasi_homogeneous_ideals())
    def test_local_quotient_is_the_greedy_slice_basis(self, data):
        I, ws = data
        dim, basis = local_quotient(I, ws)
        assert basis == greedy_slice_quotient(I, ws)
        assert local_colength(I, ws) == dim == len(basis)

    @given(graded_twisted_problems(), st.integers(0, 10))
    def test_twisted_basis_is_the_greedy_slice_basis(self, problem, top):
        # the scan stops at the first order whose count reaches the target,
        # so the target is the reference's total over the slices 0..top
        I, V, ws = problem
        slices = greedy_twisted_slices(I, V, ws, top)
        target = sum(map(len, slices))
        result = twisted_quotient_dim(I, V, target, ws, jet_cap=top + 6)
        assert result.dim == target
        assert result.basis == tuple(m for kept in slices for m in kept)

    def test_non_leads_differ_from_the_greedy_basis_off_homogeneous_input(self):
        # the leads of (x + y^2, y^3) include x, so the non-leads are
        # 1, y, y^2; the greedy graded pass keeps x, as x = -y^2 mod I lies
        # in no span of lower monomials
        I = ideal("x + y^2", "y^3")
        counts = _JetCounts(I)
        stop = _nakayama_order(counts)
        non_leads = [
            m
            for d in range(stop)
            for m in counts.monomials(d)
            if _count_key(m, counts.weights) not in counts.rows
        ]
        assert non_leads == [(0, 0), (0, 1), (0, 2)]
        assert local_quotient(I) == jet_quotient(I, stop) == (3, [(0, 0), (1, 0), (0, 1)])
        assert counts.basis(stop) == [(0, 0), (1, 0), (0, 1)]

    def test_a_certificate_that_does_not_grade_the_ideal_is_an_input_error(self):
        ws, I = WeightSystem((1, 1), 1), ideal("x + y^2")
        euler = VectorField(XY, (p("x"), p("y")))
        for scan in (
            lambda: local_quotient(I, ws),
            lambda: local_colength(I, ws),
            lambda: twisted_quotient_dim(I, euler, 1, ws),
        ):
            with pytest.raises(InputError, match="is not quasi-homogeneous for the certificate"):
                scan()

    def test_a_field_the_certificate_does_not_grade_scans_the_jet_orders(self):
        I = ideal("x^2")
        V = VectorField(XY, (p("x*y^2 + y"), p("-(2*x^3+y^3)")))
        target = len(nu_jet_basis(I, V, 4))
        ws = WeightSystem((1, 1), 6)
        assert twisted_quotient_dim(I, V, target, ws) == twisted_quotient_dim(I, V, target)


@st.composite
def isolated_ideals(draw):
    """x_i^(a_i) + r_i for each variable, r_i vanishing at 0, and at most
    one more vanishing generator, in two or three variables; kept when the
    ideal is isolated at 0."""
    variables = draw(st.sampled_from([XY, XYZ]))
    generators = []
    for i in range(len(variables)):
        power = tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(len(variables)))
        generators.append(Poly.monomial(variables, power) + draw(vanishing_polys(variables)))
    generators += draw(st.lists(vanishing_polys(variables), max_size=1))
    assume(not any(g.is_zero for g in generators))
    I = IdealGens.of(variables, generators)
    assume(isolated_at_origin(I))
    return I


@st.composite
def jet_problems(draw):
    """A random ideal vanishing at 0 in two or three variables and, in two,
    sometimes a random field: (I, twisted image map or None, drop)."""
    variables = draw(st.sampled_from([XY, XYZ]))
    generators = draw(st.lists(vanishing_polys(variables), min_size=1, max_size=3))
    I = IdealGens.of(variables, generators)
    if variables == XYZ or draw(st.booleans()):
        return I, None, 0
    V = VectorField(XY, (draw(polys()), draw(polys())))
    div = V.divergence()
    drop = max(0, -min(_twisted_raises(V, div, (1, 1)), default=0))
    return I, _ShiftedImages(V.coefficients, div), drop


class TestJetCounts:
    """The least-term count gives dim O/(I + m^k) for every order k at once;
    over GF(p) it never counts less."""

    @given(jet_problems())
    @example((ideal("x + y^2", "y^3"), None, 0))
    def test_basis_is_the_greedy_jet_basis(self, problem):
        # the reference inserts one unit vector per monomial; the count
        # reads the same basis off the pivots of its greatest-term span,
        # exact or over GF(p)
        I, image, drop = problem
        exact = _JetCounts(I, image, drop)
        modular = _JetCounts(I, image, drop, 6, _PREDICTOR_MODULUS)
        for k in range(1, 7):
            expected = jet_quotient(I, k, image, drop)[1]
            assert exact.basis(k) == modular.basis(k) == expected

    @given(isolated_ideals())
    @example(ideal("x^2", "y^3"))
    @example(ideal("x - x^2", "y^2 - y^3"))
    @example(ideal("1 + x", "y"))
    def test_equals_the_jet_quotient_at_every_order(self, I):
        # a cap of 12 changes no count below it; the capless count (the
        # Nakayama scan's) is read up to the order after its stop
        exact, modular = _JetCounts(I, cap=12), _JetCounts(I, cap=12, modulus=3)
        capless = _JetCounts(I)
        stop = _nakayama_order(capless)
        for k in range(1, 13):
            q = jet_quotient(I, k)[0]
            assert exact.quotient_dim(k) == q
            assert modular.quotient_dim(k) >= q
            if k <= stop + 1:
                assert capless.quotient_dim(k) == q

    def test_counts_in_any_order_of_asking(self):
        I = ideal("x^3 + y^4", "x*y^2")
        counts = _JetCounts(I)
        assert counts.quotient_dim(9) == jet_quotient(I, 9)[0]
        assert [counts.quotient_dim(k) for k in range(1, 10)] == [
            jet_quotient(I, k)[0] for k in range(1, 10)
        ]


def saturation(f):
    return saturate_at_origin(jacobian_ideal(f))


class TestMu:
    def test_sextic(self):
        f = p("x^3*(x^3+y^3)")
        ws = WeightSystem.for_poly(f, (1, 1))
        result = mu(f, saturation(f), ws, jet_cap=24)
        assert result.value == 9
        assert result.exact

    def test_sextic_jet_path_agrees(self):
        f = p("x^3*(x^3+y^3)")
        result = mu(f, saturation(f), None, jet_cap=18)
        assert result.value == 9
        assert not result.exact
        assert result.jet_orders == (8, 10)

    def test_jet_path_inconclusive_below_two_orders(self):
        with pytest.raises(InconclusiveError, match="mu did not stabilize") as info:
            mu(p("x^3*(x^3+y^3)"), ideal("x^2"), None, jet_cap=8)
        assert info.value.context == {"jet_orders": (8,)}

    def test_isolated_is_milnor_number(self):
        f = p("x^2+y^2")
        assert mu(f, saturation(f), None, jet_cap=12).value == 1

    def test_x2y2(self):
        # (xy)/(xy^2, x^2y) has the single class xy
        f = p("x^2*y^2")
        result = mu(f, saturation(f), WeightSystem((1, 1), 4), jet_cap=16)
        assert result.value == 1
        assert [str(b) for b in result.basis] == ["x*y"]

    def test_cap_independence_with_certificate(self):
        f = p("x^3*(x^3+y^3)")
        ws = WeightSystem.for_poly(f, (1, 1))
        r1 = mu(f, saturation(f), ws, jet_cap=20)
        r2 = mu(f, saturation(f), ws, jet_cap=28)
        assert r1.value == r2.value
        assert [str(b) for b in r1.basis] == [str(b) for b in r2.basis]

    def test_preconditions(self):
        with pytest.raises(InputError):
            mu(Poly.constant(XY, 3), ideal("1"))
        with pytest.raises(InputError):
            mu(p("x + 1"), ideal("1"))


class TestTwistedQuotient:
    """The nu scans stop at the first slice or jet order whose lower bound
    reaches the target; a bound past it, or a negative target, is a defect,
    and a cap reached first is inconclusive."""

    def sextic_field(self):
        return VectorField(XY, (p("x*y^2"), p("-(2*x^3+y^3)")))

    def sextic(self, target, graded, jet_cap=24):
        """The sextic's nu scan: (x^2) and its field, graded or jet."""
        ws = WeightSystem.for_poly(p("x^6+x^3*y^3"), (1, 1)) if graded else None
        return twisted_quotient_dim(ideal("x^2"), self.sextic_field(), target, ws, jet_cap)

    def test_sextic(self):
        result = self.sextic(4, True)
        assert result.dim == 4
        assert [str(Poly.monomial(XY, e)) for e in result.basis] == ["1", "x", "y", "x*y"]

    def test_sextic_jet_path(self):
        # nu_3 = 4: the jet order 3 reaches the target
        result = self.sextic(4, False, jet_cap=3)
        assert result.dim == 4
        assert [str(Poly.monomial(XY, e)) for e in result.basis] == ["1", "x", "y", "x*y"]

    def test_jet_path_stop_rule(self, monkeypatch):
        orders = []
        greatest_terms = _JetCounts._greatest_terms

        def counted(counts, order):
            orders.append(order)
            return greatest_terms(counts, order)

        monkeypatch.setattr(_JetCounts, "_greatest_terms", counted)
        # nu_1, nu_2, nu_3 = 1, 3, 4: the orders run from 1, and the exact
        # span is built once, at order 3, the first that reaches the target
        assert self.sextic(4, False, jet_cap=20).dim == 4
        assert orders == [3]
        # a target above nu is never reached: the count never asks for the
        # exact span, and the cap ends the scan
        with pytest.raises(
            InconclusiveError, match="twisted quotient did not reach the target nu"
        ) as info:
            self.sextic(5, False, jet_cap=12)
        assert info.value.context == {"target": 5, "jet_cap": 12}
        assert orders == [3]
        # a cap below the stop order is inconclusive too
        with pytest.raises(InconclusiveError) as info:
            self.sextic(4, False, jet_cap=2)
        assert info.value.context == {"target": 4, "jet_cap": 2}

    def test_graded_cap_exhausted(self):
        with pytest.raises(
            InconclusiveError, match="graded twisted quotient did not reach the target nu"
        ) as info:
            self.sextic(5, True, jet_cap=12)
        assert info.value.context == {"target": 5, "wdeg_cap": 12}

    def test_overshoot_raises(self):
        # the graded slices of the sextic give the totals 1, 3, 4 and the jet
        # orders 1, 2, 3 give nu_N = 1, 3, 4: both pass 2 at their second step
        for graded in (True, False):
            with pytest.raises(RuntimeError, match="found 3 classes, past the target 2"):
                self.sextic(2, graded)

    @pytest.mark.parametrize("graded", [True, False], ids=["graded", "jet"])
    def test_negative_target_raises(self, graded):
        with pytest.raises(RuntimeError, match="negative nu target -1"):
            self.sextic(-1, graded)

    def test_euler_field_on_xy(self):
        # the twisted action scales monomials by (p - q), killing p != q;
        # the diagonal p = q >= 1 lies in (xy), leaving only the constants
        v = VectorField(XY, (p("x"), p("-y")))
        for a, b in [(2, 1), (1, 3), (4, 0)]:
            m = Poly.monomial(XY, (a, b))
            assert apply_twisted(v, m) == m * Fraction(a - b)
        ws = WeightSystem((1, 1), 2)
        result = twisted_quotient_dim(ideal("x*y"), v, 1, ws, 16)
        assert result.dim == 1
        assert [str(Poly.monomial(XY, e)) for e in result.basis] == ["1"]

    def test_unit_ideal(self):
        v = self.sextic_field()
        result = twisted_quotient_dim(ideal("1"), v, 0, WeightSystem((1, 1), 6), 12)
        assert result.dim == 0
        assert result.basis == ()

    def test_zero_field_degenerates_to_colength(self):
        I = ideal("x", "y")
        expected, _, _ = stable_colength(I, cap=10)
        ws = WeightSystem((1, 1), 2)
        result = twisted_quotient_dim(I, VectorField.zero(XY), expected, ws, 12)
        assert result.dim == expected == 1

    def test_cap_independence_with_certificate(self):
        r1, r2 = self.sextic(4, True, jet_cap=18), self.sextic(4, True, jet_cap=26)
        assert (r1.dim, r1.basis) == (r2.dim, r2.basis)


def rational_polys(variables, max_degree=3, max_terms=3):
    """Polynomials whose coefficients are odd over even: never integers."""
    exponent = st.tuples(*([st.integers(0, max_degree)] * len(variables)))
    coefficient = st.builds(
        lambda k, d: Fraction(2 * k + 1, d),
        st.integers(-4, 3),
        st.sampled_from([2, 4, 6]),
    )
    terms = st.lists(st.tuples(exponent, coefficient), min_size=1, max_size=max_terms)
    return terms.map(lambda pairs: Poly(variables, dict(pairs)))


def exponents(n):
    return st.tuples(*([st.integers(0, 4)] * n))


def scaled_down(image: _ShiftedImages, m) -> dict:
    return {k: Fraction(v, image.scale) for k, v in image(m).items()}


class TestShiftedImages:
    """The integer exponent-shift kernel, divided by its scale, equals the
    Poly/DiffForm reference on random rational data."""

    @given(rational_polys(XY), rational_polys(XY), exponents(2))
    def test_twisted_action(self, a, b, m):
        field = VectorField(XY, (a, b))
        image = _ShiftedImages(field.coefficients, field.divergence())
        assert image.scale > 1
        reference = apply_twisted(field, Poly.monomial(XY, m))
        assert scaled_down(image, m) == reference.terms

    @given(
        st.sampled_from([XY, XYZ, XYZ + ("w",)]).flatmap(
            lambda vs: st.tuples(
                st.just(vs),
                st.lists(rational_polys(vs), min_size=len(vs), max_size=len(vs)),
                exponents(len(vs)),
            )
        )
    )
    def test_exact_forms(self, data):
        variables, coefficients, m = data
        n = len(variables)
        alpha = DiffForm(variables, 1, {(i,): c for i, c in enumerate(coefficients)})
        images = _exact_form_images(alpha)
        assert len(images) == comb(n, 2)
        for index_set, image in images:
            eta = DiffForm(variables, n - 2, {index_set: Poly.monomial(variables, m)})
            reference = wedge(eta, alpha).d().coefficient(tuple(range(n)))
            assert scaled_down(image, m) == reference.terms
