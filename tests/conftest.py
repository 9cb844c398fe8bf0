"""Shared test configuration, polynomial strategies and test-only references."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from hypothesis import HealthCheck, settings, strategies as st

from brieskorn.errors import InconclusiveError, InputError
from brieskorn.linalg import Span
from brieskorn.local_algebra import (
    IdealGens,
    _ShiftedImages,
    ideal_jet_span,
    integer_terms,
    jacobian_ideal,
    jet_key_order,
    jet_quotient,
    monomials_below,
    monomials_of_weighted_degree,
    shifted_terms,
    truncate_vec,
)
from brieskorn.poly import Poly, WeightSystem

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def fractions(max_num: int = 6) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=4),
    )


def polys(
    variables: tuple[str, ...] = ("x", "y"),
    max_degree: int = 3,
    max_terms: int = 4,
) -> st.SearchStrategy[Poly]:
    n = len(variables)
    exponent = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * n))
    term = st.tuples(exponent, fractions())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: Poly(variables, {e: c for e, c in pairs if c != 0})
    )


class GradedIdeal:
    """Reference weighted-degree slices of a quasi-homogeneous ideal: each
    slice is a reduced ``Span`` of the generators' multiples of that
    weighted degree, built on its own and shared by no scan of the
    package."""

    def __init__(self, I: IdealGens, weights: WeightSystem):
        self.variables = I.variables
        self.int_weights, self.scale = weights.integer_scaled()
        self.gen_degrees: list[int] = []
        for g in I.generators:
            d = g.quasi_homogeneous_degree(weights.weights)
            if d is None:
                raise InputError(
                    f"generator {g.lowest_monic()} is not quasi-homogeneous "
                    "for the certificate"
                )
            self.gen_degrees.append(int(d * self.scale))
        self.generator_terms = [integer_terms(g) for g in I.generators]
        self._slices: dict[int, Span] = {}

    def monomials(self, wdeg: int):
        return monomials_of_weighted_degree(len(self.variables), self.int_weights, wdeg)

    def slice_span(self, wdeg: int) -> Span:
        if wdeg not in self._slices:
            span = Span(jet_key_order)
            for terms, d in zip(self.generator_terms, self.gen_degrees):
                if wdeg < d:
                    continue
                for m in self.monomials(wdeg - d):
                    span.insert(shifted_terms(terms, m))
            self._slices[wdeg] = span
        return self._slices[wdeg]


def greedy_slice_quotient(I: IdealGens, weights: WeightSystem) -> list:
    """Reference greedy basis of O/I for a quasi-homogeneous I isolated at
    0: the slices from weighted degree 0 up, each monomial in listing order
    kept when it is independent of the slice of I and of the monomials
    kept before it.  The scan stops after wmax consecutive nonempty slices
    that keep nothing: every slice is O_e = sum_j x_j O_(e - w_j), so by
    induction on e the quotient is 0 above them."""
    graded = GradedIdeal(I, weights)
    basis: list = []
    empty_run, wdeg = 0, 0
    while empty_run < max(graded.int_weights):
        monos = graded.monomials(wdeg)
        if monos:
            span = graded.slice_span(wdeg).copy()
            kept = [m for m in monos if span.insert({m: 1})]
            basis += kept
            empty_run = 0 if kept else empty_run + 1
        wdeg += 1
    return basis


def greedy_twisted_slices(I: IdealGens, V, weights: WeightSystem, top: int) -> list:
    """Reference greedy bases of the slices 0..``top`` of
    O/(I + V~(O)) for a field V graded for ``weights``: the slice of I,
    the twisted images V~(x^m) that land in it, then each monomial in
    listing order kept when independent of them and of the monomials kept
    before it.  Returns one list of kept monomials per slice."""
    graded = GradedIdeal(I, weights)
    w = graded.int_weights
    div = V.divergence()
    shifts = {sum(map(mul, e, w)) - w_i for w_i, c in zip(w, V.coefficients) for e in c.terms}
    shifts |= {sum(map(mul, e, w)) for e in div.terms}
    assert len(shifts) <= 1, "the field is not graded for these weights"
    shift = shifts.pop() if shifts else 0
    image = _ShiftedImages(V.coefficients, div)
    slices = []
    for wdeg in range(top + 1):
        span = graded.slice_span(wdeg).copy()
        for m in graded.monomials(wdeg - shift):
            span.insert(image(m))
        slices.append([m for m in graded.monomials(wdeg) if span.insert({m: 1})])
    return slices


def _stable_in_jets(compute: Callable, orders: range, message: str, **context):
    """The two-order jet stop rule of the references below: evaluate
    ``compute`` at each jet order in turn and return (value, orders tried)
    once two successive values are equal.  A heuristic, kept for the
    references because it shares no stop with the package's scans.  Raises
    InconclusiveError(message, **context) when the orders run out; when the
    cap is below the first order, the error names the cap that admits the
    two orders the rule compares."""
    if not orders:
        raise InconclusiveError(
            f"{message}: the jet cap is below the first jet order",
            first_order=orders.start,
            min_jet_cap=orders.start + orders.step,
        )
    previous = None
    for tried, order in enumerate(orders, 1):
        current = compute(order)
        if tried > 1 and current == previous:
            return current, tuple(orders[:tried])
        previous = current
    raise InconclusiveError(message, **context)


def stable_colength(I, start: int = 4, cap: int = 24):
    """Reference colength of I by the jet stop rule (two successive even
    orders agree), a route independent of the Groebner engine.  Returns
    (dim, monomial basis, the two agreeing orders); raises
    InconclusiveError when the quotient keeps growing up to the cap."""
    (dim, basis), orders = _stable_in_jets(
        lambda order: jet_quotient(I, order),
        range(max(2, start), cap + 1, 2),
        "colength did not stabilize (infinite colength?)",
        jet_cap=cap,
    )
    return dim, basis, orders[-2:]


@dataclass(frozen=True)
class MuResult:
    value: int
    basis: tuple[Poly, ...]
    exact: bool
    jet_orders: tuple[int, ...]


def _quotient_reps(big: Span, work: Span, monos, variables) -> list[Poly]:
    """Representatives of big/work: greedy monomials inside the big span
    first, then leftover reduced rows of big (some quotients, e.g. by a
    principal ideal on a rotated line, contain no monomials at all)."""
    reps: list[Poly] = []
    for m in monos:
        vec = {m: Fraction(1)}
        if big.contains(vec) and work.insert(vec):
            reps.append(Poly.monomial(variables, m))
    for row in big.row_vectors():
        if work.insert(row):
            reps.append(Poly(variables, dict(row)).lowest_monic())
    return reps


def _pair_quotient_jet(big: IdealGens, small: IdealGens, order: int):
    """dim (big-jets)/(small-jets) with greedy representatives inside the
    big ideal's span (monomials preferred)."""
    big_span = ideal_jet_span(big, order)
    work = ideal_jet_span(small, order)
    small_rank = work.rank
    basis = _quotient_reps(
        big_span, work, monomials_below(len(big.variables), order), big.variables
    )
    assert len(basis) == big_span.rank - small_rank
    return len(basis), basis


def mu(
    f: Poly,
    saturated: IdealGens,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
) -> MuResult:
    """Reference mu = dim saturated/J, J the Jacobian ideal of f, by a route
    independent of ``local_quotient``: the two ideals are compared slice by
    slice (graded, exact: the quotient stops after max(weights) empty
    slices past the top generator degree of ``saturated``, which that
    ideal generates) or jet by jet under the two-orders-apart stop rule
    (heuristic, ``exact`` False, capped by ``jet_cap``)."""
    if f.is_zero or f.is_constant():
        raise InputError("mu requires a nonconstant germ")
    if f.constant_value() != 0:
        raise InputError("mu requires f(0) = 0")
    J = jacobian_ideal(f)
    if weights is not None:
        graded_sat = GradedIdeal(saturated, weights)
        graded_jac = GradedIdeal(J, weights)
        wmax = max(graded_sat.int_weights)
        top_gen = max(graded_sat.gen_degrees)
        basis: list[Poly] = []
        total = zero_run = 0
        for wdeg in range(jet_cap * wmax + 1):
            monos = graded_sat.monomials(wdeg)
            if not monos:
                continue
            big = graded_sat.slice_span(wdeg)
            work = graded_jac.slice_span(wdeg).copy()
            count = big.rank - work.rank
            basis.extend(_quotient_reps(big, work, monos, f.variables))
            total += count
            zero_run = zero_run + 1 if count == 0 and wdeg > top_gen else 0
            if zero_run >= wmax:
                return MuResult(total, tuple(basis), True, ())
        raise InconclusiveError(
            "graded mu computation did not exhaust the quotient",
            wdeg_cap=jet_cap * wmax,
        )
    orders = range(max(6, f.total_degree() + 2), jet_cap + 1, 2)
    (value, jet_basis), tried = _stable_in_jets(
        lambda order: _pair_quotient_jet(saturated, J, order),
        orders,
        "mu did not stabilize",
        jet_orders=tuple(orders),
    )
    return MuResult(value, tuple(jet_basis), False, tried)


def nu_jet_basis(I: IdealGens, V, order: int) -> list:
    """Greedy monomial basis of O/(I + V~(O) + m^order) from one full exact
    span: the ideal jets, every twisted image V~(x^m) truncated below
    ``order`` (|m| < order + drop suffices), then the monomials."""
    n = len(I.variables)
    div = V.divergence()
    image = _ShiftedImages(V.coefficients, div)
    drop = max(
        [0]
        + [1 - c.order() for c in V.coefficients if not c.is_zero]
        + ([] if div.is_zero else [-div.order()])
    )
    span = ideal_jet_span(I, order)
    for m in monomials_below(n, order + drop):
        vec = truncate_vec(image(m), order)
        if vec:
            span.insert(vec)
    return [m for m in monomials_below(n, order) if span.insert({m: 1})]


def nu_jet_reference(I: IdealGens, V, target: int, jet_cap: int = 24):
    """Reference jet nu basis by the scan the package ran before its jet
    orders started at 1: the orders 10, 12, ... up to ``jet_cap``, each a
    full exact span (``nu_jet_basis``).  Returns the basis at the first
    order whose size reaches ``target``, or None when the cap comes first."""
    for order in range(max(6, min(10, jet_cap)), jet_cap + 1, 2):
        basis = nu_jet_basis(I, V, order)
        if len(basis) >= target:
            return tuple(basis)
    return None
