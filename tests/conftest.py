"""Shared test configuration, polynomial strategies and test-only references."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from hypothesis import HealthCheck, settings, strategies as st

from brieskorn.errors import InconclusiveError, InputError
from brieskorn.linalg import Span
from brieskorn.local_algebra import (
    IdealGens,
    _GradedIdeal,
    _stable_in_jets,
    ideal_jet_span,
    jacobian_ideal,
    jet_quotient,
    monomials_below,
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
        graded_sat = _GradedIdeal(saturated, weights)
        graded_jac = _GradedIdeal(J, weights)
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
