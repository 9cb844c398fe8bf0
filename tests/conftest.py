"""Shared test configuration and polynomial strategies."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from brieskorn.local_algebra import _stable_in_jets, jet_quotient
from brieskorn.poly import Poly

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
