"""The fraction-free row-reduction kernel against a Fraction reference."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable

from hypothesis import given, strategies as st

from brieskorn.linalg import Span, Vec, intersection

from conftest import RefSpan, vec_axpy

# -- strategies -----------------------------------------------------------------

COLUMNS = 5
# A Span orders columns as themselves, so a test picks the column order by
# renaming the columns: k keeps them ascending, -k reverses them.
ORDERS = {"ascending": lambda k: k, "descending": lambda k: -k}

NONZERO = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=6) | st.integers(min_value=-6, max_value=-1),
    st.integers(min_value=1, max_value=4),
)
SPARSE = st.dictionaries(
    st.integers(min_value=0, max_value=COLUMNS - 1), NONZERO, max_size=5
)
INDEX = st.integers(min_value=0, max_value=9)
KIND = st.sampled_from(["fresh", "fresh", "repeat", "combination"])
PICKS = st.lists(st.tuples(INDEX, NONZERO), min_size=1, max_size=3)


def combine(vectors: list[Vec], picks: list[tuple[int, Fraction]]) -> Vec:
    out: Vec = {}
    for index, scale in picks:
        vec_axpy(out, scale, vectors[index % len(vectors)])
    return out


@st.composite
def vector_lists(draw) -> list[Vec]:
    """Random sparse vectors, some repeated and some combinations of earlier
    ones, so that inserts both enlarge the span and reduce to zero."""
    vectors: list[Vec] = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(KIND)
        if kind == "fresh" or not vectors:
            vectors.append(draw(SPARSE))
        elif kind == "repeat":
            vectors.append(dict(vectors[draw(INDEX) % len(vectors)]))
        else:
            vectors.append(combine(vectors, draw(PICKS)))
    return vectors


def keyed(vectors: list[Vec], order: str) -> list[Vec]:
    """The vectors with each column k renamed ORDERS[order](k)."""
    return [{ORDERS[order](k): v for k, v in vec.items()} for vec in vectors]


def integral(vec: Vec) -> dict[Hashable, int]:
    """The vector times the lcm of its denominators: the same line, with
    all-integer entries, which skip the denominator scan."""
    scale = lcm(*(v.denominator for v in vec.values()))
    return {k: int(v * scale) for k, v in vec.items()}


def agrees_with_the_reference(vectors, others, probes, picks) -> bool:
    """A ``Span`` of ``vectors`` against the ``RefSpan`` of them: each
    insert enlarges both or neither, as it does a ``Span`` of the integral
    vectors, and leaves its vector as it was; the spans have the same rank
    and the same pivot set, the leads being the least columns of the
    space's vectors; ``contains`` agrees on the probes, the vectors and
    combinations of them, in Fractions and in integers; and
    ``intersection`` with ``others`` has dim U + dim W - dim(U + W)
    vectors."""
    span, int_span, ref = Span(), Span(), RefSpan(lambda k: k)
    for vec in vectors:
        before = dict(vec)
        enlarged = span.insert(vec)
        if enlarged != ref.insert(vec) or enlarged != int_span.insert(integral(vec)):
            return False
        if vec != before:
            return False
    if span.rank != ref.rank or not set(span.rows) == set(ref.pivots) == set(int_span.rows):
        return False
    tested = probes + vectors + [combine(vectors, pick) for pick in picks]
    if any(span.contains(v) != ref.contains(v) for v in tested + list(map(integral, tested))):
        return False
    ranks = {}
    for name, spanned in (("U", vectors), ("W", others), ("U+W", vectors + others)):
        ranks[name] = RefSpan(lambda k: k)
        for vec in spanned:
            ranks[name].insert(vec)
    meet = intersection(vectors, others)
    return len(meet) == ranks["U"].rank + ranks["W"].rank - ranks["U+W"].rank


@st.composite
def span_cases(draw):
    """(vectors, others, probes, picks), with the columns in one drawn order."""
    order = draw(st.sampled_from(sorted(ORDERS)))
    lists = [keyed(draw(vector_lists()), order) for _ in range(3)]
    return (*lists, draw(st.lists(PICKS, max_size=3)))


# -- properties -------------------------------------------------------------------


@given(span_cases())
def test_span_is_the_space_of_the_reference(case):
    assert agrees_with_the_reference(*case)


@given(
    vector_lists(),
    vector_lists(),
    st.lists(PICKS, max_size=3),
    st.sampled_from(sorted(ORDERS)),
)
def test_intersection_is_a_basis_of_the_meet(first, more, picks, order):
    # some vectors of the second list are combinations of the first, so the
    # meet is often larger than the dimension count alone forces
    second = keyed(more + [combine(first, pick) for pick in picks], order)
    first = keyed(first, order)
    meet = intersection(first, second)
    spans = {name: RefSpan(lambda k: k) for name in ("U", "W", "U+W", "meet")}
    for name, vectors in (("U", first), ("W", second), ("U+W", first + second)):
        for vec in vectors:
            spans[name].insert(vec)
    assert all(spans["U"].contains(v) and spans["W"].contains(v) for v in meet)
    assert all(spans["meet"].insert(v) for v in meet)  # independent
    assert len(meet) == spans["U"].rank + spans["W"].rank - spans["U+W"].rank
    assert all(type(v) is int and v for vec in meet for v in vec.values())


def test_intersection_of_two_planes_is_their_line():
    # span(e0, e1) meet span(e1 + e2, e0 - e2) = the line of e0 + e1
    first = [{0: Fraction(1)}, {1: Fraction(1, 2)}]
    second = [{1: 1, 2: 1}, {0: 1, 2: -1}]
    for order, rename in ORDERS.items():
        [line] = intersection(keyed(first, order), keyed(second, order))
        assert line.keys() == {rename(0), rename(1)}
        assert line[rename(0)] == line[rename(1)]
    assert intersection(first, [{2: 3}]) == []
