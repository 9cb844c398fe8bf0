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


def ordered(vec: Vec) -> list[tuple[Hashable, Fraction]]:
    """Entries in dict order: callers iterate rows, so the order is output."""
    return list(vec.items())


def assert_same_span(span: Span, ref: RefSpan) -> None:
    assert span.rank == ref.rank
    assert [ordered(r) for r in span.row_vectors()] == [
        ordered(r) for r in ref.row_vectors()
    ]


# -- properties -------------------------------------------------------------------


@given(vector_lists(), vector_lists(), st.sampled_from(sorted(ORDERS)))
def test_span_matches_reference(vectors, probes, order):
    vectors, probes = keyed(vectors, order), keyed(probes, order)
    span, ref = Span(), RefSpan(lambda k: k)
    for vec in vectors:
        before = dict(vec)
        assert span.insert(vec) == ref.insert(vec)
        assert vec == before
        assert_same_span(span, ref)
    for vec in probes + vectors:
        assert span.contains(vec) == ref.contains(vec)


@given(vector_lists(), st.sampled_from(sorted(ORDERS)))
def test_integer_vectors_span_as_their_fractions(vectors, order):
    # all-integer input skips the denominator scan; scaling a vector to
    # integers changes no row, no insert result and no membership
    vectors = keyed(vectors, order)
    integers = []
    for vec in vectors:
        scale = lcm(*(v.denominator for v in vec.values()))
        integers.append({k: int(v * scale) for k, v in vec.items()})
    span, int_span = Span(), Span()
    for vec, int_vec in zip(vectors, integers):
        assert int_span.insert(int_vec) == span.insert(vec)
    assert int_span.row_vectors() == span.row_vectors()
    assert all(span.contains(v) for v in integers)


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


def test_new_pivot_cleared_from_several_rows():
    vectors = [
        {0: Fraction(2), 3: Fraction(1), 5: Fraction(1, 3)},
        {1: Fraction(1), 3: Fraction(-2, 3)},
        {2: Fraction(3, 4), 3: Fraction(1, 2), 4: Fraction(1)},
        {3: Fraction(1, 2), 4: Fraction(-1), 6: Fraction(5)},
    ]
    span, ref = Span(), RefSpan(lambda k: k)
    for vec in vectors:
        assert span.insert(vec) and ref.insert(vec)
    assert_same_span(span, ref)
    rows = span.row_vectors()
    # pivot 3 left the first three rows and brought column 6 into them
    assert all(3 not in row and 6 in row for row in rows[:3])
    assert rows[3] == {3: Fraction(1), 4: Fraction(-2), 6: Fraction(10)}
    # column 6 must now be cleared from every row, including those it entered
    # by back-substitution
    assert span.insert({6: Fraction(1, 2)}) and ref.insert({6: Fraction(1, 2)})
    assert_same_span(span, ref)
    assert [6 in row for row in span.row_vectors()] == [False] * 4 + [True]
    combined = combine(vectors, [(0, Fraction(1)), (3, Fraction(-2, 5))])
    assert span.contains(combined) and ref.contains(combined)
    probe = {4: Fraction(1), 5: Fraction(1, 2)}
    assert span.contains(probe) == ref.contains(probe)
