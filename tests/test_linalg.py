"""The fraction-free row-reduction kernel against a Fraction reference."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Optional

from hypothesis import given, strategies as st

from brieskorn.linalg import Span, kernel_relations

# -- reference: the Fraction row-reduction kernel, kept as it was -------------

Vec = dict[Hashable, Fraction]


def vec_axpy(target: Vec, scale: Fraction, source: Vec) -> None:
    """target += scale * source, dropping zeros (in place)."""
    for key, value in source.items():
        acc = target.get(key, Fraction(0)) + scale * value
        if acc == 0:
            target.pop(key, None)
        else:
            target[key] = acc


def vec_scale(vector: Vec, scale: Fraction) -> Vec:
    return {k: v * scale for k, v in vector.items()}


class RefSpan:
    """A subspace in reduced row echelon form with a chosen column order.

    When ``track`` is set, every row carries the combination of inserted
    vectors that produced it, which turns insertion into an online kernel
    computation: an insert that reduces to zero yields a kernel relation.
    """

    def __init__(self, key_order: Callable[[Hashable], object], track: bool = False):
        self.key_order = key_order
        self.rows: list[Vec] = []
        self.pivots: dict[Hashable, int] = {}
        self.track = track
        self.combos: list[Vec] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Vec, combo: Optional[Vec] = None) -> Vec:
        """Return the residual of ``vector`` against the span.

        If ``combo`` is given it is updated in place with the pivot-row
        combinations used, so that  original = residual + sum(combo * rows).
        """
        residual = dict(vector)
        hits = [k for k in residual if k in self.pivots]
        # Reduced rows only introduce non-pivot columns, one pass suffices.
        for key in hits:
            coeff = residual.get(key)
            if coeff is None or coeff == 0:
                continue
            row_idx = self.pivots[key]
            vec_axpy(residual, -coeff, self.rows[row_idx])
            if combo is not None and self.track:
                vec_axpy(combo, -coeff, self.combos[row_idx])
        return residual

    def insert(self, vector: Vec, tag: Optional[Hashable] = None) -> bool:
        """Insert a vector; returns True when it enlarged the span.

        ``tag`` labels the vector in tracked combinations.
        """
        combo: Optional[Vec] = None
        if self.track:
            combo = {tag: Fraction(1)} if tag is not None else {}
        residual = self.reduce(vector, combo)
        if not residual:
            self._last_kernel = combo
            return False
        pivot = min(residual, key=self.key_order)
        scale = Fraction(1) / residual[pivot]
        row = vec_scale(residual, scale)
        if combo is not None:
            combo = vec_scale(combo, scale)
        # keep existing rows reduced against the new pivot
        for idx, existing in enumerate(self.rows):
            coeff = existing.get(pivot)
            if coeff:
                vec_axpy(existing, -coeff, row)
                if self.track:
                    vec_axpy(self.combos[idx], -coeff, combo)
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        if self.track:
            self.combos.append(combo if combo is not None else {})
        self._last_kernel = None
        return True

    def last_kernel_combo(self) -> Optional[Vec]:
        """After a failed insert, the combination expressing the vector in
        terms of previously inserted ones (when tracking)."""
        return getattr(self, "_last_kernel", None)

    def contains(self, vector: Vec) -> bool:
        return not self.reduce(vector)

    def row_vectors(self) -> list[Vec]:
        return [dict(r) for r in self.rows]


def ref_kernel_relations(
    vectors: Iterable[tuple[Hashable, Vec]],
    key_order: Callable[[Hashable], object],
) -> list[Vec]:
    """Kernel of the linear map sending tagged basis elements to vectors.

    Returns one relation dict per dependent vector: tag -> coefficient,
    with the defining property  sum(coeff * vector_tag) = 0.
    """
    span = RefSpan(key_order, track=True)
    relations: list[Vec] = []
    for tag, vector in vectors:
        if not span.insert(vector, tag=tag):
            # insert() seeded the combination with +1 * tag and subtracted
            # pivot rows; a zero residual means sum(combo * v) = 0.
            combo = span.last_kernel_combo() or {tag: Fraction(1)}
            relations.append({k: v for k, v in combo.items() if v != 0})
    return relations


# -- strategies -----------------------------------------------------------------

COLUMNS = 5
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
    span, ref = Span(ORDERS[order]), RefSpan(ORDERS[order])
    for vec in vectors:
        before = dict(vec)
        assert span.insert(vec) == ref.insert(vec)
        assert vec == before
        assert_same_span(span, ref)
    for vec in probes + vectors:
        assert ordered(span.reduce(vec)) == ordered(ref.reduce(vec))
        assert span.contains(vec) == ref.contains(vec)


@given(vector_lists(), st.sampled_from(sorted(ORDERS)))
def test_integer_vectors_span_as_their_fractions(vectors, order):
    # all-integer input skips the denominator scan; scaling a vector to
    # integers changes no row, no insert result and no membership
    integers = []
    for vec in vectors:
        scale = lcm(*(v.denominator for v in vec.values()))
        integers.append({k: int(v * scale) for k, v in vec.items()})
    span, int_span = Span(ORDERS[order]), Span(ORDERS[order])
    for vec, int_vec in zip(vectors, integers):
        assert int_span.insert(int_vec) == span.insert(vec)
    assert int_span.row_vectors() == span.row_vectors()
    assert all(span.contains(v) for v in integers)


@given(vector_lists(), st.sampled_from(sorted(ORDERS)))
def test_kernel_relations_match_reference(vectors, order):
    tagged = [(("v", i), vec) for i, vec in enumerate(vectors)]
    relations = kernel_relations(tagged, ORDERS[order])
    assert [ordered(r) for r in relations] == [
        ordered(r) for r in ref_kernel_relations(tagged, ORDERS[order])
    ]
    for relation in relations:
        total: Vec = {}
        for tag, coeff in relation.items():
            vec_axpy(total, coeff, vectors[tag[1]])
        assert total == {}


@given(vector_lists(), vector_lists())
def test_copy_is_independent(vectors, more):
    span = Span(lambda k: k)
    for vec in vectors:
        span.insert(vec)
    rows = span.row_vectors()
    copied = span.copy()
    assert copied.row_vectors() == rows
    ref = RefSpan(lambda k: k)
    for vec in rows:
        ref.insert(vec)
    for vec in more:
        assert copied.insert(vec) == ref.insert(vec)
    assert_same_span(copied, ref)
    assert span.row_vectors() == rows


def test_new_pivot_cleared_from_several_rows():
    vectors = [
        {0: Fraction(2), 3: Fraction(1), 5: Fraction(1, 3)},
        {1: Fraction(1), 3: Fraction(-2, 3)},
        {2: Fraction(3, 4), 3: Fraction(1, 2), 4: Fraction(1)},
        {3: Fraction(1, 2), 4: Fraction(-1), 6: Fraction(5)},
    ]
    span, ref = Span(lambda k: k), RefSpan(lambda k: k)
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
    assert ordered(span.reduce(probe)) == ordered(ref.reduce(probe))
