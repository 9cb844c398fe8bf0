"""Incremental reduced row echelon spans over the rationals.

Vectors are sparse dicts mapping comparable column keys to nonzero
Fractions or integers.  Columns compare as themselves: a row's pivot is
its least column key, so a caller chooses the column order by the keys it
writes.  A ``Span`` keeps its rows fully reduced (each pivot column
appears in exactly one row), so membership tests and the set of pivots
are canonical and deterministic.

Inside a ``Span`` the arithmetic is fraction-free.  Each row is stored as a
primitive integer dict (its entries share no common factor), and the true
reduced row is that integer row divided by its own pivot entry.
``Fraction`` values are built only where rows leave the span, in
``row_vectors``.  A column index maps each non-pivot column to the rows
holding a nonzero entry there, so a new pivot is cleared from exactly the
rows that contain it.  ``intersection`` meets two spans with one more
``Span`` (Zassenhaus's sum-space echelon).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable

Vec = dict[Hashable, Fraction]


def vec_axpy(target: dict, scale, source: dict) -> None:
    """target += scale * source, dropping zeros (in place); values may be
    Fractions or integers."""
    for key, value in source.items():
        acc = target.get(key, 0) + scale * value
        if acc == 0:
            target.pop(key, None)
        else:
            target[key] = acc


_INT = {int}


def _integer_vec(vector: Vec) -> tuple[dict[Hashable, int], int]:
    """(integer vector, scale) with vector == integer vector / scale.  An
    all-integer vector (the exponent-shift images and unit rows) is copied
    without reading a denominator."""
    if set(map(type, vector.values())) <= _INT:
        return dict(vector), 1
    scale = 1
    for value in vector.values():
        if value.denominator != 1:
            scale = lcm(scale, value.denominator)
    if scale == 1:
        return {k: v.numerator for k, v in vector.items()}, 1
    return {k: v.numerator * (scale // v.denominator) for k, v in vector.items()}, scale


def _cancel(vec: dict, key: Hashable, row: dict) -> None:
    """vec := mult * vec - coeff * row with the smallest integers that clear
    column ``key``."""
    g = gcd(vec[key], row[key])
    mult, coeff = row[key] // g, vec[key] // g
    if mult != 1:
        for k in vec:
            vec[k] *= mult
    vec_axpy(vec, -coeff, row)


def _make_primitive(vec: dict) -> None:
    """Divide an integer row by its content (in place)."""
    content = gcd(*vec.values())
    if content != 1:
        for k in vec:
            vec[k] //= content


class Span:
    """A subspace in reduced row echelon form; columns compare as
    themselves, and each row's pivot is its least column."""

    def __init__(self):
        self.rows: list[dict[Hashable, int]] = []
        self.pivots: dict[Hashable, int] = {}  # pivot column -> row, in row order
        self.holders: dict[Hashable, set[int]] = {}  # non-pivot column -> rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _clear(self, vec: dict) -> None:
        """Eliminate the pivot columns from an integer vector in place."""
        # Reduced rows only introduce non-pivot columns, one pass suffices.
        for key in [k for k in vec if k in self.pivots]:
            _cancel(vec, key, self.rows[self.pivots[key]])

    def insert(self, vector: Vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        vec, _ = _integer_vec(vector)
        self._clear(vec)
        if not vec:
            return False
        pivot = min(vec)
        _make_primitive(vec)
        # keep existing rows reduced against the new pivot
        for idx in self.holders.pop(pivot, ()):
            row = self.rows[idx]
            _cancel(row, pivot, vec)
            _make_primitive(row)
            for key in vec:
                if key in row:
                    self.holders.setdefault(key, set()).add(idx)
                elif key != pivot:
                    self.holders[key].discard(idx)
        idx = len(self.rows)
        for key in vec:
            if key != pivot:
                self.holders.setdefault(key, set()).add(idx)
        self.pivots[pivot] = idx
        self.rows.append(vec)
        return True

    def contains(self, vector: Vec) -> bool:
        vec, _ = _integer_vec(vector)
        self._clear(vec)
        return not vec

    def row_vectors(self) -> list[Vec]:
        return [
            {k: Fraction(v, row[lead]) for k, v in row.items()}
            for row, lead in zip(self.rows, self.pivots)
        ]


def intersection(
    first: Iterable[Vec], second: Iterable[Vec]
) -> list[dict[Hashable, int]]:
    """A basis of span(first) meet span(second), as integer vectors.

    One ``Span`` over two copies of the columns, keyed (block, key) so
    that the first copy orders before the second, takes (u | 0) for each
    u in ``first`` and (e | e) for each e in ``second``.  Its row space is
    {(u + e | e)}, so the rows of zero first block are the (0 | e) with
    e = -u in both spans.  Rows are reduced and the first copy is ordered
    first, so those are exactly the rows that pivot in the second copy,
    and they are a basis of the intersection (Zassenhaus's algorithm):
    dim U + dim W - dim(U + W) of them.
    """
    span = Span()
    for u in first:
        span.insert({(0, k): v for k, v in u.items()})
    for e in second:
        span.insert({(block, k): v for block in (0, 1) for k, v in e.items()})
    return [
        {k: v for (_, k), v in row.items()}
        for row, (block, _) in zip(span.rows, span.pivots)
        if block == 1
    ]
