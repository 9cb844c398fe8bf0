"""Incremental row echelon spans over the rationals.

Vectors are sparse dicts mapping comparable column keys to nonzero
Fractions or integers.  Columns compare as themselves: a row's lead is
its least column key, so a caller chooses the column order by the keys it
writes.  An echelon is a dict from lead to row, with distinct leads, and
``reduce_by_leads`` is its one exact reduction: it cancels only leads and
never touches a stored row.  The leads of any echelon of a space are the
least columns of its nonzero vectors, so they are canonical, and a vector
lies in the space exactly when it reduces to 0.  ``Span`` and the jet
count of ``local_algebra`` both keep such an echelon.

The arithmetic is fraction-free.  Each row is stored as a primitive
integer dict (its entries share no common factor), and ``Fraction``
values are read only where a vector comes in.  ``intersection`` meets two
spans with one more ``Span`` (Zassenhaus's sum-space echelon).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Optional

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


def reduce_by_leads(rows: dict, vec: dict, keep: bool = True) -> Optional[Hashable]:
    """Reduce the integer vector ``vec`` in place by the echelon ``rows``:
    while a row leads at vec's least column, cancel that column with the
    smallest integer multiples.  Returns None when vec reduces to 0, else
    its new lead, under which ``keep`` stores it, divided by its content."""
    while vec:
        lead = min(vec)
        row = rows.get(lead)
        if row is None:
            if keep:
                content = gcd(*vec.values())
                if content != 1:
                    for k in vec:
                        vec[k] //= content
                rows[lead] = vec
            return lead
        g = gcd(vec[lead], row[lead])
        mult, coeff = row[lead] // g, vec[lead] // g
        if mult != 1:
            for k in vec:
                vec[k] *= mult
        vec_axpy(vec, -coeff, row)
    return None


class Span:
    """A subspace as an echelon: ``rows`` maps each pivot, the least
    column of its row, to that primitive integer row."""

    def __init__(self):
        self.rows: dict[Hashable, dict[Hashable, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vector: Vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        return reduce_by_leads(self.rows, _integer_vec(vector)[0]) is not None

    def contains(self, vector: Vec) -> bool:
        return reduce_by_leads(self.rows, _integer_vec(vector)[0], keep=False) is None


def intersection(
    first: Iterable[Vec], second: Iterable[Vec]
) -> list[dict[Hashable, int]]:
    """A basis of span(first) meet span(second), as integer vectors.

    One ``Span`` over two copies of the columns, keyed (block, key) so
    that the first copy orders before the second, takes (u | 0) for each
    u in ``first`` and (e | e) for each e in ``second``.  Its row space is
    {(u + e | e)}, so the vectors of zero first block are the (0 | e) with
    e = -u in both spans.  A row that pivots in the second copy has no
    entry in the first, and a vector of zero first block reduces by those
    rows alone, so they are a basis of the intersection (Zassenhaus's
    algorithm): dim U + dim W - dim(U + W) of them.
    """
    span = Span()
    for u in first:
        span.insert({(0, k): v for k, v in u.items()})
    for e in second:
        span.insert({(block, k): v for block in (0, 1) for k, v in e.items()})
    return [
        {k: v for (_, k), v in row.items()}
        for (block, _), row in span.rows.items()
        if block == 1
    ]
