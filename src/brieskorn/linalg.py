"""Incremental reduced row echelon spans over the rationals.

Vectors are sparse dicts mapping hashable column keys to nonzero Fractions
or integers.  A ``Span`` keeps its rows fully reduced (each pivot column
appears in exactly one row), so membership tests and quotient-basis
extraction are canonical and deterministic.

Inside a ``Span`` the arithmetic is fraction-free.  Each row is stored as a
primitive integer dict (its entries, together with those of its tracked
combination, share no common factor), and the true reduced row is that
integer row divided by its own pivot entry; a tracked combination is kept
on the same integer scale as its row.  ``Fraction`` values are built only
where they leave the span: ``reduce`` residuals, ``row_vectors`` and
``kernel_relations``.  A column index maps each non-pivot column to the
rows holding a nonzero entry there, so a new pivot is cleared from exactly
the rows that contain it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Optional

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


def _cancel(
    vec: dict, combo: Optional[dict], key: Hashable, row: dict, row_combo: Optional[dict]
) -> int:
    """vec := mult * vec - coeff * row with the smallest integers that clear
    column ``key``; a tracked combination follows.  Returns mult."""
    g = gcd(vec[key], row[key])
    mult, coeff = row[key] // g, vec[key] // g
    for target, source in ((vec, row), (combo, row_combo)):
        if target is not None:
            if mult != 1:
                for k in target:
                    target[k] *= mult
            vec_axpy(target, -coeff, source)
    return mult


def _make_primitive(vec: dict, combo: Optional[dict]) -> None:
    """Divide a row and its combination by their common content (in place)."""
    content = gcd(*vec.values(), *(combo.values() if combo else ()))
    if content != 1:
        for target in (vec, combo or {}):
            for k in target:
                target[k] //= content


class Span:
    """A subspace in reduced row echelon form with a chosen column order.

    When ``track`` is set, every row carries the combination of inserted
    vectors that produced it, which turns insertion into an online kernel
    computation: an insert that reduces to zero yields a kernel relation.
    """

    def __init__(self, key_order: Callable[[Hashable], object], track: bool = False):
        self.key_order = key_order
        self.track = track
        self.rows: list[dict[Hashable, int]] = []
        self.combos: list[dict[Hashable, int]] = []
        self.pivots: dict[Hashable, int] = {}  # pivot column -> row, in row order
        self.holders: dict[Hashable, set[int]] = {}  # non-pivot column -> rows
        # after a failed tracked insert: (integer combination, its scale)
        self._kernel: Optional[tuple[Optional[dict], int]] = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Span":
        """An independent span with the same rows in the same order."""
        other = Span(self.key_order, self.track)
        other.rows = [dict(r) for r in self.rows]
        other.combos = [dict(c) for c in self.combos]
        other.pivots = dict(self.pivots)
        other.holders = {k: set(v) for k, v in self.holders.items()}
        return other

    def _clear(self, vec: dict, combo: Optional[dict]) -> int:
        """Eliminate the pivot columns from an integer vector in place;
        returns the factor by which the vector's scale grew."""
        grown = 1
        # Reduced rows only introduce non-pivot columns, one pass suffices.
        for key in [k for k in vec if k in self.pivots]:
            idx = self.pivots[key]
            row_combo = self.combos[idx] if combo is not None else None
            grown *= _cancel(vec, combo, key, self.rows[idx], row_combo)
        return grown

    def reduce(self, vector: Vec) -> Vec:
        """Return the residual of ``vector`` against the span."""
        vec, scale = _integer_vec(vector)
        scale *= self._clear(vec, None)
        if scale == 1:
            return {k: Fraction(v) for k, v in vec.items()}
        return {k: Fraction(v, scale) for k, v in vec.items()}

    def insert(self, vector: Vec, tag: Optional[Hashable] = None) -> bool:
        """Insert a vector; returns True when it enlarged the span.

        ``tag`` labels the vector in tracked combinations.
        """
        vec, scale = _integer_vec(vector)
        combo: Optional[dict] = None
        if self.track:
            combo = {tag: scale} if tag is not None else {}
        scale *= self._clear(vec, combo)
        if not vec:
            self._kernel = (combo, scale)
            return False
        pivot = min(vec, key=self.key_order)
        _make_primitive(vec, combo)
        # keep existing rows reduced against the new pivot
        for idx in self.holders.pop(pivot, ()):
            row = self.rows[idx]
            row_combo = self.combos[idx] if self.track else None
            _cancel(row, row_combo, pivot, vec, combo)
            _make_primitive(row, row_combo)
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
        if self.track:
            self.combos.append(combo)
        return True

    def contains(self, vector: Vec) -> bool:
        vec, _ = _integer_vec(vector)
        self._clear(vec, None)
        return not vec

    def row_vectors(self) -> list[Vec]:
        return [
            {k: Fraction(v, row[lead]) for k, v in row.items()}
            for row, lead in zip(self.rows, self.pivots)
        ]


def kernel_relations(
    vectors: Iterable[tuple[Hashable, Vec]],
    key_order: Callable[[Hashable], object],
) -> list[Vec]:
    """Kernel of the linear map sending tagged basis elements to vectors.

    Returns one relation dict per dependent vector: tag -> coefficient,
    with the defining property  sum(coeff * vector_tag) = 0.
    """
    span = Span(key_order, track=True)
    relations: list[Vec] = []
    for tag, vector in vectors:
        if not span.insert(vector, tag=tag):
            # insert() seeded the combination with +1 * tag and subtracted
            # pivot rows; a zero residual means sum(combo * v) = 0.
            combo, scale = span._kernel
            relations.append({k: Fraction(v, scale) for k, v in combo.items()})
    return relations
