"""Incremental reduced row echelon spans over the rationals.

Vectors are sparse dicts mapping hashable column keys to nonzero Fractions.
A ``Span`` keeps its rows fully reduced (each pivot column appears in
exactly one row), so membership tests and quotient-basis extraction are
canonical and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Optional

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


class Span:
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

    def restricted_rank(self, key_filter: Callable[[Hashable], bool]) -> int:
        """Rank of the intersection with the coordinate subspace selected by
        ``key_filter``; exact when the column order places excluded columns
        first (their pivots then expose every leaked row)."""
        return sum(1 for r in self.rows if all(key_filter(k) for k in r))


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
            combo = span.last_kernel_combo() or {tag: Fraction(1)}
            relations.append({k: v for k, v in combo.items() if v != 0})
    return relations
