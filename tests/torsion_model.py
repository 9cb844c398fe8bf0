"""Desk-scale torsion model: explicit dim x dim matrices for a and b.

Conforming fixtures satisfy the commutation rule a.b - b.a = b^2 with b
nilpotent.  The model computes the torsion subspaces B (the union of the
kernels of the powers of b) and A (the vectors whose whole b-orbit is
a-nilpotent), so the tests can check the identities B = A and
b^(2n) A = 0 on conforming fixtures, and show what goes wrong on
non-conforming ones.  Kernels come from one ``Span`` over the image and
coordinate columns, whose rows of zero image are the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from brieskorn.linalg import Span, Vec

Matrix = tuple[tuple[Fraction, ...], ...]


def matrix(rows: Sequence[Sequence]) -> Matrix:
    out = tuple(tuple(Fraction(v) for v in row) for row in rows)
    assert all(len(row) == len(out) for row in out), "matrices must be square"
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size)), Fraction(0)) for j in range(size))
        for i in range(size)
    )


def mat_vec(a: Matrix, v: Vec) -> Vec:
    out: Vec = {}
    for j, c in v.items():
        for i in range(len(a)):
            if a[i][j]:
                out[i] = out.get(i, Fraction(0)) + a[i][j] * c
    return {k: val for k, val in out.items() if val != 0}


def mat_power(a: Matrix, n: int) -> Matrix:
    size = len(a)
    result = matrix([[int(i == j) for j in range(size)] for i in range(size)])
    for _ in range(n):
        result = mat_mul(result, a)
    return result


def is_nilpotent(a: Matrix) -> bool:
    return all(v == 0 for row in mat_power(a, len(a)) for v in row)


@dataclass(frozen=True)
class TorsionFixture:
    dim: int
    a: Matrix
    b: Matrix

    @classmethod
    def of(cls, a_rows, b_rows) -> "TorsionFixture":
        a, b = matrix(a_rows), matrix(b_rows)
        assert len(a) == len(b), "a and b must have the same dimension"
        return cls(len(a), a, b)

    def commutation_holds(self) -> bool:
        lhs, rhs = mat_mul(self.a, self.b), mat_mul(self.b, self.a)
        square = mat_mul(self.b, self.b)
        return all(
            lhs[i][j] - rhs[i][j] == square[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
        )


def kernel(images: Sequence[Vec]) -> list[Vec]:
    """A basis of {x : sum_j x_j images[j] = 0}: the span of the rows
    (images[j] | e_j), image columns first, has the kernel as its rows that
    pivot in the coordinate block."""
    span = Span()
    for j, image in enumerate(images):
        span.insert({**{(0, i): v for i, v in image.items()}, (1, j): Fraction(1)})
    return [
        {j: v for (_, j), v in row.items()}
        for row in span.row_vectors()
        if min(row)[0] == 1
    ]


def stable_kernel(m: Matrix) -> list[Vec]:
    """Basis of the union of kernels of m^k (the generalized kernel)."""
    power = mat_power(m, len(m))
    return kernel([mat_vec(power, {j: Fraction(1)}) for j in range(len(m))])


def a_torsion(fixture: TorsionFixture) -> list[Vec]:
    """Union of the kernels of the powers of a."""
    return stable_kernel(fixture.a)


def _residual(rows: list[Vec], v: Vec) -> Vec:
    """v modulo the span of fully reduced ``rows`` (pivot = least key)."""
    out = dict(v)
    for row in rows:
        c = v.get(min(row), 0)
        for k, r in row.items():
            out[k] = out.get(k, 0) - c * r
    return {k: c for k, c in out.items() if c}


def torsion_subspaces(fixture: TorsionFixture) -> tuple[list[Vec], list[Vec]]:
    """(B, A): the union of b-power kernels, and the vectors x with b^j x
    a-nilpotent for every j (the powers j < dim span the whole b-orbit)."""
    a_tilde = span_of(a_torsion(fixture)).row_vectors()
    images = []
    for col in range(fixture.dim):
        image: dict = {}
        current: Vec = {col: Fraction(1)}
        for j in range(fixture.dim):
            for key, value in _residual(a_tilde, current).items():
                image[(j, key)] = value
            current = mat_vec(fixture.b, current)
        images.append(image)
    return stable_kernel(fixture.b), kernel(images)


def span_of(vectors: Sequence[Vec]) -> Span:
    span = Span()
    for v in vectors:
        span.insert(v)
    return span


def subspaces_equal(first: Sequence[Vec], second: Sequence[Vec]) -> bool:
    s1, s2 = span_of(first), span_of(second)
    return s1.rank == s2.rank and all(s1.contains(v) for v in second)


def fixture_axioms_hold(fixture: TorsionFixture) -> bool:
    """All finite-model axioms: the commutation rule, b nilpotent (which
    settles invertibility of b - lambda and the b-separation condition),
    b-torsion contained in A, and a nilpotent on A."""
    if not fixture.commutation_holds() or not is_nilpotent(fixture.b):
        return False
    b_space, a_space = torsion_subspaces(fixture)
    a_span = span_of(a_space)
    if not all(a_span.contains(v) for v in b_space):
        return False
    a_power = mat_power(fixture.a, fixture.dim)
    return not any(mat_vec(a_power, v) for v in a_space)


def nilpotence_exponent(m: Matrix, vectors: Sequence[Vec]) -> Optional[int]:
    """Smallest N with m^N v = 0 for all given vectors, if one exists."""
    for n in range(len(m) + 1):
        power = mat_power(m, n)
        if all(not mat_vec(power, v) for v in vectors):
            return n
    return None
