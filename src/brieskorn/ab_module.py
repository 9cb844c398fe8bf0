"""Truncated computational model of (a,b)-modules.

An (a,b)-module is a free module of finite rank over power series in b
together with an operator a obeying  a.b - b.a = b^2.  The truncated
model cuts every b-power series at a fixed order N: b acts by
multiplication, and a acts by a matrix of b-polynomials plus the
derivation rule  b^k e -> k b^(k+1) e  forced by the commutation law.
A record gives only a(e_j), so every module of the model satisfies
a b - b a = b^2 by construction (``_integer_operator``).

The factorial identity of the operators a and b is read off the closed
form of the normal ordering  a^l b^r = sum_(k=0..l) c(l,k) b^(r+k) a^(l-k),
c(l,k) = C(l,k) r(r+1)...(r+k-1), from [a, b^r] = r b^(r+1): a times
a^l b^r gives c(l+1,k) = c(l,k) + (r+k-1) c(l,k-1), and Pascal's rule
finishes the induction.
"""

from __future__ import annotations

from math import comb, factorial, lcm
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import InconclusiveError, InputError
from .linalg import Span, vec_axpy
from .poly import Scalar, exact_scalar, format_fraction, parse_fraction

# a b-polynomial: exact-scalar tuple indexed by b-power, zero-trimmed
BPoly = tuple[Scalar, ...]

# the default truncation order N of the modules that the CLI builds
DEFAULT_TRUNC_ORDER = 16


def bpoly(coefficients: Sequence[Scalar]) -> BPoly:
    values = [exact_scalar(c) for c in coefficients]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


class ABModule:
    """Free rank-r module over b-series truncated at order N, with the
    a-operator given by an r x r matrix of b-polynomials of degree < N."""

    __slots__ = ("rank", "trunc_order", "a_matrix", "label")

    def __init__(
        self,
        rank: int,
        trunc_order: int,
        a_matrix: Sequence[Sequence[Sequence[Scalar]]],
        label: str = "",
    ):
        if rank < 1:
            raise InputError("rank must be at least 1")
        if trunc_order < 2:
            raise InputError("truncation order must be at least 2")
        matrix = tuple(tuple(bpoly(entry) for entry in row) for row in a_matrix)
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise InputError(f"a-matrix must be {rank}x{rank}")
        for row in matrix:
            for entry in row:
                if len(entry) > trunc_order:
                    raise InputError(
                        "a-matrix entry exceeds the truncation order in b"
                    )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "a_matrix", matrix)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ABModule is immutable")

    def __repr__(self) -> str:
        return (
            f"ABModule(rank={self.rank}, N={self.trunc_order}, "
            f"label={self.label!r})"
        )

    # -- serialization ---------------------------------------------------------

    def to_record(self) -> dict:
        return {
            "rank": self.rank,
            "trunc_order": self.trunc_order,
            "label": self.label,
            "a_matrix": [
                [
                    [[power, format_fraction(c)] for power, c in enumerate(entry) if c]
                    for entry in row
                ]
                for row in self.a_matrix
            ],
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "ABModule":
        """Inverse of ``to_record``; InputError on a malformed record, such
        as a rank, truncation order or b-power that is not a JSON integer,
        or a b-power given twice in one entry."""

        def integer(value) -> int:
            if type(value) is not int:  # bool is an int subclass; 16.0 is not one
                raise TypeError(f"{value!r} is not an integer")
            return value

        try:
            order = integer(record["trunc_order"])

            def cell(entry) -> list[Scalar]:
                coeffs: list[Scalar] = []
                seen = set()
                for power, text in entry:
                    if not 0 <= integer(power) < order:
                        raise InputError(f"b-power {power} outside the truncation 0..{order - 1}")
                    if power in seen:
                        raise ValueError(f"b-power {power} repeated in one entry")
                    seen.add(power)
                    while len(coeffs) <= power:
                        coeffs.append(0)
                    coeffs[power] = parse_fraction(text)
                return coeffs

            matrix = [[cell(entry) for entry in row] for row in record["a_matrix"]]
            return cls(integer(record["rank"]), order, matrix, label=record.get("label", ""))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            kind = type(exc).__name__
            raise InputError(f"malformed module record ({kind}: {exc})") from exc


# the integer-scaled operator: basis vector (j, t) = b^t e_j -> its column
Columns = dict[tuple[int, int], dict[tuple[int, int], int]]


def _integer_operator(module: ABModule, order: int) -> tuple[int, Columns]:
    """(D, columns): D is the lcm of the a-matrix denominators, and the
    column of (j, t), t < order, is the integer vector  D a(b^t e_j)  cut
    at b^order: the matrix part  sum_(i,p) D A[i][j][p] b^(t+p) e_i  plus
    the derivation part  D t b^(t+1) e_j.  With order N this is a on the
    truncated module; with a smaller order, a on E / b^order E (a never
    lowers the b-degree).  The derivation part makes the law hold by
    construction: col(j, t+1) = b col(j, t) + D e_(j, t+2), which is
    a b - b a = b^2 on b^t e_j."""
    rank = module.rank
    scale = lcm(
        *(c.denominator for row in module.a_matrix for entry in row for c in entry)
    )
    columns: Columns = {}
    for j in range(rank):
        terms = [
            (i, p, c.numerator * (scale // c.denominator))
            for i in range(rank)
            for p, c in enumerate(module.a_matrix[i][j])
            if c
        ]
        for t in range(order):
            column = {(i, t + p): c for i, p, c in terms if t + p < order}
            if 0 < t < order - 1:
                vec_axpy(column, scale * t, {(j, t + 1): 1})
            columns[(j, t)] = column
    return scale, columns


def _shift(vector: dict, power: int, order: int) -> dict:
    """b^power times a vector, cut at b^order."""
    return {(i, t + power): c for (i, t), c in vector.items() if t + power < order}


def _apply(columns: Columns, vector: dict) -> dict:
    """The integer operator on an integer vector."""
    out: dict = {}
    for key, c in vector.items():
        vec_axpy(out, c, columns[key])
    return out


def tensor(left: ABModule, right: ABModule, label: str = "") -> ABModule:
    """Tensor product over the b-series ring with a = aized on each factor:
    a(e_i (x) f_j) = (a e_i) (x) f_j + e_i (x) (a f_j).

    Basis pairs are ordered left-factor major.
    """
    if left.trunc_order != right.trunc_order:
        raise InputError("tensor factors must share the truncation order")
    rank = left.rank * right.rank

    def index(i: int, j: int) -> int:
        return i * right.rank + j

    # a cell grows only where a nonzero entry of either factor adds into it
    matrix: list[list[list[Scalar]]] = [[[] for _ in range(rank)] for _ in range(rank)]
    for i in range(left.rank):
        for j in range(right.rank):
            col = index(i, j)
            cells = [(index(k, j), left.a_matrix[k][i]) for k in range(left.rank)]
            cells += [(index(i, l), right.a_matrix[l][j]) for l in range(right.rank)]
            for row, entry in filter(itemgetter(1), cells):
                cell = matrix[row][col]
                cell.extend([0] * (len(entry) - len(cell)))
                for power, coeff in enumerate(entry):
                    cell[power] += coeff
    if not label:
        label = f"({left.label or 'E'}) (x) ({right.label or 'F'})"
    return ABModule(rank, left.trunc_order, matrix, label=label)


def is_simple_pole(module: ABModule) -> bool:
    """a E inside b E: every a-matrix entry has zero constant term."""
    return all(
        not entry or entry[0] == 0
        for row in module.a_matrix
        for entry in row
    )


def is_regular(module: ABModule, k: int) -> bool:
    """Check  a^k E  inside  sum_{j<k} b^(k-j) a^j E,  modulo b^N.

    The j = 0 term  b^k E  is spanned by the basis vectors of b-power at
    least k, and a and b never lower the b-degree, so the check runs in
    E / b^k E: the powers  D^j a^j e  of its basis vectors are built once,
    by iterated integer mat-vec on ``_integer_operator(module, k)`` (the
    scale D^j changes no span).  Raises InconclusiveError when the
    truncation is too shallow for the requested k.
    """
    if k < 1:
        raise InputError("regularity order k must be at least 1")
    if module.trunc_order < k + 2:
        raise InconclusiveError(
            "truncation too small to decide regularity",
            trunc_order=module.trunc_order,
            k=k,
        )
    _, columns = _integer_operator(module, k)
    powers = [{e: {e: 1} for e in columns}]
    for _ in range(k):
        powers.append({e: _apply(columns, vec) for e, vec in powers[-1].items()})
    span = Span()
    for j in range(1, k):
        for vec in powers[j].values():
            shifted = _shift(vec, k - j, k)
            if shifted:
                span.insert(shifted)
    return all(span.contains(vec) for vec in powers[k].values())


# -- the closed form of a^l b^r ------------------------------------------------


def _reorder_a_powers(a_power: int, b_power: int) -> tuple[tuple[int, int, int], ...]:
    """a^l b^r as (b exponent, a exponent, coeff) tuples by the closed form of the
    module docstring: each coefficient is exactly (l-k+1)(r+k-1)/k times the last."""
    terms, c = [(b_power, a_power, 1)], 1
    for k in range(1, a_power + 1 if b_power else 1):
        c = c * (a_power - k + 1) * (b_power + k - 1) // k
        terms.append((b_power + k, a_power - k, c))
    return tuple(terms)


def factorial_identity_holds(n: int) -> bool:
    """Check the operator identity
        n! b^(2n) = sum_{j=0..n} (-1)^j C(n,j) b^j a^n b^(n-j)
    exactly, read off the closed form: the normal form of  b^j a^n b^(n-j)
    is b^j times that of  a^n b^(n-j)."""
    if n < 1:
        raise InputError("the identity is stated for n >= 1")
    total: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        scale = (-1) ** j * comb(n, j)
        for i, l, c in _reorder_a_powers(n, n - j):
            key = (j + i, l)
            total[key] = total.get(key, 0) + scale * c
    return {key: c for key, c in total.items() if c} == {(2 * n, 0): factorial(n)}
