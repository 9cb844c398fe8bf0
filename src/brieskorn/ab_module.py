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

import json
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import InconclusiveError, InputError
from .linalg import Span, vec_axpy
from .poly import Scalar, exact_scalar, parse_ratio

# the default truncation order N of the modules that the CLI builds
DEFAULT_TRUNC_ORDER = 16


def _trimmed(values: list) -> tuple:
    while values and not values[-1]:
        values.pop()
    return tuple(values)


class ABModule:
    """Free rank-r module over b-series truncated at order N, with the
    a-operator given by an r x r matrix of b-polynomials of degree < N: integer
    ``numerators`` (zero-trimmed tuples by b-power) over one ``scale`` > 0."""

    __slots__ = ("rank", "trunc_order", "numerators", "scale", "label")

    def __new__(
        cls, rank: int, trunc_order: int, a_matrix: Sequence[Sequence[Sequence[Scalar]]], label=""
    ):
        # a bad size is named first (by _of_ratios, on no cells), then a bad scalar
        cells = [
            [dict(enumerate(map(exact_scalar, entry))) for entry in row] for row in a_matrix
        ] if rank >= 1 and trunc_order >= 2 else []
        scalars = {c for row in cells for entry in row for c in entry.values()}
        ratios = {c: (c.numerator, c.denominator) for c in scalars}
        return cls._of_ratios(rank, trunc_order, cells, ratios, label)

    @classmethod
    def _of_ratios(cls, rank: int, trunc_order: int, cells, ratios: dict, label: str):
        """The module of {b-power: key} cells, b-powers in any order, each key
        scaled once from its ``ratios`` (numerator, denominator > 0) to their lcm;
        InputError unless the sizes hold and the matrix is rank x rank of degree < N."""
        if rank < 1:
            raise InputError("rank must be at least 1")
        if trunc_order < 2:
            raise InputError("truncation order must be at least 2")
        if len(cells) != rank or any(len(row) != rank for row in cells):
            raise InputError(f"a-matrix must be {rank}x{rank}")
        scale = lcm(*{q for _, q in ratios.values()})
        scaled = {key: p * (scale // q) for key, (p, q) in ratios.items()}
        matrix = []
        for row in cells:  # each cell filled into a dense list
            matrix.append(numerators := [])
            for keys in row:
                values = [0] * (max(keys) + 1) if keys else []
                for power, key in keys.items():
                    values[power] = scaled[key]
                if len(entry := _trimmed(values)) > trunc_order:
                    raise InputError("a-matrix entry exceeds the truncation order in b")
                numerators.append(entry)
        return cls._trusted(rank, trunc_order, tuple(map(tuple, matrix)), scale, label)

    @classmethod
    def _trusted(cls, rank: int, trunc_order: int, numerators, scale: int, label: str = ""):
        """A module on integer ``numerators`` over ``scale`` whose sizes were
        checked when they were built (as tensor factors were)."""
        module = object.__new__(cls)
        for name, value in zip(cls.__slots__, (rank, trunc_order, numerators, scale, label)):
            object.__setattr__(module, name, value)
        return module

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ABModule is immutable")

    def __repr__(self) -> str:
        return (
            f"ABModule(rank={self.rank}, N={self.trunc_order}, "
            f"label={self.label!r})"
        )

    @property
    def a_matrix(self) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
        """numerators / scale as exact scalars: a view that no runtime path reads."""
        value = lambda n: exact_scalar(Fraction(n, self.scale))
        return tuple(tuple(tuple(map(value, entry)) for entry in row) for row in self.numerators)

    # -- serialization ---------------------------------------------------------

    def to_json(self, indent: str = "\n") -> str:
        """``json.dumps(self.to_record(), indent=2)`` nested at ``indent`` (a
        newline and the enclosing spaces), written from the integers: each
        coefficient n / scale reduced by one gcd, as format_fraction prints it."""
        i1, i2, i3, i4, i5 = (indent + "  " * depth for depth in range(1, 6))
        scale, rows, texts = self.scale, [], {}  # numerator -> its text
        for row in self.numerators:
            cells = []
            for entry in row:
                terms = []
                for power, n in enumerate(entry):
                    if n:
                        if (text := texts.get(n)) is None:
                            g = gcd(n, scale)
                            text = texts[n] = n // g if g == scale else f"{n // g}/{scale // g}"
                        terms.append(f'[{i5}{power},{i5}"{text}"{i4}]')
                cells.append(f"[{i4}{f',{i4}'.join(terms)}{i3}]" if terms else "[]")
            rows.append(f"[{i3}{f',{i3}'.join(cells)}{i2}]")
        label = json.dumps(self.label)  # a str through encode_basestring_ascii; 5 as 5
        return (
            f'{{{i1}"rank": {self.rank},{i1}"trunc_order": {self.trunc_order},'
            f'{i1}"label": {label},{i1}"a_matrix": [{i2}{f",{i2}".join(rows)}{i1}]{indent}}}'
        )

    def to_record(self) -> dict:
        """The record as a dict: the parse of ``to_json``, which holds its layout."""
        return json.loads(self.to_json())

    @classmethod
    def from_record(cls, record: Mapping) -> "ABModule":
        """Inverse of ``to_record``; InputError on a malformed record, such
        as a rank, truncation order or b-power that is not a JSON integer,
        or a b-power given twice in one entry; no Fraction is built."""

        def integer(value) -> int:
            if type(value) is not int:  # bool is an int subclass; 16.0 is not one
                raise TypeError(f"{value!r} is not an integer")
            return value

        try:
            order = integer(record["trunc_order"])
            top, matrix, ratios = order - 1, [], {}  # text -> (numerator, denominator)
            for row in record["a_matrix"]:
                matrix.append(cells := [])
                for entry in row:
                    cells.append(texts := {})  # b-power -> text
                    for power, text in entry:
                        if type(power) is not int or not 0 <= power < order:
                            integer(power)  # a TypeError unless it is one
                            raise InputError(f"b-power {power} outside the truncation 0..{top}")
                        if power in texts:
                            raise ValueError(f"b-power {power} repeated in one entry")
                        # parsed before it is hashed, so a list names its AttributeError
                        if type(text) is not str or text not in ratios:
                            ratios[text] = parse_ratio(text)
                        texts[power] = text
            rank, label = integer(record["rank"]), record.get("label", "")
            return cls._of_ratios(rank, order, matrix, ratios, label)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            kind = type(exc).__name__
            raise InputError(f"malformed module record ({kind}: {exc})") from exc


# the integer-scaled operator: basis vector (j, t) = b^t e_j -> its column
Columns = dict[tuple[int, int], dict[tuple[int, int], int]]


def _integer_operator(module: ABModule, order: int) -> tuple[int, Columns]:
    """(D, columns): D is the module's stored ``scale``, and the column of
    (j, t), t < order, is the integer vector  D a(b^t e_j)  cut at b^order:
    the matrix part  sum_(i,p) D A[i][j][p] b^(t+p) e_i  (D A is the stored
    ``numerators``) plus the derivation part  D t b^(t+1) e_j.  With order N
    this is a on the truncated module; with a smaller order, a on
    E / b^order E (a never lowers the b-degree).  The derivation part makes
    the law hold by construction: col(j, t+1) = b col(j, t) + D e_(j, t+2),
    which is a b - b a = b^2 on b^t e_j."""
    rank, scale = module.rank, module.scale
    columns: Columns = {}
    rows = module.numerators
    for j in range(rank):  # a term past b^order enters no column
        terms = [(i, p, c) for i in range(rank) for p, c in enumerate(rows[i][j][:order]) if c]
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

    Basis pairs are ordered left-factor major.  The numerators add over
    lcm(left scale, right scale), and the product is built trusted.
    """
    if left.trunc_order != right.trunc_order:
        raise InputError("tensor factors must share the truncation order")
    rank, scale = left.rank * right.rank, lcm(left.scale, right.scale)
    up_left, up_right = scale // left.scale, scale // right.scale

    def index(i: int, j: int) -> int:
        return i * right.rank + j

    # a cell grows only where a nonzero entry of either factor adds into it
    matrix: list[list[list[int]]] = [[[] for _ in range(rank)] for _ in range(rank)]
    for i in range(left.rank):
        for j in range(right.rank):
            col = index(i, j)
            cells = [(index(k, j), up_left, left.numerators[k][i]) for k in range(left.rank)]
            cells += [(index(i, l), up_right, right.numerators[l][j]) for l in range(right.rank)]
            for row, up, entry in filter(itemgetter(2), cells):
                cell = matrix[row][col]
                cell.extend([0] * (len(entry) - len(cell)))
                for power, coeff in enumerate(entry):
                    cell[power] += up * coeff
    if not label:
        label = f"({left.label or 'E'}) (x) ({right.label or 'F'})"
    numerators = tuple([tuple(map(_trimmed, row)) for row in matrix])
    return ABModule._trusted(rank, left.trunc_order, numerators, scale, label)


def is_simple_pole(module: ABModule) -> bool:
    """a E inside b E: every a-matrix entry has zero constant term."""
    return all(not entry or entry[0] == 0 for row in module.numerators for entry in row)


def is_regular(module: ABModule, orders: Sequence[int]) -> tuple[bool, ...]:
    """Check  a^k E  inside  sum_{j<k} b^(k-j) a^j E,  modulo b^N, for each
    k of ``orders``: one flag per order, in the order given.

    The j = 0 term  b^k E  is spanned by the basis vectors of b-power at
    least k, and a and b never lower the b-degree, so order k runs in
    E / b^k E.  The powers  D^j a^j e  are built once, by iterated integer
    mat-vec on ``_integer_operator(module, K)`` for the largest order K (the
    scale D^j changes no span); order k keeps the basis vectors b^t e_i with
    t < k and cuts each vector at b^k, which commutes with a, so it reads
    the integers of its own operator.  Every order is checked before any
    work: InputError for k < 1, InconclusiveError when the truncation is too
    shallow for k.
    """
    for k in orders:
        if k < 1:
            raise InputError("regularity order k must be at least 1")
        if module.trunc_order < k + 2:
            raise InconclusiveError(
                "truncation too small to decide regularity",
                trunc_order=module.trunc_order,
                k=k,
            )
    top = max(orders, default=0)
    _, columns = _integer_operator(module, top)
    powers = [{e: {e: 1} for e in columns}]
    for _ in range(top):
        powers.append({e: _apply(columns, vec) for e, vec in powers[-1].items()})
    flags: dict[int, bool] = {}
    for k in dict.fromkeys(orders):  # a repeated order is decided once
        span = Span()
        for j in range(1, k):
            for (_, t), vec in powers[j].items():
                # b^(k-j) a^j b^t e lies in b^k E unless t < j
                if t < j and (shifted := _shift(vec, k - j, k)):
                    span.insert(shifted)
        cut = (_shift(vec, 0, k) if k < top else vec for (_, t), vec in powers[k].items() if t < k)
        flags[k] = all(not vec or span.contains(vec) for vec in cut)  # 0 lies in every span
    return tuple(flags[k] for k in orders)


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
