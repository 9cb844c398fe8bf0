"""Truncated computational model of (a,b)-modules.

An (a,b)-module is a free module of finite rank over power series in b
together with an operator a obeying  a.b - b.a = b^2.  The truncated
model cuts every b-power series at a fixed order N: b acts by
multiplication, and a acts by a matrix of b-polynomials plus the
derivation rule  b^k e -> k b^(k+1) e  forced by the commutation law.

The module also houses a free-algebra normal-ordering engine for words
in a and b, which decides the operator identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
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
        """Inverse of ``to_record``; InputError on a malformed record."""
        try:
            order = record["trunc_order"]
            matrix = []
            for row in record["a_matrix"]:
                new_row = []
                for entry in row:
                    coeffs = [0] * order
                    for power, text in entry:
                        if not 0 <= power < order:
                            raise InputError(
                                f"b-power {power} outside the truncation 0..{order - 1}"
                            )
                        coeffs[power] = parse_fraction(text)
                    new_row.append(coeffs)
                matrix.append(new_row)
            return cls(record["rank"], order, matrix, label=record.get("label", ""))
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
    lowers the b-degree)."""
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


def check_commutation(module: ABModule) -> bool:
    """Verify  a b - b a = b^2  on every basis vector b^t e  with t + 2 < N:

        a(b^(t+1) e) - b a(b^t e) = b^(t+2) e,

    term by term on the integer columns, that is
    col(j, t+1) - b col(j, t) = D e_(j, t+2).  Both operators never lower
    the b-degree, so every represented component is exact.  Without the
    derivation term the matrix parts cancel and the check fails for N >= 3.
    """
    order = module.trunc_order
    scale, columns = _integer_operator(module, order)
    for (j, t), column in columns.items():
        if t + 2 >= order:
            continue
        diff = dict(columns[(j, t + 1)])
        vec_axpy(diff, -1, _shift(column, 1, order))
        if diff != {(j, t + 2): scale}:
            return False
    return True


def tensor(left: ABModule, right: ABModule, label: str = "") -> ABModule:
    """Tensor product over the b-series ring with a = aized on each factor:
    a(e_i (x) f_j) = (a e_i) (x) f_j + e_i (x) (a f_j).

    Basis pairs are ordered left-factor major.
    """
    if left.trunc_order != right.trunc_order:
        raise InputError("tensor factors must share the truncation order")
    rank = left.rank * right.rank
    order = left.trunc_order
    zero = [0] * order

    def index(i: int, j: int) -> int:
        return i * right.rank + j

    matrix = [[list(zero) for _ in range(rank)] for _ in range(rank)]
    for i in range(left.rank):
        for j in range(right.rank):
            col = index(i, j)
            for k in range(left.rank):
                entry = left.a_matrix[k][i]
                row = index(k, j)
                for power, coeff in enumerate(entry):
                    matrix[row][col][power] += coeff
            for l in range(right.rank):
                entry = right.a_matrix[l][j]
                row = index(i, l)
                for power, coeff in enumerate(entry):
                    matrix[row][col][power] += coeff
    if not label:
        label = f"({left.label or 'E'}) (x) ({right.label or 'F'})"
    return ABModule(rank, order, matrix, label=label)


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


# -- free-algebra words and normal ordering -----------------------------------


class OperatorWord:
    """Rational linear combination of words in the letters a, b.

    Coefficients follow ``exact_scalar``: integer words stay in ``int`` and
    never build a ``Fraction`` (an int and a Fraction of equal value
    compare equal, so equality is unaffected)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[str, ...], Scalar]):
        clean: dict[tuple[str, ...], Scalar] = {}
        for word, coeff in terms.items():
            word = tuple(word)
            if any(letter not in ("a", "b") for letter in word):
                raise InputError(f"invalid letter in word {word!r}")
            coeff = exact_scalar(coeff)
            if coeff != 0:
                clean[word] = clean.get(word, 0) + coeff
                if clean[word] == 0:
                    del clean[word]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("OperatorWord is immutable")

    @classmethod
    def letter(cls, name: str) -> "OperatorWord":
        return cls({(name,): 1})

    @classmethod
    def one(cls) -> "OperatorWord":
        return cls({(): 1})

    @classmethod
    def monomial(cls, b_power: int, a_power: int, coeff: Scalar = 1) -> "OperatorWord":
        return cls({("b",) * b_power + ("a",) * a_power: coeff})

    def __add__(self, other: "OperatorWord") -> "OperatorWord":
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, 0) + coeff
        return OperatorWord(out)

    def __sub__(self, other: "OperatorWord") -> "OperatorWord":
        return self + (-1) * other

    def __mul__(self, other) -> "OperatorWord":
        if isinstance(other, (int, Fraction)):
            return OperatorWord({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, OperatorWord):
            return NotImplemented
        out: dict[tuple[str, ...], Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, 0) + c1 * c2
        return OperatorWord(out)

    def __rmul__(self, other: Scalar) -> "OperatorWord":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "OperatorWord":
        result = OperatorWord.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for word in sorted(self.terms):
            body = "".join(word) or "1"
            pieces.append(f"{format_fraction(self.terms[word])}*{body}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"OperatorWord({str(self)!r})"


@lru_cache(maxsize=None)
def _reorder_a_powers(a_power: int, b_power: int) -> tuple[tuple[int, int, int], ...]:
    """Normal form of a^j b^k as tuples (b exponent, a exponent, coeff); the
    coefficients are integers."""
    if a_power == 0:
        return (((b_power, 0, 1),))
    acc: dict[tuple[int, int], int] = {}
    for i, l, c in _reorder_a_powers(a_power - 1, b_power):
        # a * b^i a^l = b^i a^(l+1) + i b^(i+1) a^l
        acc[(i, l + 1)] = acc.get((i, l + 1), 0) + c
        if i:
            acc[(i + 1, l)] = acc.get((i + 1, l), 0) + c * i
    return tuple((i, l, c) for (i, l), c in sorted(acc.items()) if c != 0)


def normal_order(word: OperatorWord) -> OperatorWord:
    """Canonical b-left normal form: a sum of terms b^i a^j.

    Uses the memoized single-letter recurrence.  The recurrence's
    coefficients are integers, so sums stay in the word's own coefficient
    type.
    """
    total: dict[tuple[int, int], Scalar] = {}
    for letters, coeff in word.terms.items():
        state: dict[tuple[int, int], Scalar] = {(0, 0): coeff}
        for letter in letters:
            nxt: dict[tuple[int, int], Scalar] = {}
            for (i, l), c in state.items():
                if letter == "a":
                    key = (i, l + 1)
                    nxt[key] = nxt.get(key, 0) + c
                else:
                    for i2, l2, c2 in _reorder_a_powers(l, 1):
                        key = (i + i2, l2)
                        nxt[key] = nxt.get(key, 0) + c * c2
            state = {k: v for k, v in nxt.items() if v != 0}
        for key, value in state.items():
            total[key] = total.get(key, 0) + value
    return OperatorWord(
        {("b",) * i + ("a",) * l: c for (i, l), c in total.items() if c != 0}
    )


def factorial_identity_holds(n: int) -> bool:
    """Check the operator identity
        n! b^(2n) = sum_{j=0..n} (-1)^j C(n,j) b^j a^n b^(n-j)
    exactly, via the normal-ordering engine."""
    if n < 1:
        raise InputError("the identity is stated for n >= 1")
    a = OperatorWord.letter("a")
    b = OperatorWord.letter("b")
    rhs = OperatorWord({})
    for j in range(n + 1):
        term = (b**j) * (a**n) * (b ** (n - j))
        rhs = rhs + ((-1) ** j * comb(n, j)) * term
    lhs = OperatorWord({("b",) * (2 * n): factorial(n)})
    return normal_order(rhs) == lhs

