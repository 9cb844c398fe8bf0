"""Jet-space linear algebra at the origin.

Everything here models the local ring of germs at 0 through two kinds of
finite-dimensional pieces:

* total-degree jets (monomials of total degree < M);
* weighted-degree slices, used when a weight certificate makes the input
  quasi-homogeneous; slice computations carry no truncation error.

Each quotient stops by a proof: ``local_quotient`` by Nakayama's lemma,
``twisted_quotient_dim`` when its nondecreasing lower bound reaches a
target dimension the caller has computed independently.  Both jet scans
run the orders k = 1, 2, ... on one least-term count (``_JetCounts``);
every reported number rests on exact integer or rational row reduction,
and a count modulo a prime only picks the order at which the exact span
is built.  Saturation and the finite-colength test live in ``groebner``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, lcm
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import VectorField
from .linalg import Span, Vec, _cancel, _make_primitive
from .poly import Exponents, Poly, WeightSystem, listing_key


def jet_key_order(exponents: Exponents) -> tuple:
    """Column order for jet spans: high total degree first, so that rows
    pivoting in low degrees are entirely supported there."""
    return (-sum(exponents), tuple(reversed(exponents)))


@lru_cache(maxsize=None)
def monomials_of_weighted_degree(
    n_vars: int, int_weights: tuple[int, ...], wdeg: int
) -> tuple[Exponents, ...]:
    """All exponent vectors with integer-scaled weighted degree == wdeg."""
    out: list[Exponents] = []

    def rec(prefix: list[int], idx: int, remaining: int) -> None:
        if idx == n_vars - 1:
            w = int_weights[idx]
            if remaining % w == 0:
                out.append(tuple(prefix + [remaining // w]))
            return
        w = int_weights[idx]
        for e in range(remaining // w + 1):
            rec(prefix + [e], idx + 1, remaining - e * w)

    if wdeg >= 0:
        rec([], 0, wdeg)
    return tuple(sorted(out, key=listing_key))


@lru_cache(maxsize=None)
def monomials_below(n_vars: int, bound: int) -> tuple[Exponents, ...]:
    """All exponent vectors of total degree < bound, in graded order."""
    ones = (1,) * n_vars
    return tuple(
        m for d in range(bound) for m in monomials_of_weighted_degree(n_vars, ones, d)
    )


def common_denominator(*polys: Poly) -> int:
    """The lcm of the coefficient denominators of the polys."""
    return lcm(1, *(c.denominator for p in polys for c in p.terms.values()))


def integer_terms(p: Poly, scale: Optional[int] = None) -> list[tuple[Exponents, int]]:
    """The terms of ``scale * p`` as integers; ``scale`` defaults to
    ``common_denominator(p)``, and any other value must be a multiple of it."""
    if scale is None:
        scale = common_denominator(p)
    return [(e, c.numerator * (scale // c.denominator)) for e, c in p.terms.items()]


def shifted_terms(terms: list[tuple[Exponents, int]], m: Exponents) -> dict[Exponents, int]:
    """The integer terms of x^m times the polynomial with ``terms``."""
    return {tuple(map(add, e, m)): c for e, c in terms}


def shifted_vec(p: Poly, m: Exponents) -> Vec:
    """Coefficient vector of the product of p with the monomial x^m."""
    return {tuple(a + b for a, b in zip(e, m)): c for e, c in p.terms.items()}


class _ShiftedImages:
    """The map x^m -> sum_i m_i x^(m - e_i) P_i + x^m Q on integer vectors.

    Both operators whose images span the quotients here are affine in the
    exponent of x^m: the twisted action V~(x^m) = V.x^m + div(V) x^m, with
    (P_i, Q) = (V_i, div V), and the exact forms d(x^m dx_I ^ alpha), whose
    top coefficient has P_k = top coefficient of dx_k ^ dx_I ^ alpha and
    Q = top coefficient of d(dx_I ^ alpha).  P_i and Q are scaled once by
    their common denominator ``scale``, so an image is ``scale`` times the
    true image, an integer vector spanning the same line."""

    def __init__(self, parts: Sequence[Poly], extra: Poly):
        self.scale = common_denominator(*parts, extra)
        self.parts = [integer_terms(p, self.scale) for p in parts]
        self.extra = integer_terms(extra, self.scale)

    def __call__(self, m: Exponents) -> dict[Exponents, int]:
        out: dict[Exponents, int] = {}
        for i, terms in enumerate(self.parts):
            k = m[i]
            if not k:
                continue
            base = m[:i] + (k - 1,) + m[i + 1 :]
            for e, c in terms:
                key = tuple(map(add, e, base))
                out[key] = out.get(key, 0) + k * c
        for e, c in self.extra:
            key = tuple(map(add, e, m))
            out[key] = out.get(key, 0) + c
        return {key: v for key, v in out.items() if v}


def truncate_vec(vec: Vec, bound: int) -> Vec:
    return {e: c for e, c in vec.items() if sum(e) < bound}


@dataclass(frozen=True)
class IdealGens:
    """A finite generating set, kept as given but for zero generators and
    equal duplicates, which are removed; every consumer scales to integers
    itself.  The string shows each generator scaled so that its lowest term
    has coefficient 1."""

    variables: tuple[str, ...]
    generators: tuple[Poly, ...]

    @classmethod
    def of(cls, variables: Sequence[str], generators: Sequence[Poly]) -> "IdealGens":
        variables = tuple(variables)
        seen: list[Poly] = []
        for g in generators:
            if g.variables != variables:
                raise InputError("ideal generator lives in a different ring")
            if not g.is_zero and g not in seen:
                seen.append(g)
        if not seen:
            raise InputError("an ideal needs at least one nonzero generator")
        return cls(variables, tuple(seen))

    def contains_unit(self) -> bool:
        return any(g.constant_value() != 0 for g in self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g.lowest_monic()) for g in self.generators) + ")"


def jacobian_ideal(f: Poly) -> IdealGens:
    """Ideal generated by all partial derivatives of f."""
    if f.is_constant():
        raise InputError("the Jacobian ideal of a constant is undefined here")
    return IdealGens.of(f.variables, [f.derivative(v) for v in f.variables])


def ideal_jet_span(I: IdealGens, order: int) -> Span:
    """Row-reduced span of the ideal's image in the degree-< order jet space."""
    span = Span(jet_key_order)
    n = len(I.variables)
    for g in I.generators:
        g_ord = g.order()
        if g_ord is None or g_ord >= order:
            continue
        terms = integer_terms(g)
        for m in monomials_below(n, order - g_ord):
            vec = truncate_vec(shifted_terms(terms, m), order)
            if vec:
                span.insert(vec)
    return span


def jet_quotient(I: IdealGens, order: int) -> tuple[int, list[Exponents]]:
    """Dimension and greedy monomial basis of (jets of degree < order) / I.

    The basis picks, in graded order, each monomial independent of the
    ideal image plus the previously picked monomials.
    """
    span = ideal_jet_span(I, order)
    basis: list[Exponents] = []
    for m in monomials_below(len(I.variables), order):
        if span.insert({m: 1}):
            basis.append(m)
    return len(basis), basis


def quotient_dim_jet(I: IdealGens, order: int) -> int:
    if order < 1:
        raise InputError("jet order must be at least 1")
    return jet_quotient(I, order)[0]


# -- one least-term count for every jet order -----------------------------------


# The prime of the nu scan's order predictor: small enough for fast integer
# arithmetic, large enough that an unlucky rank drop is rare.
_PREDICTOR_MODULUS = 2**61 - 1


def _gkey(e: Exponents) -> tuple[int, ...]:
    """``graded_key`` flattened to one tuple, (total degree, reversed
    exponents), so that plain tuple comparison orders it; it is additive
    in the exponents."""
    return (sum(e),) + e[::-1]


class _JetCounts:
    """q(k) = dim O/(W + m^k) for every jet order k from one echelon.

    W is spanned by the generators g x^m (g in I) and, when ``image`` is
    given, the twisted images V~(x^m).  Each generator goes in once, at the
    first order k above a lower bound of its order: ord(g) + |m| for
    g x^m, |m| - ``drop`` for V~(x^m).  Rows are integer vectors with
    distinct least terms (leads) under ``graded_key``; an insert cancels
    only leads, so rows are never fully reduced.  Terms of degree
    ``cap`` and above are dropped, which changes no q(k) with k <= cap.

    Lemma: once every generator of order < k is in, q(k) = #monomials of
    degree < k - #rows with lead degree < k.  A row with lead degree >= k
    lies in m^k, and the other rows keep their distinct leads mod m^k, so
    they are a basis of (W + m^k)/m^k.  An insert never lowers a lead
    below the generator's order, so the count for k is final from then on.

    With ``modulus`` p the rows live over GF(p).  The count then bounds the
    rational one from above, q_p(k) >= q(k), since reduction mod p cannot
    raise a rank; it may only pick an order, never certify one.
    """

    def __init__(
        self,
        I: IdealGens,
        image: Optional[Callable[[Exponents], dict[Exponents, int]]] = None,
        drop: int = 0,
        cap: Optional[int] = None,
        modulus: Optional[int] = None,
    ):
        self.n, self.ones = len(I.variables), (1,) * len(I.variables)
        self.gens = [
            (g.order(), [(_gkey(e), c) for e, c in integer_terms(g)])
            for g in I.generators
        ]
        self.image, self.drop, self.cap, self.modulus = image, drop, cap, modulus
        self.rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self.lead_degrees: Counter[int] = Counter()  # rows per lead degree
        self.order = 0  # every generator of order < self.order is in

    def quotient_dim(self, k: int) -> int:
        while self.order < k:
            self._advance()
        return comb(self.n + k - 1, self.n) - sum(self.lead_degrees[d] for d in range(k))

    def _advance(self) -> None:
        """Insert the generators whose order bound is self.order."""
        k = self.order = self.order + 1
        for g_ord, terms in self.gens:
            for m in monomials_of_weighted_degree(self.n, self.ones, k - 1 - g_ord):
                mkey = _gkey(m)
                self._insert({tuple(map(add, e, mkey)): c for e, c in terms})
        if self.image is not None:
            degrees = range(self.drop + 1) if k == 1 else (k - 1 + self.drop,)
            for d in degrees:
                for m in monomials_of_weighted_degree(self.n, self.ones, d):
                    self._insert({_gkey(e): c for e, c in self.image(m).items()})

    def _insert(self, vec: dict[tuple[int, ...], int]) -> None:
        p, rows = self.modulus, self.rows
        if self.cap is not None:
            vec = {e: c for e, c in vec.items() if e[0] < self.cap}
        if p is not None:
            vec = {e: c % p for e, c in vec.items() if c % p}
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                if p is None:
                    _make_primitive(vec, None)
                else:
                    inv = pow(vec[lead], -1, p)
                    vec = {e: c * inv % p for e, c in vec.items()}
                rows[lead] = vec
                self.lead_degrees[lead[0]] += 1
                return
            if p is None:
                _cancel(vec, None, lead, row, None)
                continue
            c = vec[lead]  # rows over GF(p) are monic
            for e, v in row.items():
                acc = (vec.get(e, 0) - c * v) % p
                if acc:
                    vec[e] = acc
                else:
                    vec.pop(e, None)


def _nakayama_order(counts: _JetCounts) -> int:
    """The first k with q(k + 1) = q(k); see ``local_quotient``."""
    k = 1
    while counts.quotient_dim(k + 1) != counts.quotient_dim(k):
        k += 1
    return k


# -- weighted-degree slices -----------------------------------------------------


class _GradedIdeal:
    """Weighted-degree slices of a quasi-homogeneous ideal (exact)."""

    def __init__(self, I: IdealGens, weights: WeightSystem):
        self.variables = I.variables
        self.int_weights, self.scale = weights.integer_scaled()
        self.gen_degrees: list[int] = []
        for g in I.generators:
            d = g.quasi_homogeneous_degree(weights.weights)
            if d is None:
                raise InputError(
                    f"generator {g.lowest_monic()} is not quasi-homogeneous "
                    "for the certificate"
                )
            scaled = d * self.scale
            if scaled.denominator != 1:
                raise InputError("weight scaling failed to clear denominators")
            self.gen_degrees.append(int(scaled))
        self.generator_terms = [integer_terms(g) for g in I.generators]
        self._slices: dict[int, Span] = {}

    def monomials(self, wdeg: int) -> tuple[Exponents, ...]:
        return monomials_of_weighted_degree(
            len(self.variables), self.int_weights, wdeg
        )

    def slice_span(self, wdeg: int) -> Span:
        if wdeg not in self._slices:
            span = Span(jet_key_order)
            for terms, d in zip(self.generator_terms, self.gen_degrees):
                if wdeg < d:
                    continue
                for m in self.monomials(wdeg - d):
                    span.insert(shifted_terms(terms, m))
            self._slices[wdeg] = span
        return self._slices[wdeg]

    def nonempty_slices(
        self, wdeg_cap: Optional[int] = None
    ) -> Iterator[tuple[int, tuple[Exponents, ...]]]:
        """The nonempty slices (wdeg, monomials) from weighted degree 0 up
        to ``wdeg_cap``, with no end when it is None."""
        degrees = count() if wdeg_cap is None else range(max(wdeg_cap, 0) + 1)
        for wdeg in degrees:
            monos = self.monomials(wdeg)
            if monos:
                yield wdeg, monos


# -- the colength of an isolated ideal ------------------------------------------


def local_quotient(
    I: IdealGens, weights: Optional[WeightSystem] = None
) -> tuple[int, list[Exponents]]:
    """Dimension and greedy monomial basis of O/I at the origin, for an
    ideal I that the caller has shown to be isolated at 0
    (``groebner.isolated_at_origin``); for any other ideal the scan does
    not end.  Neither scan reads a cap, and each stops by a proof.

    * With weights (I quasi-homogeneous), weighted slices from degree 0 up.
      Every slice is O_e = sum_j x_j O_(e - w_j), so once (O/I)_e = 0 on
      wmax = max w_j consecutive nonempty slices (a run of degrees at
      least wmax long), induction on e gives (O/I)_e = 0 above them.
    * Without, the jet orders k = 1, 2, ... with q(k) = dim O/(I + m^k),
      all counted exactly by one ``_JetCounts`` with no cap.  At the first
      k with q(k + 1) = q(k), m^k lies in I + m^(k+1), so m^k lies in
      I O_0 by Nakayama's lemma (Atiyah-Macdonald, Cor. 2.7) and
      O_0/I O_0 = O/(I + m^k).  The basis comes from one ``jet_quotient``
      at that k.

    The basis picks, in graded order, each monomial independent of I and
    of the monomials picked before it.
    """
    if weights is not None:
        basis = [
            m
            for span, monos in _graded_colength_slices(I, weights)
            for m in monos
            if span.insert({m: 1})
        ]
        return len(basis), basis
    return jet_quotient(I, _nakayama_order(_JetCounts(I)))


def local_colength(I: IdealGens, weights: Optional[WeightSystem] = None) -> int:
    """dim O/I at the origin by the scans of ``local_quotient``, with no
    basis: the slice ranks, or the exact jet count at the Nakayama order."""
    if weights is not None:
        return sum(
            len(monos) - span.rank for span, monos in _graded_colength_slices(I, weights)
        )
    counts = _JetCounts(I)
    return counts.quotient_dim(_nakayama_order(counts))


def _graded_colength_slices(
    I: IdealGens, weights: WeightSystem
) -> Iterator[tuple[Span, tuple[Exponents, ...]]]:
    """The nonempty slices (span of I, monomials) of ``local_quotient``'s
    graded scan, up to its stop after wmax empty quotient slices."""
    graded = _GradedIdeal(I, weights)
    wmax = max(graded.int_weights)
    empty_run = 0
    for wdeg, monos in graded.nonempty_slices():
        span = graded.slice_span(wdeg)
        empty_run = empty_run + 1 if span.rank == len(monos) else 0
        yield span, monos
        if empty_run == wmax:
            return


# -- twisted quotients --------------------------------------------------------


@dataclass(frozen=True)
class TwistedResult:
    dim: int
    basis: tuple[Exponents, ...]


def _twisted_shift(
    V: VectorField, div: Poly, weights: tuple[Fraction, ...]
) -> Optional[Fraction]:
    """Weighted-degree shift of the twisted action, or None when the field
    is not graded for these weights (all coefficient shifts must agree)."""
    shift: Optional[Fraction] = None
    for i, coeff in enumerate(V.coefficients):
        if coeff.is_zero:
            continue
        d = coeff.quasi_homogeneous_degree(weights)
        if d is None:
            return None
        s = d - weights[i]
        if shift is None:
            shift = s
        elif shift != s:
            return None
    if not div.is_zero:
        d = div.quasi_homogeneous_degree(weights)
        if d is None or (shift is not None and d != shift):
            return None
        shift = d if shift is None else shift
    return shift


def _twisted_drop(V: VectorField, div: Poly) -> int:
    """How far the twisted action lowers the order: ord V~(x^m) >= |m| - drop."""
    return max(
        [0]
        + [1 - c.order() for c in V.coefficients if not c.is_zero]
        + ([] if div.is_zero else [-div.order()])
    )


def _reached(basis: list[Exponents], target: int) -> bool:
    """Whether a scan's lower bound len(basis) has reached ``target``; a
    bound past it contradicts the target, which is a defect."""
    if len(basis) > target:
        raise RuntimeError(
            f"internal invariant violation: the nu scan found {len(basis)} "
            f"classes, past the target {target}"
        )
    return len(basis) == target


def twisted_quotient_dim(
    I: IdealGens,
    V: VectorField,
    target: int,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
) -> TwistedResult:
    """Dimension and monomial basis of O / (I + twisted-action image), for
    a caller that knows the dimension is ``target``.

    The twisted action is h -> V.h + div(V) h.  With a weight certificate
    under which the field is graded the scan runs over weighted slices,
    each finite exact linear algebra, up to weighted degree
    ``jet_cap * max weight``; otherwise over the jet orders 1, 2, ... up
    to ``jet_cap``.  The slice partial sums and the jet dimensions
    nu_N = dim O/(I + V~(O) + m^N) are the dimensions of quotients of the
    full quotient, so they are nondecreasing lower bounds of it, and the
    scan stops at the first slice or order that reaches ``target``.

    The jet orders are scanned by one ``_JetCounts`` over GF(p) with
    terms of degree ``jet_cap`` and above dropped; its count bounds nu_N
    from above, so its first order reaching ``target`` is never past the
    true stop.  Only there is the exact span built (ideal jets, truncated
    twisted images, then the greedy monomials), and its basis size is the
    certificate; when an unlucky prime made the count run ahead, the
    exact span is built again one order on.  A bound past ``target``, or
    a negative ``target``, raises RuntimeError; a cap reached first raises
    InconclusiveError.
    """
    if V.variables != I.variables:
        raise InputError("ideal and vector field live in different rings")
    if target < 0:
        raise RuntimeError(
            f"internal invariant violation: negative nu target {target}"
        )
    n = len(I.variables)
    div = V.divergence()
    twisted_image = _ShiftedImages(V.coefficients, div)

    if weights is not None:
        shift = _twisted_shift(V, div, weights.weights)
        if shift is not None or V.is_zero:
            graded = _GradedIdeal(I, weights)
            scaled_shift = 0
            if shift is not None:
                s = shift * graded.scale
                if s.denominator != 1:
                    raise InputError("twisted shift does not scale to an integer")
                scaled_shift = int(s)
            wdeg_cap = jet_cap * max(graded.int_weights) - max(0, -scaled_shift)
            basis: list[Exponents] = []
            for wdeg, monos in graded.nonempty_slices(wdeg_cap):
                span = graded.slice_span(wdeg).copy()
                source = wdeg - scaled_shift
                if not V.is_zero and source >= 0:
                    for m in graded.monomials(source):
                        image = twisted_image(m)
                        if image:
                            span.insert(image)
                basis.extend(m for m in monos if span.insert({m: 1}))
                if _reached(basis, target):
                    return TwistedResult(target, tuple(basis))
            raise InconclusiveError(
                "graded twisted quotient did not reach the target nu",
                target=target,
                wdeg_cap=wdeg_cap,
            )
    # jet path
    drop = _twisted_drop(V, div)
    image = lru_cache(maxsize=None)(twisted_image)
    predictor = _JetCounts(I, image, drop, jet_cap, _PREDICTOR_MODULUS)
    for order in range(1, jet_cap + 1):
        if predictor.quotient_dim(order) < target:
            continue
        span = ideal_jet_span(I, order)
        for m in monomials_below(n, order + drop):
            vec = truncate_vec(image(m), order)
            if vec:
                span.insert(vec)
        basis = [m for m in monomials_below(n, order) if span.insert({m: 1})]
        if _reached(basis, target):
            return TwistedResult(target, tuple(basis))
    raise InconclusiveError(
        "twisted quotient did not reach the target nu",
        target=target,
        jet_cap=jet_cap,
    )
