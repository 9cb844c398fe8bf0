"""Jet-space linear algebra at the origin.

Everything here models the local ring of germs at 0 through two kinds of
finite-dimensional pieces:

* total-degree jets (monomials of total degree < M);
* weighted-degree slices, used when a weight certificate makes the input
  quasi-homogeneous; slice computations carry no truncation error.

Each quotient stops by a proof: ``local_quotient`` by Nakayama's lemma,
``twisted_quotient_dim`` when its nondecreasing lower bound reaches a
target dimension the caller has computed independently.  The quotients
here (jet, local, twisted) are all driven by exact rational row
reduction; saturation and the finite-colength test live in ``groebner``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm
from operator import add
from typing import Iterator, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import VectorField
from .linalg import Span, Vec
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
    """A finite generating set; duplicates and zero generators are removed,
    and each generator is scaled so its lowest term has coefficient 1."""

    variables: tuple[str, ...]
    generators: tuple[Poly, ...]

    @classmethod
    def of(cls, variables: Sequence[str], generators: Sequence[Poly]) -> "IdealGens":
        variables = tuple(variables)
        seen: list[Poly] = []
        for g in generators:
            if g.variables != variables:
                raise InputError("ideal generator lives in a different ring")
            if g.is_zero:
                continue
            normalized = g.lowest_monic()
            if normalized not in seen:
                seen.append(normalized)
        if not seen:
            raise InputError("an ideal needs at least one nonzero generator")
        return cls(variables, tuple(seen))

    def contains_unit(self) -> bool:
        return any(g.constant_value() != 0 for g in self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


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
                    f"generator {g} is not quasi-homogeneous for the certificate"
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
    * Without, the jet orders k = 1, 2, ... with q(k) = dim O/(I + m^k).
      At the first k with q(k + 1) = q(k), m^k lies in I + m^(k+1), so
      m^k lies in I O_0 by Nakayama's lemma (Atiyah-Macdonald, Cor. 2.7)
      and O_0/I O_0 = O/(I + m^k).

    The basis picks, in graded order, each monomial independent of I and
    of the monomials picked before it.
    """
    if weights is not None:
        graded = _GradedIdeal(I, weights)
        wmax = max(graded.int_weights)
        basis: list[Exponents] = []
        empty_run = 0
        for wdeg, monos in graded.nonempty_slices():
            span = graded.slice_span(wdeg)
            new = [m for m in monos if span.insert({m: 1})]
            basis.extend(new)
            empty_run = 0 if new else empty_run + 1
            if empty_run == wmax:
                return len(basis), basis
    previous = jet_quotient(I, 1)
    for order in count(2):
        current = jet_quotient(I, order)
        if current[0] == previous[0]:
            return previous
        previous = current


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
    ``jet_cap * max weight``; otherwise over the jet orders 10, 12, ... up
    to ``jet_cap``.  The slice partial sums and the jet dimensions
    dim O/(I + V~(O) + m^N) are the dimensions of quotients of the full
    quotient, so they are nondecreasing lower bounds of it, and the scan
    stops at the first slice or order that reaches ``target``.  A bound
    past ``target``, or a negative ``target``, raises RuntimeError; a cap
    reached first raises InconclusiveError.
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
    drop = 0
    for i, coeff in enumerate(V.coefficients):
        o = coeff.order()
        if o is not None:
            drop = max(drop, 1 - o)
    div_ord = div.order()
    if div_ord is not None:
        drop = max(drop, -div_ord)

    images: dict[Exponents, Vec] = {}  # twisted images, shared by all jet orders
    orders = range(max(6, min(10, jet_cap)), jet_cap + 1, 2)
    for order in orders:
        span = ideal_jet_span(I, order)
        for m in monomials_below(n, order + drop):
            if m not in images:
                images[m] = twisted_image(m)
            vec = truncate_vec(images[m], order)
            if vec:
                span.insert(vec)
        basis = [m for m in monomials_below(n, order) if span.insert({m: 1})]
        if _reached(basis, target):
            return TwistedResult(target, tuple(basis))
    raise InconclusiveError(
        "twisted quotient did not reach the target nu",
        target=target,
        first_order=orders.start,
        jet_cap=jet_cap,
    )
