"""Jet-space linear algebra at the origin.

Everything here models the local ring of germs at 0 through the finite
quotients O/(W + M_k), M_k spanned by the monomials of weighted degree
>= k for integer weights w.  Unit weights give the total-degree jets
(M_k = m^k); the weights of a certificate that makes the input
quasi-homogeneous give weighted-degree slices, which carry no truncation
error.

Each quotient stops by a proof: ``local_quotient`` by Nakayama's lemma,
``twisted_quotient_dim`` when its nondecreasing lower bound reaches a
target dimension the caller has computed independently.  Every scan runs
the orders k = 1, 2, ... on one least-term count (``_JetCounts``), with
the certificate's weights or unit ones.  Every reported number rests on
exact integer or rational row reduction, and a count modulo a prime only
picks the jet order at which the exact span is built.  Saturation and the
finite-colength test live in ``groebner``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import add, mul, neg
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import VectorField
from .linalg import Span, _cancel, _make_primitive
from .poly import Exponents, Poly, Scalar, WeightSystem, listing_key


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
def _count_below(n_vars: int, int_weights: tuple[int, ...], bound: int) -> int:
    """The number of exponent vectors of weighted degree < bound."""
    return sum(len(monomials_of_weighted_degree(n_vars, int_weights, d)) for d in range(bound))


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


def shifted_terms(
    terms: Iterable[tuple[Exponents, Scalar]], m: Exponents
) -> dict[Exponents, Scalar]:
    """The terms of x^m times the polynomial with ``terms``."""
    return {tuple(map(add, e, m)): c for e, c in terms}


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


# -- one least-term count for every order ---------------------------------------


# The prime of the nu scan's order predictor: small enough for fast integer
# arithmetic, large enough that an unlucky rank drop is rare.
_PREDICTOR_MODULUS = 2**61 - 1


@lru_cache(maxsize=1 << 14)
def _count_key(e: Exponents, weights: tuple[int, ...]) -> tuple[int, ...]:
    """The term order of ``_JetCounts``: (wdeg(e), -e_(n-1), ..., -e_0),
    additive in e.  Cached, since every scan keys the same low exponents."""
    return (sum(map(mul, e, weights)), *map(neg, reversed(e)))


class _JetCounts:
    """q(k) = dim O/(W + M_k) for every order k from one echelon, where M_k
    is spanned by the monomials of w-degree >= k.

    w is the integer-scaled weight vector of ``weights``, or unit weights
    without one (then M_k = m^k and k is a jet order).  W is spanned by
    the generators g x^m (g in I) and, when ``image`` is given, the twisted
    images V~(x^m).  Each generator goes in once, at the first order k
    above a lower bound of its w-order: w-ord(g) + wdeg(m) for g x^m,
    wdeg(m) - ``drop`` for V~(x^m).  Rows are integer vectors with
    distinct least terms (leads) under the additive key
    (wdeg, -e_(n-1), ..., -e_0); an insert cancels only leads, so rows are
    never fully reduced.  Terms of w-degree ``cap`` and above are dropped,
    which changes no q(k) with k <= cap.

    Lemma: once every generator of order < k is in, q(k) = #monomials of
    w-degree < k - #rows with lead w-degree < k.  A row with lead w-degree
    >= k lies in M_k, and the other rows keep their distinct leads mod
    M_k, so they are a basis of (W + M_k)/M_k.  An insert never lowers a
    lead below the generator's order, so the count for k is final from
    then on, and the monomials of w-degree < k that lead no row are a
    basis of O/(W + M_k).

    ``basis`` returns the greedy one: the monomials of w-degree < k that
    are the greatest term, in (w-degree, listing) order, of no vector of
    (W + M_k)/M_k.  The greedy pass in that order picks m exactly when m
    is independent of W + M_k and of the monomials below it, that is when
    no such vector has m as its greatest term.  With ``weights`` every
    generator of I must be w-homogeneous (else InputError), and the rows
    are too when the twisted action is graded.  Within one w-degree the
    least key is the greatest monomial in listing order, so a homogeneous
    row's lead is its greatest term, and the leads are exactly the
    greatest terms: the basis is the non-leads.  Without weights a lead is
    a least term, so the greatest terms are read off one exact ``Span``
    instead (``_greatest_terms``).

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
        weights: Optional[WeightSystem] = None,
    ):
        self.n = len(I.variables)
        self.weights = (1,) * self.n if weights is None else weights.integer_scaled()[0]
        self.gens = []
        for g in I.generators:
            terms = [(_count_key(e, self.weights), c) for e, c in integer_terms(g)]
            degrees = {key[0] for key, _ in terms}
            if weights is not None and len(degrees) > 1:
                raise InputError(
                    f"generator {g.lowest_monic()} is not quasi-homogeneous "
                    "for the certificate"
                )
            self.gens.append((min(degrees), terms))
        self.image, self.drop, self.cap, self.modulus = image, drop, cap, modulus
        self.graded = weights is not None
        self.rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self.lead_degrees: Counter[int] = Counter()  # rows per lead w-degree
        self.order = 0  # every generator of order < self.order is in

    def monomials(self, wdeg: int) -> tuple[Exponents, ...]:
        return monomials_of_weighted_degree(self.n, self.weights, wdeg)

    def quotient_dim(self, k: int) -> int:
        while self.order < k:
            self._advance()
        leads = sum(self.lead_degrees[d] for d in range(k))
        return _count_below(self.n, self.weights, k) - leads

    def basis(self, k: int) -> list[Exponents]:
        """The greedy monomial basis of O/(W + M_k), in (w-degree, listing)
        order: the monomials of w-degree < k that are the greatest term of
        no vector of (W + M_k)/M_k."""
        self.quotient_dim(k)
        greatest = self.rows if self.graded else self._greatest_terms(k)
        return [
            m
            for d in range(k)
            for m in self.monomials(d)
            if _count_key(m, self.weights) not in greatest
        ]

    def _greatest_terms(self, k: int) -> set[tuple[int, ...]]:
        """The greatest terms of the vectors of (W + M_k)/M_k, as count
        keys: the pivots of one exact ``Span`` (exact also when the count's
        rows live over GF(p)) of the generators of order < k cut at order
        k.  Its columns are the count keys with the degree negated,
        (-wdeg, -e_(n-1), ..., -e_0), so that each row's pivot, its least
        column, is its greatest term.  The generators go in from the top
        order down: the top slice fills most of its degree first, and a
        later row reduces against it to a short tail on the few monomials
        left, which keeps the integer rows small."""
        span = Span()
        for order in range(k, 0, -1):
            for vec in self._entering(order):
                cut = {(-e[0], *e[1:]): c for e, c in vec.items() if e[0] < k}
                if cut:
                    span.insert(cut)
        return {(-d, *rest) for d, *rest in span.pivots}

    def _entering(self, k: int) -> Iterator[dict[tuple[int, ...], int]]:
        """The generators that go in at order k (order bound k - 1), as
        count-keyed integer vectors."""
        w = self.weights
        for g_ord, terms in self.gens:
            for m in self.monomials(k - 1 - g_ord):
                mkey = _count_key(m, w)
                yield {tuple(map(add, e, mkey)): c for e, c in terms}
        if self.image is not None:
            degrees = range(self.drop + 1) if k == 1 else (k - 1 + self.drop,)
            for d in degrees:
                for m in self.monomials(d):
                    yield {_count_key(e, w): c for e, c in self.image(m).items()}

    def _advance(self) -> None:
        """Insert the generators that go in at the next order."""
        self.order += 1
        for vec in self._entering(self.order):
            self._insert(vec)

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
                    _make_primitive(vec)
                else:
                    inv = pow(vec[lead], -1, p)
                    vec = {e: c * inv % p for e, c in vec.items()}
                rows[lead] = vec
                self.lead_degrees[lead[0]] += 1
                return
            if p is None:
                _cancel(vec, lead, row)
                continue
            c = vec[lead]  # rows over GF(p) are monic
            for e, v in row.items():
                acc = (vec.get(e, 0) - c * v) % p
                if acc:
                    vec[e] = acc
                else:
                    vec.pop(e, None)


def _nakayama_order(counts: _JetCounts) -> int:
    """The first k with q(k + wmax) = q(k), wmax the largest weight; see
    ``local_quotient``."""
    k, wmax = 1, max(counts.weights)
    while counts.quotient_dim(k + wmax) != counts.quotient_dim(k):
        k += 1
    return k


# -- the colength of an isolated ideal ------------------------------------------


def local_quotient(
    I: IdealGens, weights: Optional[WeightSystem] = None
) -> tuple[int, list[Exponents]]:
    """Dimension and greedy monomial basis of O/I at the origin, for an
    ideal I that the caller has shown to be isolated at 0
    (``groebner.isolated_at_origin``); for any other ideal the scan does
    not end.  The scan reads no cap, and it stops by a proof.

    One exact ``_JetCounts`` with no cap counts q(k) = dim O/(I + M_k) for
    k = 1, 2, ..., M_k spanned by the monomials of w-degree >= k (unit
    weights without ``weights``, when M_k = m^k).  At the first k with
    q(k + wmax) = q(k), wmax the largest weight, M_k lies in
    I + M_(k+wmax), and M_(k+wmax) lies in m M_k: a monomial of w-degree
    >= k + wmax keeps w-degree >= k after dividing by any variable it
    contains.  So M_k lies in I O_0 by Nakayama's lemma (Atiyah-Macdonald,
    Cor. 2.7), and O_0/I O_0 = O/(I + M_k).

    The basis picks, in (w-degree, listing) order, each monomial
    independent of I and of the monomials picked before it: the monomials
    that are the greatest term of no vector of (I + M_k)/M_k at the stop
    (``_JetCounts.basis``).
    """
    counts = _JetCounts(I, weights=weights)
    basis = counts.basis(_nakayama_order(counts))
    return len(basis), basis


def local_colength(I: IdealGens, weights: Optional[WeightSystem] = None) -> int:
    """dim O/I at the origin by the scan of ``local_quotient``, with no
    basis: the exact count at its Nakayama stop."""
    counts = _JetCounts(I, weights=weights)
    return counts.quotient_dim(_nakayama_order(counts))


# -- twisted quotients --------------------------------------------------------


@dataclass(frozen=True)
class TwistedResult:
    dim: int
    basis: tuple[Exponents, ...]


def _twisted_raises(V: VectorField, div: Poly, weights: Sequence[int]) -> set[int]:
    """The w-degree raises of the twisted action's terms: V~ sends x^m to
    terms of w-degree wdeg(m) + r, r in the returned set (wdeg(e) - w_i for
    a term x^e of V_i, wdeg(e) for a term x^e of div V).  The action is
    graded when the set has at most one value, and it lowers the w-order
    by at most max(0, -min)."""
    raises = {
        sum(map(mul, e, weights)) - w
        for w, coeff in zip(weights, V.coefficients)
        for e in coeff.terms
    }
    raises.update(sum(map(mul, e, weights)) for e in div.terms)
    return raises


# the default bound of the nu scan, in jet orders (``twisted_quotient_dim``)
DEFAULT_JET_CAP = 24


def _reached(found: int, target: int) -> bool:
    """Whether a scan's lower bound ``found`` has reached ``target``; a
    bound past it contradicts the target, which is a defect."""
    if found > target:
        raise RuntimeError(
            f"internal invariant violation: the nu scan found {found} "
            f"classes, past the target {target}"
        )
    return found == target


def twisted_quotient_dim(
    I: IdealGens,
    V: VectorField,
    target: int,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = DEFAULT_JET_CAP,
) -> TwistedResult:
    """Dimension and monomial basis of O / (I + twisted-action image), for
    a caller that knows the dimension is ``target``.

    The twisted action is h -> V.h + div(V) h.  The dimensions
    q(k) = dim O/(I + V~(O) + M_k), M_k spanned by the monomials of
    w-degree >= k, are the dimensions of quotients of the full quotient,
    so they are nondecreasing lower bounds of it, and the scan stops at
    the first k whose q(k) reaches ``target``.

    With a weight certificate under which the field is graded, one exact
    weighted ``_JetCounts`` counts every q(k) up to the weighted degree
    ``wdeg_cap = jet_cap * max weight - drop``.  Otherwise the jet orders
    1, 2, ... up to ``jet_cap`` are counted by one ``_JetCounts`` over
    GF(p) with terms of degree ``jet_cap`` and above dropped; its count
    bounds nu_N = q(N) from above, so its first order reaching ``target``
    is never past the true stop.  At each order whose count reaches
    ``target`` the scan reads the greedy basis (``_JetCounts.basis``: the
    non-leads when graded, the non-pivots of one exact greatest-term span
    otherwise), and the basis size is the certificate; when an unlucky
    prime made the count run ahead, the basis is read again one order on.
    A bound past ``target``, or a negative ``target``, raises
    RuntimeError; a cap reached first raises InconclusiveError.
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
    w = (1,) * n if weights is None else weights.integer_scaled()[0]
    raises = _twisted_raises(V, div, w)
    if weights is not None and len(raises) > 1:  # not graded: scan the jet orders
        weights, raises = None, _twisted_raises(V, div, (1,) * n)
    drop = max(0, -min(raises, default=0))

    if weights is not None:
        wdeg_cap = jet_cap * max(w) - drop
        counts = _JetCounts(I, twisted_image, drop, weights=weights)
        orders = range(1, max(wdeg_cap, 0) + 2)
        failure = "graded twisted quotient did not reach the target nu"
        context = {"wdeg_cap": wdeg_cap}
    else:
        # the greatest-term span evaluates every image again
        image = lru_cache(maxsize=None)(twisted_image)
        counts = _JetCounts(I, image, drop, jet_cap, _PREDICTOR_MODULUS)
        orders = range(1, jet_cap + 1)
        failure = "twisted quotient did not reach the target nu"
        context = {"jet_cap": jet_cap}
    for k in orders:
        if counts.quotient_dim(k) < target:
            continue
        basis = counts.basis(k)
        if _reached(len(basis), target):
            return TwistedResult(target, tuple(basis))
    raise InconclusiveError(failure, target=target, **context)
