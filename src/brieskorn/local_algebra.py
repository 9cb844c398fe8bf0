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
exact integer or rational row reduction.  A count modulo a prime runs
only on jet input not homogeneous in unit weights, and only picks the jet
order at which the exact span is built.  Saturation and the
finite-colength test live in ``groebner``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import lcm, prod
from operator import add, mul, neg
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InconclusiveError, InputError
from .linalg import Span, reduce_by_leads
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
    true image, an integer vector spanning the same line.  The image is
    x^m (sum_i m_i x^(-e_i) P_i + Q), read off one row per exponent e of
    the bracket: its coefficients of m_0, ..., m_(n-1) and its constant.
    Only m_i has a nonzero coefficient at an e with e_i = -1, so a
    negative exponent m_i + e_i = -1 comes with the value 0."""

    def __init__(self, parts: Sequence[Poly], extra: Poly):
        self.variables = extra.variables
        self.scale = common_denominator(*parts, extra)
        self._raised = (None, set())  # the last weights and their raises
        n = len(parts)
        rows: dict[Exponents, list[int]] = {}
        for i, poly in enumerate((*parts, extra)):  # x^(-e_i) P_i, then Q
            for e, c in integer_terms(poly, self.scale):
                key = e[:i] + (e[i] - 1,) + e[i + 1 :] if i < n else e
                rows.setdefault(key, [0] * (n + 1))[i] = c
        self._rows = [(e, tuple(row[:n]), row[n]) for e, row in rows.items()]

    def __call__(self, m: Exponents) -> dict[Exponents, int]:
        out: dict[Exponents, int] = {}
        for e, row, constant in self._rows:
            value = sum(map(mul, row, m)) + constant
            if value:
                out[tuple(map(add, e, m))] = value
        return out

    def raises(self, weights: Sequence[int]) -> set[int]:
        """The w-degree raises of the map: x^m goes to terms of w-degree
        wdeg(m) + r, r in the returned set (wdeg(e) over the exponents e of
        the rows: wdeg(e) - w_i for a term x^e of P_i, wdeg(e) for a term x^e
        of Q).  The map is graded when the set has at most one value, and it
        lowers the w-order by at most max(0, -min)."""
        if self._raised[0] != weights:  # the graded test and the count read one set
            raises = {sum(map(mul, e, weights)) for e, _, _ in self._rows}
            self._raised = (weights, raises)
        return self._raised[1]


class IdealGens(NamedTuple):
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


def _homogeneous(I: IdealGens, image: Optional[_ShiftedImages], w: tuple[int, ...]) -> bool:
    """Whether every row of a count of I and ``image`` is w-homogeneous:
    each generator of I is, and the image has at most one w-degree raise."""
    gens = all(len({sum(map(mul, e, w)) for e in g.terms}) == 1 for g in I.generators)
    return gens and (image is None or len(image.raises(w)) <= 1)


class _JetCounts:
    """q(k) = dim O/(W + M_k) for every order k from one echelon, where M_k
    is spanned by the monomials of w-degree >= k.

    w is the integer-scaled weight vector of ``weights``, or unit weights
    without one (then M_k = m^k and k is a jet order).  W is spanned by
    the generators g x^m (g in I) and, when ``image`` is given, the twisted
    images V~(x^m).  Each generator goes in once, at the first order k
    above a lower bound of its w-order: w-ord(g) + wdeg(m) for g x^m,
    wdeg(m) - ``drop`` for V~(x^m), ``drop`` the most that the image
    lowers the w-degree (``_ShiftedImages.raises``).  Rows are integer
    vectors with distinct least terms (leads) under the additive key
    (wdeg, -e_(n-1), ..., -e_0): the echelon of a ``linalg.Span``, which an
    exact insert extends by ``linalg.reduce_by_leads``, cancelling leads
    only.  Terms of w-degree ``cap`` and above are dropped, which changes
    no q(k) with k <= cap.

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
    generator of I must be w-homogeneous (else InputError).  The count is
    graded when it is exact and its rows are w-homogeneous, in the
    certificate's weights or unit ones (``_homogeneous``).  Within one
    w-degree the least key is the greatest monomial in listing order, so a
    homogeneous row's lead is its greatest term, and the leads are exactly
    the greatest terms: the basis is the non-leads.  Otherwise a lead is a
    least term, so the greatest terms are read off one exact ``Span``
    instead (``_greatest_terms``).

    With ``modulus`` p the rows live over GF(p).  The count then bounds the
    rational one from above, q_p(k) >= q(k), since reduction mod p cannot
    raise a rank; it may only pick an order, never certify one.
    """

    def __init__(
        self,
        I: IdealGens,
        image: Optional[_ShiftedImages] = None,
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
        self.graded = modulus is None and _homogeneous(I, image, self.weights)
        self.drop = 0
        if image is not None:
            self.drop = max(0, -min(image.raises(self.weights), default=0))
            if modulus is not None:
                # the greatest-term span over GF(p) evaluates every image again
                image = lru_cache(maxsize=None)(image)
        self.image, self.cap, self.modulus = image, cap, modulus
        self.rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self.lead_degrees: Counter[int] = Counter()  # rows per lead w-degree
        self.order = 0  # every generator of order < self.order is in
        self.leads_below = 0  # rows with lead w-degree < self.order
        self.counts = [0]  # q(k) for k <= self.order, final by the lemma

    def monomials(self, wdeg: int) -> tuple[Exponents, ...]:
        return monomials_of_weighted_degree(self.n, self.weights, wdeg)

    def quotient_dim(self, k: int) -> int:
        while self.order < k:
            self._advance()
        return self.counts[k]

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
        keys: the pivots of one exact ``Span`` of a spanning set of it cut
        at order k.  Its columns are the count keys with the degree negated,
        (-wdeg, -e_(n-1), ..., -e_0), so that each row's pivot, its least
        column, is its greatest term.  An exact count spans with its own
        rows of lead w-degree < k, a basis by the lemma, so it re-enters
        nothing.  Over GF(p) the generators of order < k go in again, from
        the top order down: the top slice fills most of its degree first,
        and a later row cancels its few leads against it.  Bottom-up, the
        span took 4 to 1000 times as long on long unweighted curves."""
        if self.modulus is None:
            vectors = [row for lead, row in self.rows.items() if lead[0] < k]
        else:
            vectors = (vec for order in range(k, 0, -1) for vec in self._entering(order))
        span = Span()
        for vec in vectors:
            cut = {(-e[0], *e[1:]): c for e, c in vec.items() if e[0] < k}
            if cut:
                span.insert(cut)
        return {(-d, *rest) for d, *rest in span.rows}

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
        """Insert the generators that go in at the next order k, then count
        q(k): no later insert leads below k."""
        k = self.order = self.order + 1
        for vec in self._entering(k):
            self._insert(vec)
        self.leads_below += self.lead_degrees.get(k - 1, 0)
        self.counts.append(_count_below(self.n, self.weights, k) - self.leads_below)

    def _insert(self, vec: dict[tuple[int, ...], int]) -> None:
        p, rows = self.modulus, self.rows
        if self.cap is not None:
            vec = {e: c for e, c in vec.items() if e[0] < self.cap}
        if p is None:
            lead = reduce_by_leads(rows, vec)
            if lead is not None:
                self.lead_degrees[lead[0]] += 1
            return
        vec = {e: c % p for e, c in vec.items() if c % p}
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, p)
                rows[lead] = {e: c * inv % p for e, c in vec.items()}
                self.lead_degrees[lead[0]] += 1
                return
            c = vec[lead]  # rows over GF(p) are monic
            for e, v in row.items():
                acc = (vec.get(e, 0) - c * v) % p
                if acc:
                    vec[e] = acc
                else:
                    vec.pop(e, None)


def _colength_bound(I: IdealGens) -> Optional[int]:
    """A bound on dim O_0/I O_0 whenever I O_0 is m-primary, or None.  With
    fewer generators than variables, I is m-primary only if it is the unit
    ideal (Krull).  For (p, q) in two variables the common factor is then a
    unit at 0, and Bezout's theorem (Fulton, *Algebraic Curves*, 5.3) bounds
    the colength by deg p deg q; for (p) in one variable it is ord p."""
    n, gens = len(I.variables), I.generators
    if len(gens) < n:
        return 0
    return prod(g.total_degree() for g in gens) if len(gens) == n <= 2 else None


def _nakayama_order(counts: _JetCounts, bound: Optional[int]) -> int:
    """The first k with q(k + wmax) = q(k), wmax the largest weight; see
    ``local_quotient``.  A count past ``bound`` raises InputError."""
    k, wmax = 1, max(counts.weights)
    while (q := counts.quotient_dim(k + wmax)) != counts.quotient_dim(k):
        if bound is not None and q > bound:
            raise InputError(f"infinite colength: the count {q} passed the bound {bound}")
        k += 1
    return k


# -- the colength of an isolated ideal ------------------------------------------


def local_quotient(
    I: IdealGens, weights: Optional[WeightSystem] = None
) -> tuple[int, list[Exponents]]:
    """Dimension and greedy monomial basis of O/I at the origin.  The scan
    reads no cap, and its stop proves I isolated at 0; a count past
    ``_colength_bound`` proves it is not and raises InputError.  An ideal
    with no bound must be shown isolated by the caller
    (``groebner.isolated_at_origin``), or the scan may not end.

    One exact ``_JetCounts`` with no cap counts q(k) = dim O/(I + M_k) for
    k = 1, 2, ..., M_k spanned by the monomials of w-degree >= k (unit
    weights without ``weights``, when M_k = m^k).  At the first k with
    q(k + wmax) = q(k), wmax the largest weight, M_k lies in
    I + M_(k+wmax), and M_(k+wmax) lies in m M_k: a monomial of w-degree
    >= k + wmax keeps w-degree >= k after dividing by any variable it
    contains.  So M_k lies in I O_0 by Nakayama's lemma (Atiyah-Macdonald,
    Cor. 2.7), and O_0/I O_0 = O/(I + M_k).  Each q(k) is the dimension of
    a quotient of O_0/I O_0; without a stop q grows by 1 every wmax orders.

    The basis picks, in (w-degree, listing) order, each monomial
    independent of I and of the monomials picked before it: the monomials
    that are the greatest term of no vector of (I + M_k)/M_k at the stop
    (``_JetCounts.basis``).
    """
    counts = _JetCounts(I, weights=weights)
    basis = counts.basis(_nakayama_order(counts, _colength_bound(I)))
    return len(basis), basis


def local_colength(I: IdealGens) -> int:
    """dim O/I at the origin by the unweighted scan of ``local_quotient``,
    with no basis: the exact count at its Nakayama stop."""
    counts = _JetCounts(I)
    return counts.quotient_dim(_nakayama_order(counts, _colength_bound(I)))


# -- twisted quotients --------------------------------------------------------


class TwistedResult(NamedTuple):
    dim: int
    basis: tuple[Exponents, ...]


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
    twisted: _ShiftedImages,
    target: int,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = DEFAULT_JET_CAP,
) -> TwistedResult:
    """Dimension and monomial basis of O / (I + twisted-action image), for
    a caller that knows the dimension is ``target``.

    The twisted action is h -> V.h + div(V) h, given as its operator
    ``twisted``; for the field V = (a_1, -a_0) dual to a 1-form alpha it is
    d(h alpha), ``forms.exact_form_images(alpha)[()]``.  The dimensions
    q(k) = dim O/(I + V~(O) + M_k), M_k spanned by the monomials of
    w-degree >= k, are the dimensions of quotients of the full quotient,
    so they are nondecreasing lower bounds of it, and the scan stops at
    the first k whose q(k) reaches ``target``.

    With a weight certificate under which the field is graded, one exact
    weighted ``_JetCounts`` counts every q(k) up to the weighted degree
    ``wdeg_cap = jet_cap * max weight - drop``.  Otherwise the jet orders
    1, 2, ... up to ``jet_cap`` are counted by one exact graded
    ``_JetCounts`` when I and the operator are homogeneous in unit weights
    (capless: each term of a homogeneous row sits at the row's own degree),
    else by one over GF(p) with terms of degree ``jet_cap`` and above
    dropped; its count bounds nu_N = q(N) from above, so its first order
    reaching ``target`` is never past the true stop.  At each order whose
    count reaches ``target`` the scan reads the greedy basis
    (``_JetCounts.basis``: the non-leads when graded, the non-pivots of one
    exact greatest-term span otherwise), and the basis size is the
    certificate; when an unlucky prime made the count run ahead, the basis
    is read again one order on.
    A bound past ``target``, or a negative ``target``, raises
    RuntimeError; a cap reached first raises InconclusiveError.
    """
    if twisted.variables != I.variables:
        raise InputError("ideal and vector field live in different rings")
    if target < 0:
        raise RuntimeError(
            f"internal invariant violation: negative nu target {target}"
        )
    if weights is not None and len(twisted.raises(weights.integer_scaled()[0])) > 1:
        weights = None  # not graded: scan the jet orders

    if weights is not None:
        counts = _JetCounts(I, twisted, weights=weights)
        wdeg_cap = jet_cap * max(counts.weights) - counts.drop
        orders = range(1, max(wdeg_cap, 0) + 2)
        failure = "graded twisted quotient did not reach the target nu"
        context = {"wdeg_cap": wdeg_cap}
    else:
        if _homogeneous(I, twisted, (1,) * len(I.variables)):
            counts = _JetCounts(I, twisted)
        else:
            counts = _JetCounts(I, twisted, jet_cap, _PREDICTOR_MODULUS)
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
