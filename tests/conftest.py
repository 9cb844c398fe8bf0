"""Shared test configuration, polynomial strategies and test-only references."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Callable, Hashable, Iterable, Optional

from hypothesis import HealthCheck, settings, strategies as st

from brieskorn.ab_module import ABModule, OperatorWord
from brieskorn.curve import FactoredCurve, annihilator_form
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.forms import DiffForm, VectorField, _normalize_indices
from brieskorn.groebner import _decode, _integer_gens, _saturation, isolated_at_origin
from brieskorn.linalg import Vec
from brieskorn.local_algebra import (
    IdealGens,
    _ShiftedImages,
    integer_terms,
    jacobian_ideal,
    monomials_below,
    monomials_of_weighted_degree,
    shifted_terms,
)
from brieskorn.poly import Exponents, Poly, WeightSystem

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def fractions(max_num: int = 6) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=4),
    )


def polys(
    variables: tuple[str, ...] = ("x", "y"),
    max_degree: int = 3,
    max_terms: int = 4,
) -> st.SearchStrategy[Poly]:
    n = len(variables)
    exponent = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * n))
    term = st.tuples(exponent, fractions())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: Poly(variables, {e: c for e, c in pairs if c != 0})
    )


# -- the greedy jet references -------------------------------------------------


def jet_key_order(exponents: Exponents) -> tuple:
    """Column order for reference jet spans: high total degree first, so
    that rows pivoting in low degrees are entirely supported there."""
    return (-sum(exponents), tuple(reversed(exponents)))


def truncate_vec(vec: Vec, bound: int) -> Vec:
    return {e: c for e, c in vec.items() if sum(e) < bound}


def ideal_jet_span(I: IdealGens, order: int) -> RefSpan:
    """Row-reduced span of the ideal's image in the degree-< order jet space."""
    span = RefSpan(jet_key_order)
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


def jet_quotient(
    I: IdealGens,
    order: int,
    image: Optional[Callable[[Exponents], dict[Exponents, int]]] = None,
    drop: int = 0,
) -> tuple[int, list[Exponents]]:
    """Reference dimension and greedy monomial basis of (jets of degree <
    order) / W, W spanned by the ideal and, when ``image`` is given, the
    twisted images V~(x^m) truncated at ``order`` (``drop`` bounds how far
    V~ lowers the degree, so the x^m of degree < order + drop give every
    image of degree < order).

    The basis picks, in graded order, each monomial independent of W plus
    the previously picked monomials: one unit vector is inserted per
    monomial, a route that reads no pivot of the span.
    """
    span = ideal_jet_span(I, order)
    n = len(I.variables)
    if image is not None:
        for m in monomials_below(n, order + drop):
            vec = truncate_vec(image(m), order)
            if vec:
                span.insert(vec)
    basis = [m for m in monomials_below(n, order) if span.insert({m: 1})]
    return len(basis), basis


class GradedIdeal:
    """Reference weighted-degree slices of a quasi-homogeneous ideal: each
    slice is a reduced ``RefSpan`` of the generators' multiples of that
    weighted degree, built on its own and shared by no scan of the
    package."""

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
            self.gen_degrees.append(int(d * self.scale))
        self.generator_terms = [integer_terms(g) for g in I.generators]

    def monomials(self, wdeg: int):
        return monomials_of_weighted_degree(len(self.variables), self.int_weights, wdeg)

    def slice_span(self, wdeg: int) -> RefSpan:
        """A new span of the slice, which the caller may extend."""
        span = RefSpan(jet_key_order)
        for terms, d in zip(self.generator_terms, self.gen_degrees):
            if wdeg < d:
                continue
            for m in self.monomials(wdeg - d):
                span.insert(shifted_terms(terms, m))
        return span


def greedy_slice_quotient(I: IdealGens, weights: WeightSystem) -> list:
    """Reference greedy basis of O/I for a quasi-homogeneous I isolated at
    0: the slices from weighted degree 0 up, each monomial in listing order
    kept when it is independent of the slice of I and of the monomials
    kept before it.  The scan stops after wmax consecutive nonempty slices
    that keep nothing: every slice is O_e = sum_j x_j O_(e - w_j), so by
    induction on e the quotient is 0 above them."""
    graded = GradedIdeal(I, weights)
    basis: list = []
    empty_run, wdeg = 0, 0
    while empty_run < max(graded.int_weights):
        monos = graded.monomials(wdeg)
        if monos:
            span = graded.slice_span(wdeg)
            kept = [m for m in monos if span.insert({m: 1})]
            basis += kept
            empty_run = 0 if kept else empty_run + 1
        wdeg += 1
    return basis


def greedy_twisted_slices(I: IdealGens, V, weights: WeightSystem, top: int) -> list:
    """Reference greedy bases of the slices 0..``top`` of
    O/(I + V~(O)) for a field V graded for ``weights``: the slice of I,
    the twisted images V~(x^m) that land in it, then each monomial in
    listing order kept when independent of them and of the monomials kept
    before it.  Returns one list of kept monomials per slice."""
    graded = GradedIdeal(I, weights)
    w = graded.int_weights
    div = V.divergence()
    shifts = {sum(map(mul, e, w)) - w_i for w_i, c in zip(w, V.coefficients) for e in c.terms}
    shifts |= {sum(map(mul, e, w)) for e in div.terms}
    assert len(shifts) <= 1, "the field is not graded for these weights"
    shift = shifts.pop() if shifts else 0
    image = _ShiftedImages(V.coefficients, div)
    slices = []
    for wdeg in range(top + 1):
        span = graded.slice_span(wdeg)
        for m in graded.monomials(wdeg - shift):
            span.insert(image(m))
        slices.append([m for m in graded.monomials(wdeg) if span.insert({m: 1})])
    return slices


def _stable_in_jets(compute: Callable, orders: range, message: str, **context):
    """The two-order jet stop rule of the references below: evaluate
    ``compute`` at each jet order in turn and return (value, orders tried)
    once two successive values are equal.  A heuristic, kept for the
    references because it shares no stop with the package's scans.  Raises
    InconclusiveError(message, **context) when the orders run out; when the
    cap is below the first order, the error names the cap that admits the
    two orders the rule compares."""
    if not orders:
        raise InconclusiveError(
            f"{message}: the jet cap is below the first jet order",
            first_order=orders.start,
            min_jet_cap=orders.start + orders.step,
        )
    previous = None
    for tried, order in enumerate(orders, 1):
        current = compute(order)
        if tried > 1 and current == previous:
            return current, tuple(orders[:tried])
        previous = current
    raise InconclusiveError(message, **context)


def stable_colength(I, start: int = 4, cap: int = 24):
    """Reference colength of I by the jet stop rule (two successive even
    orders agree), a route independent of the Groebner engine.  Returns
    (dim, monomial basis, the two agreeing orders); raises
    InconclusiveError when the quotient keeps growing up to the cap."""
    (dim, basis), orders = _stable_in_jets(
        lambda order: jet_quotient(I, order),
        range(max(2, start), cap + 1, 2),
        "colength did not stabilize (infinite colength?)",
        jet_cap=cap,
    )
    return dim, basis, orders[-2:]


@dataclass(frozen=True)
class MuResult:
    value: int
    basis: tuple[Poly, ...]
    exact: bool
    jet_orders: tuple[int, ...]


def _quotient_reps(big: RefSpan, work: RefSpan, monos, variables) -> list[Poly]:
    """Representatives of big/work: greedy monomials inside the big span
    first, then leftover reduced rows of big (some quotients, e.g. by a
    principal ideal on a rotated line, contain no monomials at all)."""
    reps: list[Poly] = []
    for m in monos:
        vec = {m: Fraction(1)}
        if big.contains(vec) and work.insert(vec):
            reps.append(Poly.monomial(variables, m))
    for row in big.row_vectors():
        if work.insert(row):
            reps.append(Poly(variables, dict(row)).lowest_monic())
    return reps


def _pair_quotient_jet(big: IdealGens, small: IdealGens, order: int):
    """dim (big-jets)/(small-jets) with greedy representatives inside the
    big ideal's span (monomials preferred)."""
    big_span = ideal_jet_span(big, order)
    work = ideal_jet_span(small, order)
    small_rank = work.rank
    basis = _quotient_reps(
        big_span, work, monomials_below(len(big.variables), order), big.variables
    )
    assert len(basis) == big_span.rank - small_rank
    return len(basis), basis


def mu(
    f: Poly,
    saturated: IdealGens,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
) -> MuResult:
    """Reference mu = dim saturated/J, J the Jacobian ideal of f, by a route
    independent of ``local_quotient``: the two ideals are compared slice by
    slice (graded, exact: the quotient stops after max(weights) empty
    slices past the top generator degree of ``saturated``, which that
    ideal generates) or jet by jet under the two-orders-apart stop rule
    (heuristic, ``exact`` False, capped by ``jet_cap``)."""
    if f.is_zero or f.is_constant():
        raise InputError("mu requires a nonconstant germ")
    if f.constant_value() != 0:
        raise InputError("mu requires f(0) = 0")
    J = jacobian_ideal(f)
    if weights is not None:
        graded_sat = GradedIdeal(saturated, weights)
        graded_jac = GradedIdeal(J, weights)
        wmax = max(graded_sat.int_weights)
        top_gen = max(graded_sat.gen_degrees)
        basis: list[Poly] = []
        total = zero_run = 0
        for wdeg in range(jet_cap * wmax + 1):
            monos = graded_sat.monomials(wdeg)
            if not monos:
                continue
            big = graded_sat.slice_span(wdeg)
            work = graded_jac.slice_span(wdeg)
            count = big.rank - work.rank
            basis.extend(_quotient_reps(big, work, monos, f.variables))
            total += count
            zero_run = zero_run + 1 if count == 0 and wdeg > top_gen else 0
            if zero_run >= wmax:
                return MuResult(total, tuple(basis), True, ())
        raise InconclusiveError(
            "graded mu computation did not exhaust the quotient",
            wdeg_cap=jet_cap * wmax,
        )
    orders = range(max(6, f.total_degree() + 2), jet_cap + 1, 2)
    (value, jet_basis), tried = _stable_in_jets(
        lambda order: _pair_quotient_jet(saturated, J, order),
        orders,
        "mu did not stabilize",
        jet_orders=tuple(orders),
    )
    return MuResult(value, tuple(jet_basis), False, tried)


def nu_jet_basis(I: IdealGens, V, order: int) -> list:
    """Greedy monomial basis of O/(I + V~(O) + m^order) from one full exact
    span: the ideal jets, every twisted image V~(x^m) truncated below
    ``order`` (|m| < order + drop suffices), then the monomials."""
    div = V.divergence()
    image = _ShiftedImages(V.coefficients, div)
    drop = max(
        [0]
        + [1 - c.order() for c in V.coefficients if not c.is_zero]
        + ([] if div.is_zero else [-div.order()])
    )
    return jet_quotient(I, order, image, drop)[1]


def nu_jet_reference(I: IdealGens, V, target: int, jet_cap: int = 24):
    """Reference jet nu basis by the scan the package ran before its jet
    orders started at 1: the orders 10, 12, ... up to ``jet_cap``, each a
    full exact span (``nu_jet_basis``).  Returns the basis at the first
    order whose size reaches ``target``, or None when the cap comes first."""
    for order in range(max(6, min(10, jet_cap)), jet_cap + 1, 2):
        basis = nu_jet_basis(I, V, order)
        if len(basis) >= target:
            return tuple(basis)
    return None


# -- references moved out of the package ---------------------------------------
#
# Test oracles the package itself never runs: each checks a package result
# by an independent route.


def saturate_at_origin(I: IdealGens) -> IdealGens:
    """Generators of I : m^inf, the sections extending through 0: the
    reduced grevlex Groebner basis of the saturation, each scaled so that
    its lowest term has coefficient 1."""
    basis = _saturation(_integer_gens(I), len(I.variables))
    return IdealGens.of(
        I.variables,
        [
            Poly(I.variables, {_decode(m): c for m, c in g.items()}).lowest_monic()
            for g in basis
        ],
    )


def rewrite_normal_order(word: OperatorWord, leftmost: bool = True) -> OperatorWord:
    """The naive rewriter, an oracle for ``normal_order``: repeatedly replace
    one occurrence of 'ab' using a.b -> b.a + b.b until no word contains
    'ab'.  Terminates and is confluent; the strategy flag exercises
    confluence."""
    pending = dict(word.terms)
    done: dict[tuple[str, ...], Fraction] = {}
    while pending:
        letters, coeff = pending.popitem()
        spot = -1
        indices = range(len(letters) - 1)
        for i in (indices if leftmost else reversed(indices)):
            if letters[i] == "a" and letters[i + 1] == "b":
                spot = i
                break
        if spot < 0:
            done[letters] = done.get(letters, Fraction(0)) + coeff
            continue
        prefix, suffix = letters[:spot], letters[spot + 2 :]
        for replacement in (("b", "a"), ("b", "b")):
            key = prefix + replacement + suffix
            acc = pending.get(key, Fraction(0)) + coeff
            if acc == 0:
                pending.pop(key, None)
            else:
                pending[key] = acc
    return OperatorWord({w: c for w, c in done.items() if c != 0})


def rank_one(coefficient, trunc_order: int = 16, label: str = "") -> ABModule:
    """Rank-1 module with  a e = coefficient * b e."""
    return ABModule(1, trunc_order, [[[0, coefficient]]], label=label)


def wedge(first: DiffForm, second: DiffForm) -> DiffForm:
    """Graded-antisymmetric exterior product, the reference for the exact
    form operators that ``curve._exact_form_images`` reads off alpha."""
    variables = first.variables
    if second.variables != variables:
        raise InputError("forms live over different rings")
    degree = first.degree + second.degree
    if degree > len(variables):
        return DiffForm.zero(variables, min(degree, len(variables)))
    accum: dict[tuple[int, ...], Poly] = {}
    for k1, c1 in first.terms.items():
        for k2, c2 in second.terms.items():
            key, sign = _normalize_indices(k1 + k2, len(variables))
            if key is None:
                continue
            piece = c1 * c2 if sign == 1 else -(c1 * c2)
            accum[key] = accum[key] + piece if key in accum else piece
    return DiffForm(variables, degree, accum)


def apply_twisted(field: VectorField, h: Poly) -> Poly:
    """Divergence-corrected action V.h + div(V) h, on Polys."""
    return field.apply(h) + field.divergence() * h


def valuation(f: Poly, factor: Poly) -> int:
    """Largest e with factor**e dividing f (f nonzero, factor nonunit)."""
    if f.is_zero:
        raise InputError("valuation of the zero polynomial is undefined")
    if factor.is_constant():
        raise InputError("valuation with respect to a constant is undefined")
    count = 0
    while (f := f.divide_exact(factor)) is not None:
        count += 1
    return count


def transversal_milnor(curve: FactoredCurve, branch: int) -> int:
    """Milnor number of the slice singularity transverse to one branch.

    Along a generic smooth point of the branch a transverse line meets f
    in t^(valuation) times a unit, so the one-variable Milnor number is
    the branch valuation of f minus one.  The valuation is computed by
    exact polynomial division, which also catches multiplicities hidden
    in the residual.
    """
    if not 0 <= branch < len(curve.factors):
        raise InputError(f"no branch with index {branch}")
    u, _ = curve.factors[branch]
    partials = [u.derivative(v) for v in curve.variables]
    if not isolated_at_origin(IdealGens.of(curve.variables, [u] + partials)):
        raise InputError(f"degenerate slice: branch {u} is singular along a curve")
    order = valuation(curve.expand(), u)
    if order < 2:
        raise InputError(f"degenerate slice: f has valuation {order} < 2 along {u}")
    return order - 1


def closed_product_exponents(curve: FactoredCurve) -> list[tuple[int, ...]]:
    """Every exponent pattern e < (p_1, ..., p_k), other than the cofactor
    (p_1 - 1, ..., p_k - 1) of df itself, whose product h = prod u_i^e_i
    makes h alpha closed.  ``closed_form_witness`` returns None exactly
    when the multiplicities are coprime, and then this scan is empty."""
    alpha = annihilator_form(curve)
    cofactor = tuple(p - 1 for _, p in curve.factors)
    found = []
    for exps in product(*(range(p) for _, p in curve.factors)):
        if exps == cofactor:
            continue
        h = Poly.constant(curve.variables, 1)
        for (u, _), e in zip(curve.factors, exps):
            h = h * u**e
        if (alpha * h).d().is_zero:
            found.append(exps)
    return found


# -- the Fraction row-reduction reference ----------------------------------------


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


class RefSpan:
    """A subspace in reduced row echelon form with a chosen column order,
    kept in Fractions: the reference for ``linalg.Span``.

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


def ref_kernel_relations(
    vectors: Iterable[tuple[Hashable, Vec]],
    key_order: Callable[[Hashable], object],
) -> list[Vec]:
    """Kernel of the linear map sending tagged basis elements to vectors.

    Returns one relation dict per dependent vector: tag -> coefficient,
    with the defining property  sum(coeff * vector_tag) = 0.
    """
    span = RefSpan(key_order, track=True)
    relations: list[Vec] = []
    for tag, vector in vectors:
        if not span.insert(vector, tag=tag):
            # insert() seeded the combination with +1 * tag and subtracted
            # pivot rows; a zero residual means sum(combo * v) = 0.
            combo = span.last_kernel_combo() or {tag: Fraction(1)}
            relations.append({k: v for k, v in combo.items() if v != 0})
    return relations
