"""Jet-space linear algebra at the origin.

Everything here models the local ring of germs at 0 through two finite
windows:

* total-degree jets (monomials of total degree < M), used for general
  input with one stop rule (``_stable_in_jets``: the answer at order M
  is accepted once it agrees with the answer at order M - 2), which is a
  heuristic, and
* weighted-degree slices, used when a weight certificate makes the input
  quasi-homogeneous; slice computations carry no truncation error, so the
  graded results are exact.

The ideal-theoretic operations (colength, saturation by the maximal
ideal, twisted quotients) are all driven by exact rational row reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import VectorField
from .linalg import Span, Vec, kernel_relations
from .poly import Exponents, Poly, WeightSystem, graded_key, listing_key


def jet_key_order(exponents: Exponents) -> tuple:
    """Column order for jet spans: high total degree first, so that rows
    pivoting in low degrees are entirely supported there (this makes
    intersection-with-smaller-jet ranks exact, see Span.restricted_rank)."""
    return (-sum(exponents), tuple(reversed(exponents)))


@lru_cache(maxsize=None)
def monomials_below(n_vars: int, bound: int) -> tuple[Exponents, ...]:
    """All exponent vectors of total degree < bound, in graded order."""
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    if bound > 0:
        rec([], n_vars, bound - 1)
    return tuple(sorted(out, key=graded_key))


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


def poly_vec(p: Poly) -> Vec:
    return {e: c for e, c in p.terms.items()}


def shifted_vec(p: Poly, m: Exponents) -> Vec:
    """Coefficient vector of the product of p with the monomial x^m."""
    return {tuple(a + b for a, b in zip(e, m)): c for e, c in p.terms.items()}


def vec_poly(vec: Vec, variables: Sequence[str]) -> Poly:
    return Poly(variables, dict(vec))


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
        for m in monomials_below(n, order - g_ord):
            vec = truncate_vec(shifted_vec(g, m), order)
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
        if span.insert({m: Fraction(1)}):
            basis.append(m)
    return len(basis), basis


def quotient_dim_jet(I: IdealGens, order: int) -> int:
    if order < 1:
        raise InputError("jet order must be at least 1")
    return jet_quotient(I, order)[0]


def _stable_in_jets(compute: Callable, orders: range, message: str, **context):
    """The jet stop rule: evaluate ``compute`` at each jet order in turn and
    return (value, orders tried) once two successive values are equal.
    Raises InconclusiveError(message, **context) when the orders run out."""
    previous = None
    for count, order in enumerate(orders, 1):
        current = compute(order)
        if count > 1 and current == previous:
            return current, tuple(orders[:count])
        previous = current
    raise InconclusiveError(message, **context)


def stable_colength(
    I: IdealGens, start: int = 4, cap: int = 24
) -> tuple[int, list[Exponents], tuple[int, int]]:
    """Colength of I detected by agreement at two successive jet orders.

    Returns (dim, monomial basis, (order, order+2)).  Raises
    InconclusiveError when the quotient keeps growing up to the cap,
    which is exactly the infinite-colength signature at desk scale.
    """
    (dim, basis), orders = _stable_in_jets(
        lambda order: jet_quotient(I, order),
        range(max(2, start), cap + 1, 2),
        "colength did not stabilize (infinite colength?)",
        jet_cap=cap,
    )
    return dim, basis, orders[-2:]


# -- dimension-of-zero-set heuristic ----------------------------------------

_GENERIC_LINE_COEFFS = ((1, 17, 41), (1, 23, 53))


def check_zero_set_is_at_most_curve(I: IdealGens, cap: int = 14) -> None:
    """Heuristic precondition check: V(I) should have dimension <= 1 at 0.

    Cutting with a generic line must leave a finite-colength ideal; two
    different lines are tried to dodge the case where a branch of V(I)
    happens to lie on the first one.
    """
    n = len(I.variables)
    for coeffs in _GENERIC_LINE_COEFFS:
        line = Poly(
            I.variables,
            {
                tuple(1 if j == i else 0 for j in range(n)): coeffs[i % len(coeffs)]
                for i in range(n)
            },
        )
        probe = IdealGens.of(I.variables, list(I.generators) + [line])
        try:
            stable_colength(probe, start=4, cap=cap)
            return
        except InconclusiveError:
            continue
    raise InputError(
        "the zero set of the ideal appears to have dimension > 1 near the origin"
    )


# -- saturation ---------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    ideal: IdealGens
    exact: bool
    colon_steps: int


def _greedy_generators(
    rows: Iterable[Vec],
    variables: tuple[str, ...],
    multiples: Callable[[Poly], Iterable[Vec]],
) -> list[Poly]:
    """Greedy generating set of the ideal spanned by ``rows``: a row not yet
    in the cover becomes a generator (lowest term monic), and the vectors
    ``multiples(generator)`` join the cover."""
    covered = Span(jet_key_order)
    gens: list[Poly] = []
    for row in rows:
        if covered.contains(row):
            continue
        p = vec_poly(row, variables).lowest_monic()
        gens.append(p)
        for vec in multiples(p):
            covered.insert(vec)
    return gens


def _colon_span(monos: Sequence[Exponents], targets: Sequence[Span]) -> Span:
    """One colon step by the maximal ideal: the span of the combinations g
    of ``monos`` with x_i g in ``targets[i]`` for every variable i.

    The residuals of the x_i m come from ``Span.unit_residual`` in integers;
    every candidate is brought to one common scale, so the kernel is that of
    the unscaled map."""
    probes = []
    scale = 1
    for m in monos:
        parts = []
        for i, target in enumerate(targets):
            shifted = tuple(e + (1 if j == i else 0) for j, e in enumerate(m))
            residual, s = target.unit_residual(shifted)
            parts.append((i, residual, s))
            scale = lcm(scale, s)
        probes.append((m, parts))
    candidates = [
        (m, {(i, k): v * (scale // s) for i, res, s in parts for k, v in res.items()})
        for m, parts in probes
    ]
    relations = kernel_relations(
        candidates, key_order=lambda k: (k[0], jet_key_order(k[1]))
    )
    colon = Span(jet_key_order)
    for rel in relations:
        colon.insert(rel)
    return colon


def _jet_saturate(I: IdealGens, jet_order: int) -> tuple[Span, int, int]:
    """Iterated colon by the maximal ideal inside a total-degree jet window.

    Returns (stable colon span, window of that span, colon steps used).
    Each colon shrinks the usable window by one degree; the chain stops
    when two consecutive colons agree on the shared window.
    """
    n = len(I.variables)
    current: Span = ideal_jet_span(I, jet_order)
    window = jet_order
    steps = 0
    while window > 2:
        new_window = window - 1
        colon = _colon_span(monomials_below(n, new_window), [current] * n)
        stable_rank = current.restricted_rank(lambda e: sum(e) < new_window)
        if colon.rank == stable_rank:
            return current, window, steps
        steps += 1
        current = colon
        window = new_window
    raise InconclusiveError(
        "colon chain by the maximal ideal did not stabilize", jet_order=jet_order
    )


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
        self.generators = I.generators
        self._slices: dict[int, Span] = {}

    def monomials(self, wdeg: int) -> tuple[Exponents, ...]:
        return monomials_of_weighted_degree(
            len(self.variables), self.int_weights, wdeg
        )

    def slice_span(self, wdeg: int) -> Span:
        if wdeg not in self._slices:
            span = Span(jet_key_order)
            for g, d in zip(self.generators, self.gen_degrees):
                if wdeg < d:
                    continue
                for m in self.monomials(wdeg - d):
                    span.insert(shifted_vec(g, m))
            self._slices[wdeg] = span
        return self._slices[wdeg]

    def scan(
        self,
        wdeg_cap: int,
        quiet_after: int,
        run: int,
        slice_count: Callable[[int, tuple[Exponents, ...]], int],
    ) -> Optional[int]:
        """Sum ``slice_count(wdeg, monomials)`` over the nonempty slices from
        weighted degree 0 up.  The scan stops, returning the sum, after
        ``run`` consecutive nonempty slices of degree above ``quiet_after``
        that count nothing; it returns None when the cap comes first."""
        total = 0
        zero_run = 0
        for wdeg in range(max(wdeg_cap, 0) + 1):
            monos = self.monomials(wdeg)
            if not monos:
                continue
            count = slice_count(wdeg, monos)
            total += count
            zero_run = zero_run + 1 if count == 0 and wdeg > quiet_after else 0
            if zero_run >= run:
                return total
        return None


def _graded_saturate(
    I: IdealGens,
    weights: WeightSystem,
    jet_cap: int,
    window: int,
) -> tuple[dict[int, Span], _GradedIdeal, int, int]:
    """Colon chain computed per weighted-degree slice; exact within the cap.

    Returns (stable colon slices, graded ideal helper, wdeg cap actually
    certified, colon steps).

    Step s computes slice e from the slices e + w_i of step s - 1 alone, so
    a slice is recomputed only when one of those grew in the step before;
    every other slice keeps its span from that step.  The chain only grows
    (I is contained in I : m, slice by slice), so a slice whose rank did not
    change is the same span, and the chain is stable once no slice grew.
    """
    graded = _GradedIdeal(I, weights)
    wmax = max(graded.int_weights)
    wdeg_cap = jet_cap * wmax

    base = {wdeg: graded.slice_span(wdeg) for wdeg in range(wdeg_cap + 1)}
    current = base
    grown = set(base)
    steps = 0
    max_steps = jet_cap
    while steps < max_steps:
        top = wdeg_cap - (steps + 1) * wmax
        if top < 0:
            break
        nxt: dict[int, Span] = {}
        for wdeg in range(top + 1):
            sources = [wdeg + w for w in graded.int_weights]
            monos = graded.monomials(wdeg)
            if monos and grown.intersection(sources):
                nxt[wdeg] = _colon_span(monos, [current[e] for e in sources])
            else:  # unchanged, or a slice without monomials (the zero span)
                nxt[wdeg] = current[wdeg]
        grown = {w for w in range(top + 1) if nxt[w].rank != current[w].rank}
        if not grown:
            # margin: the saturation must add nothing in the top `window`
            # nonempty slices of the certified region (widened past any
            # gap the scaled weights can produce)
            margin = max(window, wmax + 1)
            nonempty = [w for w in range(top + 1) if graded.monomials(w)]
            tail = nonempty[-margin:] if margin > 0 else []
            if any(nxt[w].rank != base[w].rank for w in tail):
                raise InconclusiveError(
                    "graded saturation still active near the cap",
                    wdeg_cap=top,
                    window=window,
                )
            return nxt, graded, top, steps
        current = nxt
        steps += 1
    raise InconclusiveError(
        "graded colon chain did not stabilize", jet_cap=jet_cap, steps=steps
    )


def saturate_at_origin(
    I: IdealGens,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
    window: int = 4,
) -> SaturationResult:
    """Generators of (I : m^infinity), the sections extending through 0.

    With a weight certificate on quasi-homogeneous input the computation
    runs per weighted-degree slice and is exact.  Otherwise the answer is
    the jet-order approximation at ``jet_cap`` and is flagged heuristic.
    Non-stabilizing colon chains raise InconclusiveError, never return a
    silent wrong answer.  Plane curves do not come here: their saturation
    is known (see ``mu``), so this serves the three-variable direct check.
    """
    if I.contains_unit():
        one = Poly.constant(I.variables, 1)
        return SaturationResult(IdealGens.of(I.variables, [one]), True, 0)
    # cheap precondition sweep; floor the cap so a squeezed main cap does
    # not read as a dimension defect
    check_zero_set_is_at_most_curve(I, cap=max(14, min(jet_cap, 20)))
    if weights is not None:
        slices, graded, top, steps = _graded_saturate(I, weights, jet_cap, window)

        # generators are homogeneous, so a row of slice wdeg lies in the
        # cover exactly when it lies in the cover's slice wdeg
        def graded_multiples(p: Poly):
            lead = next(iter(p.terms))
            wdeg = sum(a * w for a, w in zip(lead, graded.int_weights))
            for d in range(top - wdeg + 1):
                for m in graded.monomials(d):
                    yield shifted_vec(p, m)

        rows = [row for w in range(top + 1) for row in slices[w].row_vectors()]
        gens = _greedy_generators(rows, I.variables, graded_multiples)
        return SaturationResult(IdealGens.of(I.variables, gens), True, steps)
    span, window_used, steps = _jet_saturate(I, jet_cap)
    n = len(I.variables)

    def jet_multiples(p: Poly):
        for m in monomials_below(n, max(window_used - (p.order() or 0), 1)):
            vec = truncate_vec(shifted_vec(p, m), window_used)
            if vec:
                yield vec

    rows = sorted(span.row_vectors(), key=lambda r: min(graded_key(e) for e in r))
    gens = _greedy_generators(rows, I.variables, jet_multiples)
    return SaturationResult(IdealGens.of(I.variables, gens), False, steps)


# -- the mu invariant ---------------------------------------------------------


@dataclass(frozen=True)
class MuResult:
    value: int
    basis: tuple[Poly, ...]
    exact: bool
    jet_orders: tuple[int, ...]


def _quotient_reps(
    big: Span, work: Span, monos, variables
) -> list[Poly]:
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
            reps.append(vec_poly(row, variables).lowest_monic())
    return reps


def _pair_quotient_jet(
    big: IdealGens, small: IdealGens, order: int
) -> tuple[int, list[Poly]]:
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
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
    window: int = 4,
    saturated: Optional[IdealGens] = None,
) -> MuResult:
    """dim of (saturated Jacobian ideal) / (Jacobian ideal) at the origin.

    For isolated singularities the saturation is the unit ideal and this
    is the classical Milnor number.

    A caller that knows sat(J) = J : m^infinity passes it as ``saturated``
    and no colon chain runs.  Plane curves do (``curve.invariants``): with
    df = h alpha, h = u_1^(p_1-1) ... u_k^(p_k-1) and the coefficients
    (a, b) of alpha m-primary, J = h (a, b).  The associated primes of the
    principal ideal (h) are its prime factors, of height one, so m is not
    among them and J : m^infinity lies in (h) : m^infinity = (h).
    Cancelling the nonzerodivisor h, h g is in J : m^infinity exactly when
    g is in (a, b) : m^infinity = O.  Hence sat(J) = (h), and curve mu does
    not depend on the colon-chain cap.  Otherwise sat(J) comes from
    ``saturate_at_origin``.
    """
    if f.is_zero or f.is_constant():
        raise InputError("mu requires a nonconstant germ")
    if f.constant_value() != 0:
        raise InputError("mu requires f(0) = 0")
    J = jacobian_ideal(f)
    if saturated is None:
        saturated = saturate_at_origin(J, weights, jet_cap, window).ideal
    if weights is not None:
        graded_sat = _GradedIdeal(saturated, weights)
        graded_jac = _GradedIdeal(J, weights)
        wmax = max(graded_sat.int_weights)
        wdeg_cap = jet_cap * wmax
        basis: list[Poly] = []

        def contribution(wdeg: int, monos) -> int:
            big = graded_sat.slice_span(wdeg)
            work = graded_jac.slice_span(wdeg).copy()
            count = big.rank - work.rank
            basis.extend(_quotient_reps(big, work, monos, f.variables))
            return count

        # A certified stop: sat(J) is generated in degrees <= top_gen, so
        # above top_gen each of its elements is a sum x_j * (element of
        # degree e - w_j).  Once sat(J)_e = J_e on wmax consecutive degrees
        # past top_gen, induction on e gives it for every larger degree.
        top_gen = max(graded_sat.gen_degrees)
        total = graded_sat.scan(wdeg_cap, top_gen, wmax, contribution)
        if total is None:
            raise InconclusiveError(
                "graded mu computation did not exhaust the quotient",
                wdeg_cap=wdeg_cap,
                quiet_after=top_gen,
                run=wmax,
            )
        return MuResult(total, tuple(basis), True, ())
    orders = range(max(6, f.total_degree() + 2), jet_cap + 1, 2)
    (value, jet_basis), tried = _stable_in_jets(
        lambda order: _pair_quotient_jet(saturated, J, order),
        orders,
        "mu did not stabilize",
        jet_orders=tuple(orders),
    )
    return MuResult(value, tuple(jet_basis), False, tried)


# -- twisted quotients --------------------------------------------------------


@dataclass(frozen=True)
class TwistedResult:
    dim: int
    basis: tuple[Exponents, ...]
    exact: bool


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


def twisted_quotient_dim(
    I: IdealGens,
    V: VectorField,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
    window: int = 4,
) -> TwistedResult:
    """Dimension and monomial basis of O / (I + twisted-action image).

    The twisted action is h -> V.h + div(V) h.  With a weight certificate
    under which the field is graded, each weighted slice is finite exact
    linear algebra and the scan stops after ``window`` consecutive
    nonempty slices contribute nothing.  Without a certificate the jet
    truncation runs under the jet stop rule and is flagged heuristic.
    """
    if V.variables != I.variables:
        raise InputError("ideal and vector field live in different rings")
    n = len(I.variables)
    div = V.divergence()

    def twisted_image(m: Exponents) -> Poly:
        x_m = Poly.monomial(I.variables, m)
        return V.apply(x_m) + div * x_m

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
            wmax = max(graded.int_weights)
            wdeg_cap = jet_cap * wmax - max(0, -scaled_shift)
            # V~(O) is not an ideal, so the mu stop proof does not apply;
            # the run is widened past any gap the scaled weights can leave
            window = max(window, wmax + 1)
            basis: list[Exponents] = []

            def picked(wdeg: int, monos) -> int:
                span = graded.slice_span(wdeg).copy()
                if not V.is_zero:
                    source = wdeg - scaled_shift
                    if source >= 0:
                        for m in graded.monomials(source):
                            image = twisted_image(m)
                            if not image.is_zero:
                                span.insert(poly_vec(image))
                count = 0
                for m in monos:
                    if span.insert({m: Fraction(1)}):
                        basis.append(m)
                        count += 1
                return count

            total = graded.scan(wdeg_cap, -1, window, picked)
            if total is not None:
                return TwistedResult(total, tuple(basis), True)
            raise InconclusiveError(
                "graded twisted quotient did not close out",
                wdeg_cap=wdeg_cap,
                window=window,
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

    def jet_basis(order: int) -> list[Exponents]:
        span = ideal_jet_span(I, order)
        for m in monomials_below(n, order + drop):
            if m not in images:
                images[m] = poly_vec(twisted_image(m))
            vec = truncate_vec(images[m], order)
            if vec:
                span.insert(vec)
        return [m for m in monomials_below(n, order) if span.insert({m: Fraction(1)})]

    orders = range(max(6, min(10, jet_cap)), jet_cap + 1, 2)
    basis, _ = _stable_in_jets(
        jet_basis,
        orders,
        "twisted quotient did not stabilize",
        jet_orders=tuple(orders),
    )
    return TwistedResult(len(basis), tuple(basis), False)
