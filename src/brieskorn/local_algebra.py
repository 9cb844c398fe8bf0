"""Jet-space linear algebra at the origin.

Everything here models the local ring of germs at 0 through two finite
windows:

* total-degree jets (monomials of total degree < M), used by the mu and nu
  scans of general input with one stop rule (``_stable_in_jets``: the
  answer at order M is accepted once it agrees with the one at order
  M - 2), which is a heuristic, and
* weighted-degree slices, used when a weight certificate makes the input
  quasi-homogeneous; slice computations carry no truncation error, so the
  graded results are exact.

The quotients here (jet, mu, twisted) are all driven by exact rational
row reduction; saturation and the finite-colength test live in
``groebner``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Callable, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import VectorField
from .linalg import Span, Vec
from .poly import Exponents, Poly, WeightSystem, graded_key, listing_key


def jet_key_order(exponents: Exponents) -> tuple:
    """Column order for jet spans: high total degree first, so that rows
    pivoting in low degrees are entirely supported there."""
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
        polys = (*parts, extra)
        self.scale = lcm(1, *(c.denominator for p in polys for c in p.terms.values()))

        def scaled(p: Poly) -> list[tuple[Exponents, int]]:
            return [
                (e, c.numerator * (self.scale // c.denominator))
                for e, c in p.terms.items()
            ]

        self.parts = [scaled(p) for p in parts]
        self.extra = scaled(extra)

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
    Raises InconclusiveError(message, **context) when the orders run out;
    when the cap is below the first order, the error names the cap that
    admits the two orders the rule compares."""
    if not orders:
        raise InconclusiveError(
            f"{message}: the jet cap is below the first jet order",
            first_order=orders.start,
            min_jet_cap=orders.start + orders.step,
        )
    previous = None
    for count, order in enumerate(orders, 1):
        current = compute(order)
        if count > 1 and current == previous:
            return current, tuple(orders[:count])
        previous = current
    raise InconclusiveError(message, **context)


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
    saturated: IdealGens,
    weights: Optional[WeightSystem] = None,
    jet_cap: int = 24,
) -> MuResult:
    """dim of (saturated Jacobian ideal) / (Jacobian ideal) at the origin,
    for the saturation sat(J) = J : m^infinity given as ``saturated``.

    For isolated singularities the saturation is the unit ideal and this
    is the classical Milnor number.

    Plane curves know their saturation (``curve.invariants``): with
    df = h alpha, h = u_1^(p_1-1) ... u_k^(p_k-1) and the coefficients
    (a, b) of alpha m-primary, J = h (a, b).  The associated primes of the
    principal ideal (h) are its prime factors, of height one, so m is not
    among them and J : m^infinity lies in (h) : m^infinity = (h).
    Cancelling the nonzerodivisor h, h g is in J : m^infinity exactly when
    g is in (a, b) : m^infinity = O.  Hence sat(J) = (h).  Any other ideal
    can take sat(J) from ``groebner.saturate_at_origin``.
    """
    if f.is_zero or f.is_constant():
        raise InputError("mu requires a nonconstant germ")
    if f.constant_value() != 0:
        raise InputError("mu requires f(0) = 0")
    J = jacobian_ideal(f)
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
                            if image:
                                span.insert(image)
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
                images[m] = twisted_image(m)
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
