"""Invariants of plane-curve singularities given in factored form.

The input is a germ  f = u_1^p_1 ... u_k^p_k * psi  in two variables with
every multiplicity p_i >= 2 and psi either a nonzero constant or a reduced
germ vanishing at the origin.  With the multiplicity cofactor
h = u_1^(p_1-1) ... u_k^(p_k-1), the annihilator 1-form alpha = df/h is
computed by one exact division per coefficient (f = h u_1 ... u_k psi, so
df/h is a polynomial form); it equals

    alpha = sum_l  p_l u_1 ... (u_l omitted) ... u_k psi du_l
            + u_1 ... u_k dpsi,

and spans the kernel of wedging with df.  The dual vector field drives
the twisted quotient giving nu; the saturated Jacobian ideal, which is the
principal ideal (h), gives mu; for plane curves the torsion corrections
vanish so the rank of the associated (a,b)-module is mu + nu.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import ExactFormImages, exact_form_images
from .linalg import Span, intersection, vec_axpy
from .local_algebra import (
    DEFAULT_JET_CAP,
    IdealGens,
    common_denominator,
    integer_terms,
    jacobian_ideal,
    local_colength,
    local_quotient,
    monomials_below,
    shifted_terms,
    twisted_quotient_dim,
)
from .poly import Exponents, Poly, WeightSystem, format_fraction, listing_key


class FactoredCurve:
    """A factored plane-curve germ  u_1^p_1 ... u_k^p_k * psi, with f, the
    multiplicity cofactor h, the partials df = (f_x, f_y) and the
    coefficients (a, b) of alpha = df/h built once per curve.  Immutable;
    two curves are equal when their variables, factors and residual are."""

    __slots__ = ("variables", "factors", "residual", "_f", "_h", "_df", "_alpha")

    def __init__(
        self, variables: tuple[str, str], factors: tuple[tuple[Poly, int], ...], residual: Poly
    ) -> None:
        f, h = residual, None
        for u, p in factors:  # one u^(p-1) serves both f and h
            power = u ** (p - 1)
            f, h = f * (power * u), power if h is None else h * power
        df = tuple(f.derivative(v) for v in variables)
        alpha = tuple(d.divide_exact(h) for d in df)
        if any(a is None for a in alpha):  # f = h u_1 ... u_k psi
            raise RuntimeError(
                "internal invariant violation: df is not a multiple of the "
                "multiplicity cofactor"
            )
        for name, value in zip(self.__slots__, (variables, factors, residual, f, h, df, alpha)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FactoredCurve is immutable")

    def _key(self) -> tuple:
        return (self.variables, self.factors, self.residual)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredCurve):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # copy.copy rebuilds the curve through __init__
        return (FactoredCurve, self._key())

    def __repr__(self) -> str:
        return "FactoredCurve(variables={!r}, factors={!r}, residual={!r})".format(*self._key())

    @classmethod
    def of(
        cls,
        variables: Sequence[str],
        factors: Sequence[tuple[Poly, int]],
        residual: Optional[Poly] = None,
    ) -> "FactoredCurve":
        variables = tuple(variables)
        if len(variables) != 2:
            raise InputError("factored curves live in exactly two variables")
        if not factors:
            raise InputError(
                "no singular locus: at least one branch with multiplicity >= 2 "
                "is required"
            )
        normalized: list[tuple[Poly, int]] = []
        for u, p in factors:
            if u.variables != variables:
                raise InputError("factor lives in a different ring")
            if not isinstance(p, int) or p < 2:
                raise InputError(f"multiplicity must be an integer >= 2, got {p}")
            if u.is_zero or u.is_constant():
                raise InputError("factors must be nonconstant")
            if u.constant_value() != 0:
                raise InputError(f"factor {u} does not vanish at the origin")
            normalized.append((u.lowest_monic(), p))
        for i in range(len(normalized)):
            for j in range(i + 1, len(normalized)):
                if normalized[i][0] == normalized[j][0]:
                    raise InputError(
                        "factors must be pairwise distinct branches "
                        f"({normalized[i][0]} repeats)"
                    )
        if residual is None:
            residual = Poly.constant(variables, 1)
        if residual.variables != variables:
            raise InputError("residual lives in a different ring")
        if residual.is_zero:
            raise InputError("residual must be nonzero")
        if residual.is_constant():
            pass  # nonzero constant: the psi == 1 case up to a unit
        elif residual.constant_value() != 0:
            raise InputError("a nonconstant residual must vanish at the origin")
        return cls(variables, tuple(normalized), residual)

    @property
    def residual_is_constant(self) -> bool:
        return self.residual.is_constant()

    def expand(self) -> Poly:
        return self._f

    def multiplicity_cofactor(self) -> Poly:
        """The product u_1^(p_1-1) ... u_k^(p_k-1)."""
        return self._h

    def __str__(self) -> str:  # the factored form
        pieces = [f"({u})^{p}" for u, p in self.factors]
        if not self.residual_is_constant or self.residual.constant_value() != 1:
            pieces.append(f"({self.residual})")
        return " * ".join(pieces)


def annihilator_form(curve: FactoredCurve) -> tuple[Poly, Poly]:
    """The coefficients (a, b) of the 1-form alpha = a dx + b dy with
    df = (product of u_i^(p_i - 1)) * alpha."""
    return curve._alpha


def annihilator_field(curve: FactoredCurve) -> tuple[Poly, Poly]:
    """The coefficients (b, -a) of the vector field V = b d/dx - a d/dy dual
    to the annihilator form.  V kills f by construction: the curve proved
    df = h alpha by exact division, so V(f) = h (b a - a b) = 0."""
    a, b = curve._alpha
    return b, -a


def check_hypotheses(curve: FactoredCurve) -> bool:
    """Verify the singular-locus hypotheses behind the pipeline, with no
    Groebner basis: f is not constant, the branches are pairwise
    non-associate and do not divide the residual, each branch and the
    residual are reduced, and the coefficients (a, b) of the annihilator
    form vanish simultaneously only at the origin.  ``milnor_fibre_betti``
    decides them all.  A part is reduced once its scan of (g_x, g_y)
    stops, two parts coprime once their scan of (g_i, g_j) stops; then
    alpha is a unit times dg near a point of one reduced part g alone, and
    df = 0 off f = 0 only at 0, so (a, b) is isolated (README).  A scan
    past its bound raises InputError naming the first violated clause
    (``_refused``)."""
    milnor_fibre_betti(curve)
    return True


def _refused(curve: FactoredCurve, part: Optional[int]) -> InputError:
    """The first violated clause, in the order of ``check_hypotheses``, of
    a curve whose scan of the Jacobian ideal of part ``part`` (the branches
    in order, then the residual), or of a pair of parts when ``part`` is
    None, passed its colength bound.  The parts are scanned in this order,
    each part before ``part`` stopped, so it is reduced, and a pair is
    scanned only once every part is: only the exact-division clauses are
    left to test.  A refused pair shares a factor through 0, which divides
    both coefficients of alpha."""
    branches = [u for u, _ in curve.factors]
    for u, v in combinations(branches, 2):
        if u.divide_exact(v) is not None or v.divide_exact(u) is not None:
            return InputError(f"branches {u} and {v} are associate (identical branches)")
    psi = curve.residual
    for i, u in enumerate(branches):
        if not curve.residual_is_constant and psi.divide_exact(u) is not None:
            return InputError(f"branch {u} divides the residual {psi}")
        if i == part:
            return InputError(f"branch {u} is not reduced: its singular locus is not isolated")
    if part is not None:
        return InputError(f"residual {psi} is not reduced: its singular locus is not isolated")
    return InputError(
        "the annihilating field vanishes along a curve "
        "(annihilator-form coefficients share a positive-dimensional zero set)"
    )


# -- the invariant report -----------------------------------------------------


class Assumptions(NamedTuple):
    torsion_free: bool
    torsion_free_justification: str
    # every stop is a proof: Nakayama for mu, the target b_1 - mu for nu
    exact = True

    def to_dict(self) -> dict:
        return {**self._asdict(), "exact": self.exact}


def basis_payload(
    basis: Sequence[Poly], action: Optional[Sequence[tuple[Poly, Fraction]]]
) -> tuple[list[str], Optional[list[dict]]]:
    """A report's basis texts and ``a_action`` payload: each basis class is
    rendered once, and an action class outside the basis by its own text."""
    text = {id(m): str(m) for m in basis}
    entries = None if action is None else [
        {"monomial": text.get(id(m)) or str(m), "coefficient": format_fraction(c)}
        for m, c in action
    ]
    return [text[id(m)] for m in basis], entries


class InvariantReport(NamedTuple):
    variables: tuple[str, str]
    f: str
    mu: int
    nu: int
    gamma: int
    delta: int
    rank: int
    betti_n: int
    basis_mu: tuple[Poly, ...]
    basis_nu: tuple[Poly, ...]
    a_action: Optional[tuple[tuple[Poly, Fraction], ...]]
    assumptions: Assumptions
    weights: Optional[WeightSystem]

    @property
    def basis(self) -> tuple[Poly, ...]:
        return self.basis_mu + self.basis_nu

    def to_dict(self) -> dict:
        basis, action = basis_payload(self.basis, self.a_action)
        ws, split = self.weights, len(self.basis_mu)
        return {
            "f": self.f,
            "variables": list(self.variables),
            "mu": self.mu,
            "nu": self.nu,
            "gamma": self.gamma,
            "delta": self.delta,
            "rank": self.rank,
            "betti_n": self.betti_n,
            "basis": basis,
            "basis_mu": basis[:split],
            "basis_nu": basis[split:],
            "a_action": action,
            "weights": None
            if ws is None
            else {
                "weights": [format_fraction(w) for w in ws.weights],
                "total_degree": format_fraction(ws.total_degree),
            },
            "assumptions": self.assumptions.to_dict(),
        }


def invariants(
    curve: FactoredCurve,
    weights: Optional[Sequence[Fraction]] = None,
    jet_cap: int = DEFAULT_JET_CAP,
) -> InvariantReport:
    """Full invariant pipeline: mu, nu, rank = mu + nu, quotient basis,
    and (with a verifying weight certificate) the a-action coefficients.

    No Groebner basis runs: b_1 comes first, before ``weights`` are read,
    and ``milnor_fibre_betti`` proves every clause of ``check_hypotheses``,
    so the mu scan of (a, b) stops, or names the first one violated.
    Nor does a general saturation: sat(J) = (h), h = u_1^(p_1-1) ...
    u_k^(p_k-1).  df = h alpha with the coefficients (a, b) of alpha
    m-primary, so J = h (a, b).  The associated primes of the principal
    ideal (h) are its prime factors, of height one, so m is not among
    them and J : m^infinity lies in (h).  Cancelling the
    nonzerodivisor h leaves (a, b) : m^infinity = O.  So mu = dim (h)/J =
    dim O/(a, b), a colength certified by ``local_quotient``, and the
    classes h x^m of its monomials x^m are the mu basis.  The nu scan
    reads (h) too.

    The rank is b_1 of the Milnor fibre (``milnor_fibre_betti``), so nu is
    b_1 - mu, and the nu scan stops when its lower bound reaches that
    target; ``jet_cap`` bounds that scan alone.
    One operator serves it and the a-action certificate: for V = (b, -a),
    V~(x^m) vol = d(x^m alpha), ``forms.exact_form_images(alpha)``.
    """
    f = curve.expand()
    h = curve.multiplicity_cofactor()
    field = annihilator_field(curve)
    betti = milnor_fibre_betti(curve)  # proves (a, b) isolated, so the mu scan stops
    ws = WeightSystem.for_poly(f, weights) if weights is not None else None
    mu_value, mu_basis = local_quotient(IdealGens.of(curve.variables, field), ws)
    [twisted] = exact_form_images(curve._alpha).values()
    sat = IdealGens.of(curve.variables, [h])
    nu_res = twisted_quotient_dim(sat, twisted, betti - mu_value, ws, jet_cap)
    # the scans give valid exponents: the classes h x^m and x^m need no checks
    # listed by lowest term, low(h) x^m for h x^m (poly.graded_key is a
    # monomial order), so by m: listing_key's order is translation invariant
    basis_mu = tuple(
        Poly._trusted(curve.variables, shifted_terms(h.terms.items(), e))
        for e in sorted(mu_basis, key=listing_key)
    )
    basis_nu = tuple(
        Poly._trusted(curve.variables, {e: 1}) for e in sorted(nu_res.basis, key=listing_key)
    )
    action = None
    if ws is not None:
        action = a_action(f, curve._df[0], h, {(): twisted}, ws, basis_mu + basis_nu)
    assumptions = Assumptions(
        torsion_free=True,
        torsion_free_justification=(
            "plane curve in two variables: both torsion corrections vanish"
        ),
    )
    return InvariantReport(
        variables=curve.variables,
        f=str(f),
        mu=mu_value,
        nu=nu_res.dim,
        gamma=0,
        delta=0,
        rank=mu_value + nu_res.dim,
        betti_n=betti,
        basis_mu=basis_mu,
        basis_nu=basis_nu,
        a_action=action,
        assumptions=assumptions,
        weights=ws,
    )


def milnor_fibre_betti(curve: FactoredCurve) -> int:
    """b_1 of the Milnor fibre F of f at 0.

    Write f = prod g_i^(m_i), the g_i the branches u_i (m_i = p_i) and a
    nonconstant residual (m = 1).  A'Campo's formula ("La fonction zêta d'une
    monodromie", Comment. Math. Helv. 50, 1975) gives
    chi(F) = sum_i m_i (1 - mu(g_i) - sum_(j != i) (g_i . g_j)_0), and F
    has gcd(m_i) components, so b_1 = gcd(m_i) - chi(F).  A part
    homogeneous in one primitive weight takes Milnor-Orlik, and a pair
    of parts homogeneous in one shared weight weighted Bezout, once an
    integer gcd certifies its hypothesis (``_closed_milnor``,
    ``_closed_meet``); every part and pair of a curve graded by weights
    is so.  Every other number is a colength certified by the scan of
    ``local_quotient``, with no basis (``local_colength``).  These decide
    ``check_hypotheses``: a constant f or branch, or a scan past its bound,
    raises InputError naming the first violated clause."""
    if curve.expand().is_constant():
        raise InputError("no singular locus: f is constant")
    if any(u.is_constant() for u, _ in curve.factors):  # FactoredCurve.of refuses them first
        raise InputError("factors must be nonconstant")
    parts = list(curve.factors)
    if not curve.residual_is_constant:
        parts.append((curve.residual, 1))
    gs, ms = zip(*parts)
    shapes = [_weighted_shape(g) for g in gs]

    def colength(I: IdealGens, part: Optional[int]) -> int:
        try:
            return local_colength(I)
        except InputError:  # past its colength bound
            raise _refused(curve, part) from None

    milnor = [
        mu if (mu := _closed_milnor(s)) is not None
        else 0 if (J := jacobian_ideal(g)).contains_unit() else colength(J, i)
        for i, (g, s) in enumerate(zip(gs, shapes))
    ]
    pairs = list(combinations(range(len(parts)), 2))
    meets = [
        meet if (meet := _closed_meet(shapes[i], shapes[j])) is not None
        else colength(IdealGens.of(curve.variables, [gs[i], gs[j]]), None)
        for i, j in pairs
    ]
    # (g_i . g_j)_0 enters the sums of both i and j
    chi = sum(m * (1 - mu) for m, mu in zip(ms, milnor))
    chi -= sum((ms[i] + ms[j]) * meet for (i, j), meet in zip(pairs, meets))
    return gcd(*ms) - chi


def _weighted_shape(g: Poly) -> Optional[tuple]:
    """(w, a, b, p) with g = x^a y^b P(x^w_y, y^w_x), P homogeneous in a
    primitive positive weight w and p(s) = P(s, 1) as integers, constant
    first, p(0) != 0 and deg p = deg P (w is None for a monomial, which
    every weight grades), or None if no weight does.  P is a product of
    factors s - c t, c != 0, whose branches x^w_y - c y^w_x are coprime for
    distinct c: so g is reduced iff a, b <= 1 and gcd(p, p') is constant,
    and two parts in one w are coprime iff they share no x, no y and no
    factor of p."""
    (a, top), (right, b) = min(g.terms), max(g.terms)  # least, greatest x-power
    if len(g.terms) == 1:
        return None, a, b, [1]
    if right == a or top <= b:
        return None
    n = gcd(right - a, top - b)  # deg p
    wx, wy = (top - b) // n, (right - a) // n
    p = [0] * (n + 1)
    for (e, e2), c in integer_terms(g):
        if wx * (e - a) + wy * (e2 - b) != n * wx * wy:
            return None
        p[(e - a) // wy] = c
    return (wx, wy), a, b, p


def _degree(w: Sequence[int], shape: tuple) -> int:
    _, a, b, p = shape
    return w[0] * a + w[1] * b + (len(p) - 1) * w[0] * w[1]


def _closed_milnor(s: Optional[tuple]) -> Optional[int]:
    """mu of a part of shape ``s`` once gcd(p, p') proves it reduced, or
    None: (d - w_x)(d - w_y) / (w_x w_y) for its w-degree d (Milnor-Orlik,
    Topology 9, 1970; 0 for a smooth part, whose d is w_x or w_y)."""
    if s and s[1] <= 1 and s[2] <= 1:
        if len(_gcd(s[3], [k * c for k, c in enumerate(s[3])][1:])) == 1:  # p and p'
            w = s[0] or (1, 1)
            d = _degree(w, s)
            return (d - w[0]) * (d - w[1]) // (w[0] * w[1])
    return None


def _closed_meet(s: Optional[tuple], t: Optional[tuple]) -> Optional[int]:
    """(g . h)_0 of two parts of shapes ``s`` and ``t`` once they share a
    weight w and gcd(p_s, p_t) proves them coprime, or None: d_s d_t /
    (w_x w_y) by weighted Bezout, since both are unions of orbit closures
    of the weighted C^* action and meet only at 0."""
    w = s and t and (s[0] or t[0] or (1, 1))
    if w and {s[0], t[0]} <= {None, w}:
        if not (s[1] and t[1] or s[2] and t[2]) and len(_gcd(s[3], t[3])) == 1:
            return _degree(w, s) * _degree(w, t) // (w[0] * w[1])
    return None


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """The gcd in Z[s], with a positive leading coefficient, of integer
    coefficient lists, constant first, with no trailing zero ([] is 0): a
    primitive remainder sequence, with the gcd of the contents multiplied
    back."""
    content, (p, q) = gcd(*p, *q), (p, q) if q else (q, p)
    if len(p) == 1 or len(q) == 1:  # a nonzero constant: the gcd is the content
        return [content]
    while q:
        unit = gcd(*q) if q[-1] > 0 else -gcd(*q)
        q = [c // unit for c in q]  # the content removed
        while len(p) >= len(q):  # lead(q) p - lead(p) s^k q drops the top term
            p = [q[-1] * v - p[-1] * u for v, u in zip(p, [0] * (len(p) - len(q)) + q)]
            while p and not p[-1]:
                p.pop()
        p, q = q, p
    return [content * c for c in p]


# -- the a-action and its certificate -----------------------------------------


def a_action_coefficient(ws: WeightSystem, degree: int) -> Fraction:
    """Predicted coefficient c with  a[m] = c b[m]  for a class m of w-degree
    ``degree`` in the integer-scaled weights: (weighted degree of m + sum of
    the weights) / total degree."""
    int_weights, scale = ws.integer_scaled()
    total = ws.total_degree
    return Fraction((degree + sum(int_weights)) * total.denominator, scale * total.numerator)


def a_action(
    f: Poly, fx0: Poly, h: Poly, images: ExactFormImages, ws: WeightSystem, basis: Sequence[Poly]
) -> tuple[tuple[Poly, Fraction], ...]:
    """a-action coefficients of f on the given basis classes, each proved
    by the Euler-field certificate before inclusion.  ``fx0`` is the
    partial of f in its first variable, and ``images`` the exact-form
    operators (``forms.exact_form_images``) of a form alpha with df = h alpha:
    the annihilator form of a curve, or df for an isolated germ (h = 1).
    One certificate serves the whole basis, and it compares the identity
    in full at the n + 1 monomials 1, x_0, ..., x_(n-1) at most.  Each class
    is refused unless it is w-homogeneous; classes of one w-degree share one
    predicted coefficient, which the certificate compares at each of them."""
    int_weights, _ = ws.integer_scaled()
    if len(int_weights) != len(f.variables):
        raise InputError("weight count does not match variable count")
    holds = _action_certificate(f, fx0, h, images, ws)
    predicted: dict[int, Fraction] = {}
    out = []
    for rep in basis:
        degrees = {sum(map(mul, e, int_weights)) for e in rep.terms}
        if len(degrees) != 1:
            raise InputError(f"basis representative {rep} is not quasi-homogeneous")
        degree = degrees.pop()
        if degree not in predicted:
            predicted[degree] = a_action_coefficient(ws, degree)
        if not holds(rep, degree, predicted[degree]):
            raise InputError(f"a-action verification failed on monomial {rep}")
        out.append((rep, predicted[degree]))
    return tuple(out)


def _action_certificate(
    f: Poly, fx0: Poly, h: Poly, images: ExactFormImages, ws: WeightSystem
) -> Callable[[Poly, int, Fraction], bool]:
    """The certificate of  a[m] = c b[m]  in n variables, for one
    (f, alpha), as a function ``holds`` of (m, d, c), with the arguments of
    ``a_action``; m is w-homogeneous of w-degree d in the integer-scaled
    weights, which the caller reads once.

    With a acting as multiplication by f and b as df wedge a primitive,
    the claim is that  omega = f m vol - c df ^ xi  is an exact form
    d(eta ^ alpha), where xi is an explicit primitive of m vol and alpha is
    the annihilator form of a curve or df itself for an isolated germ, so
    that df = h alpha for a polynomial h.  ``holds`` is True exactly when
    c is the predicted c* below and, at every monomial
    x^t of m, omega is 0 or equals d(eta ^ alpha) for the one eta below; a
    False says nothing about other eta.

    The Euler field E = sum_i w_i x_i d/dx_i has E f = D f for the total
    degree D, so df ^ i_E(m vol) = D f m vol, and  omega = df ^ theta  with
    theta = (1/D) i_E(m vol) - c xi.  By Cartan's formula
    d i_E(m vol) = (deg m + sum w) m vol, and d xi = m vol, so theta is
    closed exactly at c = c* = (deg m + sum w)/D, the predicted
    coefficient.  Then theta is weighted-homogeneous of degree D c* with
    i_E theta = -c* i_E xi, so Cartan again gives theta = d zeta,
    zeta = -(1/D) i_E xi.  With df = h alpha this is
    omega = df ^ d zeta = d(eta ^ alpha), where
    eta = (-1)^n (h/D) i_E xi
        = (-1)^n (h/D) P sum_(j >= 1) (-1)^(j-1) w_j x_j dx_(I_j),
    P = int m dx_0 and I_j = {1, ..., n-1} minus j.  With one variable
    there is no eta, and omega itself vanishes at c*.

    All arithmetic is on integers and integer exponent tuples.  In the
    integer-scaled weights c* = k / d with k = (deg m + sum w) D.denominator
    and d = D.numerator weight_scale, one denominator for the certificate.
    Both sides are linear in m, so each monomial x^t of a w-homogeneous m
    is checked on its own, and ``_action_target`` gives omega at x^t as
    integer shifts of s f and s f_x0.  The forms d(eta ^ alpha) are integer
    exponent shifts (``forms.exact_form_images``) read off alpha alone;
    df = h alpha holds by construction (the exact division of
    ``FactoredCurve``, or h = 1 for alpha = df), so nothing is divided.
    The images of eta and the target are compared at integer scales fixed
    per certificate, so a True is an exact identity.  By the affine lemma
    of the README a defect that vanishes on a set of exponents vanishes on
    its affine hull, and the frame 0, e_0, ..., e_(n-1) has every exponent
    in its hull: at the first monomial whose omega is not 0 the identity is
    compared in full at 1, x_0, ..., x_(n-1), and every later monomial
    takes no check; one whose omega is 0 is proved by eta = 0."""
    n = len(f.variables)
    # s f and s f_x0 as integer terms, for one s > 0 (f_x0 has no new
    # denominators)
    scale_f = common_denominator(f)
    f_terms = integer_terms(f, scale_f)
    fx0_terms = integer_terms(fx0, scale_f)
    int_weights, weight_scale = ws.integer_scaled()
    weight_sum = sum(int_weights)
    k_scale, denominator = ws.total_degree.denominator, ws.total_degree.numerator * weight_scale
    proved = False  # the identity compared in full on the frame

    def proved_on_frame() -> bool:
        # eta's term j, x^(t + e_0) h w_j x_j dx_(I_j) / ((t_0 + 1) D), has the
        # image sum_e h_e image_j(x^(e + t + e_0 + e_j)) / (scale_h image_j.scale);
        # s times the sum of these meets the target at the scale d scale_h common
        scale_h = common_denominator(h)
        h_terms = integer_terms(h, scale_h)
        zero = (0,) * n
        units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
        index_images = [(j, images[tuple(k for k in range(1, n) if k != j)]) for j in range(1, n)]
        common = lcm(*(image.scale for _, image in index_images))
        eta = [
            (
                (-1) ** (n + j - 1) * int_weights[j] * (common // image.scale) * k_scale * scale_f,
                tuple(map(add, units[0], units[j])),
                image,
            )
            for j, image in index_images
        ]
        target_scale = scale_h * common
        # 1, x_0, ..., x_(n-1): their affine hull holds every exponent
        for t in [zero] + units:
            k = (sum(map(mul, t, int_weights)) + weight_sum) * k_scale * target_scale
            image_sum: dict[Exponents, int] = {}
            for factor, shift, image in eta:
                base = tuple(map(add, t, shift))
                for e, c in h_terms:
                    vec_axpy(image_sum, factor * c, image(tuple(map(add, e, base))))
            if image_sum != _action_target(f_terms, fx0_terms, t, k, denominator * target_scale):
                return False
        return True

    def holds(m: Poly, degree: int, coefficient: Fraction) -> bool:
        nonlocal proved
        k = (degree + weight_sum) * k_scale
        if coefficient.numerator * denominator != k * coefficient.denominator:
            return False
        if not proved:
            for t in m.terms:
                if _action_target(f_terms, fx0_terms, t, k, denominator):
                    if not proved_on_frame():
                        return False
                    proved = True
                    break
        return True  # omega = 0 at every monomial checked: eta = 0 serves

    return holds


def _action_target(
    f_terms: list[tuple[Exponents, int]],
    fx0_terms: list[tuple[Exponents, int]],
    t: Exponents,
    c_num: int,
    c_den: int,
) -> dict[Exponents, int]:
    """(t_0 + 1) c_den s times the top coefficient of the certificate's
    form  omega = f x^t vol - c df ^ xi  at c = c_num / c_den (c_den > 0).

    With xi = (int x^t dx_0) dx_1 ^ ... ^ dx_(n-1), d(xi) = x^t vol and
    df ^ xi = f_x0 x^(t + e_0) / (t_0 + 1) vol, so the target is
    (t_0 + 1) c_den x^t F - c_num x^(t + e_0) G for the integer terms
    ``f_terms`` of F = s f and ``fx0_terms`` of G = s f_x0, one s > 0."""
    scale, out = (t[0] + 1) * c_den, {}
    for e, c in f_terms:
        out[tuple(map(add, e, t))] = scale * c
    shift = (t[0] + 1,) + t[1:]
    for e, c in fx0_terms:
        key = tuple(map(add, e, shift))
        value = out.get(key, 0) - c_num * c
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


# -- torsion-free witness -------------------------------------------------------


def torsion_free_witness(curve: FactoredCurve, jet_order: int = 12) -> bool:
    """Jet-order witness that exact forms d(h alpha) lying inside the
    saturated-Jacobian multiples are themselves df ^ d(g) combinations.
    The saturated Jacobian ideal is principal, generated by the
    multiplicity cofactor (see ``invariants``).

    For plane curves this always holds, which makes the check a powerful
    end-to-end self-test of the pipeline.  Returns True on success; a
    too-small window raises InconclusiveError ("window too small"), as
    does a failed membership (which at adequate orders would indicate an
    implementation defect).
    """
    f = curve.expand()
    if jet_order < f.total_degree() + 2:
        raise InconclusiveError(
            "window too small for the torsion-free witness",
            jet_order=jet_order,
            needed=f.total_degree() + 2,
        )
    # d(x^h alpha) and d(x^g df) = d(x^g) ^ df as integer exponent shifts:
    # each map scales all its images by one positive integer, which changes
    # no span
    [exact_image] = exact_form_images(annihilator_form(curve)).values()
    exact_vectors = [
        vec for h_exp in monomials_below(2, jet_order + 1) if (vec := exact_image(h_exp))
    ]
    bound = max((sum(e) for v in exact_vectors for e in v), default=0)
    cofactor = curve.multiplicity_cofactor()
    ideal_vectors = [
        shifted_terms(cofactor.terms.items(), m_exp)
        for m_exp in monomials_below(2, max(bound + 2 - cofactor.order(), 1))
    ]
    meet = intersection(ideal_vectors, exact_vectors)
    if not meet:
        return True
    [wedge_image] = exact_form_images(curve._df).values()
    witness_span = Span()
    for g_exp in monomials_below(2, jet_order + 1):
        vec = wedge_image(g_exp)
        if vec:
            witness_span.insert(vec)
    for vec in meet:
        if not witness_span.contains(vec):
            raise InconclusiveError(
                "torsion-free witness membership failed; raise the jet order "
                "or investigate",
                jet_order=jet_order,
            )
    return True
