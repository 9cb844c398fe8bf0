"""Invariants of plane-curve singularities given in factored form.

The input is a germ  f = u_1^p_1 ... u_k^p_k * psi  in two variables with
every multiplicity p_i >= 2 and psi either a nonzero constant or a reduced
germ vanishing at the origin.  From the factored shape one reads off the
annihilator 1-form

    alpha = sum_l  p_l u_1 ... (u_l omitted) ... u_k psi du_l
            + u_1 ... u_k dpsi,

which satisfies  df = u_1^(p_1-1) ... u_k^(p_k-1) alpha  exactly and spans
the kernel of wedging with df.  The dual vector field drives the twisted
quotient giving nu; the saturated Jacobian ideal, which is the principal
ideal of that cofactor, gives mu; for plane curves the torsion
corrections vanish so the rank of the associated (a,b)-module is mu + nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import InconclusiveError, InputError
from .forms import DiffForm, VectorField, field_from_one_form
from .groebner import isolated_at_origin
from .linalg import Span, intersection, vec_axpy
from .local_algebra import (
    DEFAULT_JET_CAP,
    IdealGens,
    _ShiftedImages,
    common_denominator,
    integer_terms,
    jacobian_ideal,
    local_colength,
    local_quotient,
    monomials_below,
    shifted_terms,
    twisted_quotient_dim,
)
from .poly import Exponents, Poly, WeightSystem, format_fraction, graded_key, listing_key


@dataclass(frozen=True)
class FactoredCurve:
    """A factored plane-curve germ  u_1^p_1 ... u_k^p_k * psi."""

    variables: tuple[str, str]
    factors: tuple[tuple[Poly, int], ...]
    residual: Poly
    # f itself, multiplied out once per curve (``expand``)
    _f: Poly = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_f", self._expansion())

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

    def _expansion(self) -> Poly:
        f = self.residual
        for u, p in self.factors:
            f = f * u**p
        return f

    def multiplicity_cofactor(self) -> Poly:
        """The product u_1^(p_1-1) ... u_k^(p_k-1)."""
        out = Poly.constant(self.variables, 1)
        for u, p in self.factors:
            out = out * u ** (p - 1)
        return out

    def __str__(self) -> str:
        pieces = [f"({u})^{p}" for u, p in self.factors]
        if not self.residual_is_constant or self.residual.constant_value() != 1:
            pieces.append(f"({self.residual})")
        return " * ".join(pieces)


def annihilator_form(curve: FactoredCurve) -> DiffForm:
    """The 1-form alpha with  df = (product of u_i^(p_i - 1)) * alpha."""
    variables = curve.variables
    alpha = DiffForm.zero(variables, 1)
    product_all = Poly.constant(variables, 1)
    for u, _ in curve.factors:
        product_all = product_all * u
    for l, (u_l, p_l) in enumerate(curve.factors):
        cofactor = Poly.constant(variables, p_l)
        for i, (u_i, _) in enumerate(curve.factors):
            if i != l:
                cofactor = cofactor * u_i
        cofactor = cofactor * curve.residual
        alpha = alpha + DiffForm.from_poly(u_l).d() * cofactor
    if not curve.residual_is_constant:
        alpha = alpha + DiffForm.from_poly(curve.residual).d() * product_all
    return alpha


def annihilator_field(
    curve: FactoredCurve, alpha: Optional[DiffForm] = None
) -> VectorField:
    """Vector field dual to the annihilator form (``alpha`` when the
    caller has built it); kills f exactly."""
    if alpha is None:
        alpha = annihilator_form(curve)
    field = field_from_one_form(alpha)
    killed = field.apply(curve.expand())
    if not killed.is_zero:
        raise RuntimeError(
            "internal invariant violation: annihilator field does not kill f"
        )
    return field


def check_hypotheses(curve: FactoredCurve, alpha: Optional[DiffForm] = None) -> bool:
    """Verify the singular-locus hypotheses behind the pipeline.

    Checks exactly: the branches are pairwise non-associate and do not
    divide the residual, each branch and the residual are reduced
    (singular locus of each is isolated), and the coefficients of the
    annihilator form (``alpha`` when the caller has built it) vanish
    simultaneously only at the origin.  Each
    isolation is decided by ``groebner.isolated_at_origin``.  Raises
    InputError naming the violated clause.
    """
    variables = curve.variables
    f = curve.expand()
    if f.is_constant():
        raise InputError("no singular locus: f is constant")
    for i, (u, _) in enumerate(curve.factors):
        for j in range(i + 1, len(curve.factors)):
            v = curve.factors[j][0]
            if u.divide_exact(v) is not None or v.divide_exact(u) is not None:
                raise InputError(
                    f"branches {u} and {v} are associate (identical branches)"
                )
    for u, _ in curve.factors:
        if not curve.residual_is_constant and curve.residual.divide_exact(u) is not None:
            raise InputError(f"branch {u} divides the residual {curve.residual}")
        partials = [u.derivative(v) for v in variables]
        if not isolated_at_origin(IdealGens.of(variables, [u] + partials)):
            raise InputError(
                f"branch {u} is not reduced: its singular locus is not isolated"
            )
    if not curve.residual_is_constant:
        psi = curve.residual
        partials = [psi.derivative(v) for v in variables]
        if not isolated_at_origin(IdealGens.of(variables, [psi] + partials)):
            raise InputError(
                f"residual {psi} is not reduced: its singular locus is not isolated"
            )
    if alpha is None:
        alpha = annihilator_form(curve)
    coeffs = [alpha.coefficient((i,)) for i in range(2)]
    if not isolated_at_origin(IdealGens.of(variables, coeffs)):
        raise InputError(
            "the annihilating field vanishes along a curve "
            "(annihilator-form coefficients share a positive-dimensional zero set)"
        )
    return True


# -- the invariant report -----------------------------------------------------


@dataclass(frozen=True)
class Assumptions:
    torsion_free: bool
    torsion_free_justification: str
    # every stop is a proof: Nakayama for mu, the target b_1 - mu for nu
    exact = True

    def to_dict(self) -> dict:
        return {
            "torsion_free": self.torsion_free,
            "torsion_free_justification": self.torsion_free_justification,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class InvariantReport:
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
        return {
            "f": self.f,
            "variables": list(self.variables),
            "mu": self.mu,
            "nu": self.nu,
            "gamma": self.gamma,
            "delta": self.delta,
            "rank": self.rank,
            "betti_n": self.betti_n,
            "basis": [str(p) for p in self.basis],
            "basis_mu": [str(p) for p in self.basis_mu],
            "basis_nu": [str(p) for p in self.basis_nu],
            "a_action": None
            if self.a_action is None
            else [
                {
                    "monomial": str(p),
                    "coefficient": format_fraction(c),
                }
                for p, c in self.a_action
            ],
            "weights": None
            if self.weights is None
            else {
                "weights": [format_fraction(w) for w in self.weights.weights],
                "total_degree": format_fraction(self.weights.total_degree),
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

    No general saturation runs: sat(J) = (h), h = u_1^(p_1-1) ...
    u_k^(p_k-1).  df = h alpha with the coefficients (a, b) of alpha
    m-primary (``check_hypotheses``), so J = h (a, b).  The associated
    primes of the principal ideal (h) are its prime factors, of height one,
    so m is not among them and J : m^infinity lies in (h).  Cancelling the
    nonzerodivisor h leaves (a, b) : m^infinity = O.  So mu = dim (h)/J =
    dim O/(a, b), a colength certified by ``local_quotient``, and the
    classes h x^m of its monomials x^m are the mu basis.  The nu scan
    reads (h) too.

    The rank is b_1 of the Milnor fibre (``milnor_fibre_betti``), so nu is
    b_1 - mu, and the nu scan stops when its lower bound reaches that
    target; ``jet_cap`` bounds that scan alone.
    """
    alpha = annihilator_form(curve)
    check_hypotheses(curve, alpha=alpha)
    f = curve.expand()
    ws = WeightSystem.for_poly(f, weights) if weights is not None else None
    h = curve.multiplicity_cofactor()
    # b d/dx - a d/dy, for alpha = a dx + b dy
    field = annihilator_field(curve, alpha=alpha)
    mu_value, mu_basis = local_quotient(
        IdealGens.of(curve.variables, field.coefficients), ws
    )
    betti = milnor_fibre_betti(curve, ws)
    sat = IdealGens.of(curve.variables, [h])
    nu_res = twisted_quotient_dim(sat, field, betti - mu_value, ws, jet_cap)
    basis_mu = tuple(
        sorted(
            (Poly(curve.variables, shifted_terms(h.terms.items(), e)) for e in mu_basis),
            key=_basis_sort_key,
        )
    )
    basis_nu = tuple(
        sorted(
            (Poly.monomial(curve.variables, e) for e in nu_res.basis),
            key=_basis_sort_key,
        )
    )
    action = None
    if ws is not None:
        action = a_action(f, alpha, ws, basis_mu + basis_nu)
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


def milnor_fibre_betti(curve: FactoredCurve, ws: Optional[WeightSystem] = None) -> int:
    """b_1 of the Milnor fibre F of f at 0.

    Write f = prod g_i^(m_i), the g_i the branches u_i (m_i = p_i) and a
    nonconstant residual (m = 1), reduced and pairwise coprime
    (``check_hypotheses``).  A'Campo's formula ("La fonction zêta d'une
    monodromie", Comment. Math. Helv. 50, 1975) gives
    chi(F) = sum_i m_i (1 - mu(g_i) - sum_(j != i) (g_i . g_j)_0), and F
    has gcd(m_i) components, so b_1 = gcd(m_i) - chi(F).  Each Milnor
    number and intersection number is a colength certified by the scan
    of ``local_quotient`` (weighted by ``ws``), counted with no basis
    (``local_colength``)."""
    parts = list(curve.factors)
    if not curve.residual_is_constant:
        parts.append((curve.residual, 1))
    chi = 0
    for g, m in parts:
        jacobian = jacobian_ideal(g)
        milnor = 0 if jacobian.contains_unit() else local_colength(jacobian, ws)
        chi += m * (1 - milnor)
    for (g, m), (g2, m2) in combinations(parts, 2):
        # (g_i . g_j)_0 enters the sums of both i and j
        meet = local_colength(IdealGens.of(curve.variables, [g, g2]), ws)
        chi -= (m + m2) * meet
    return gcd(*(m for _, m in parts)) - chi


# -- the a-action and its certificate -----------------------------------------


def _basis_sort_key(p: Poly):
    """Listing order keyed on the lowest term (for monomials, the monomial)."""
    return listing_key(min(p.terms, key=graded_key))


def a_action_coefficient(ws: WeightSystem, rep: Poly) -> Fraction:
    """Predicted coefficient c with  a[m] = c b[m]:
    (weighted degree of m + sum of the weights) / total degree, read in
    the integer-scaled weights."""
    int_weights, scale = ws.integer_scaled()
    if len(int_weights) != len(rep.variables):
        raise InputError("weight count does not match variable count")
    degrees = {sum(map(mul, e, int_weights)) for e in rep.terms}
    if len(degrees) != 1:
        raise InputError(f"basis representative {rep} is not quasi-homogeneous")
    total = ws.total_degree
    return Fraction(
        (degrees.pop() + sum(int_weights)) * total.denominator, scale * total.numerator
    )


def a_action(
    f: Poly, alpha: DiffForm, ws: WeightSystem, basis: Sequence[Poly]
) -> tuple[tuple[Poly, Fraction], ...]:
    """a-action coefficients of f on the given basis classes, each proved
    by the Euler-field certificate before inclusion; ``alpha`` is the
    annihilator form of a curve, or df for an isolated germ.  One
    certificate serves the whole basis."""
    holds = _action_certificate(f, alpha, ws)
    out = []
    for rep in basis:
        coefficient = a_action_coefficient(ws, rep)
        if not holds(rep, coefficient):
            raise InputError(f"a-action verification failed on monomial {rep}")
        out.append((rep, coefficient))
    return tuple(out)


def _exact_form_images(
    alpha: DiffForm,
) -> list[tuple[tuple[int, ...], _ShiftedImages]]:
    """For each index set I of n - 2 variables, the map from x^h to the top
    coefficient of d(x^h dx_I ^ alpha).  By the Leibniz rule that form is
    sum_k h_k x^(h - e_k) dx_k ^ dx_I ^ alpha + x^h d(dx_I ^ alpha), affine
    in h, so its operator is read off alpha once per index set.

    With {p < q} the complement of I and s the sign of the sequence
    (p, I, q), only the a_p dx_p and a_q dx_q of alpha survive the wedge
    with dx_I: dx_p ^ dx_I ^ alpha = s a_q vol, dx_q ^ dx_I ^ alpha =
    -s a_p vol, every other dx_k ^ dx_I ^ alpha = 0, and
    d(dx_I ^ alpha) = s (d_p a_q - d_q a_p) vol."""
    variables = alpha.variables
    n = len(variables)
    zero = Poly.zero(variables)
    out = []
    for index_set in combinations(range(n), n - 2) if n > 1 else ():
        p, q = (k for k in range(n) if k not in index_set)
        sequence = (p, *index_set, q)
        s = (-1) ** sum(a > b for a, b in combinations(sequence, 2))
        a_p, a_q = alpha.coefficient((p,)), alpha.coefficient((q,))
        parts = [zero] * n
        parts[p], parts[q] = a_q * s, a_p * -s
        extra = (a_q.derivative(variables[p]) - a_p.derivative(variables[q])) * s
        out.append((index_set, _ShiftedImages(parts, extra)))
    return out


def _action_certificate(
    f: Poly, alpha: DiffForm, ws: WeightSystem
) -> Callable[[Poly, Fraction], bool]:
    """The certificate of  a[m] = c b[m]  in n variables, for one
    (f, alpha), as a function of (m, c).

    With a acting as multiplication by f and b as df wedge a primitive,
    the claim is that  omega = f m vol - c df ^ xi  is an exact form
    d(eta ^ alpha), where xi is an explicit primitive of m vol and alpha is
    the annihilator form of a curve or df itself for an isolated germ, so
    that df = h alpha for a polynomial h.  ``holds`` is True exactly when
    omega is 0 or equals d(eta ^ alpha) for the one eta below; a False
    says nothing about other eta.

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

    The forms d(eta ^ alpha) are integer exponent shifts
    (``_exact_form_images``) whose operators come from alpha alone; the
    check sums the images of eta and compares them with the integer
    target (``_action_target``) at their known scales, so a True is an
    exact identity."""
    variables = f.variables
    n = len(variables)
    coefficients = [alpha.coefficient((i,)) for i in range(n)]
    i = next((i for i, a in enumerate(coefficients) if not a.is_zero), None)
    h = None if i is None else f.derivative(variables[i]).divide_exact(coefficients[i])
    if h is None:
        raise RuntimeError(
            "internal invariant violation: df is not a polynomial multiple of alpha"
        )
    scale_h = common_denominator(h)
    h_terms = integer_terms(h, scale_h)
    # s f and s f_x0 as integer terms, for one s > 0 (f_x0 has no new
    # denominators)
    scale_f = common_denominator(f)
    f_terms = integer_terms(f, scale_f)
    fx0_terms = integer_terms(f.derivative(variables[0]), scale_f)
    int_weights, weight_scale = ws.integer_scaled()
    # w_j / D = int_weights[j] * q.denominator / q.numerator
    q = ws.total_degree * weight_scale
    images = dict(_exact_form_images(alpha))
    index_images = [
        (j, images[tuple(k for k in range(1, n) if k != j)]) for j in range(1, n)
    ]
    common = lcm(*(image.scale for _, image in index_images))
    parts = [
        ((-1) ** (n + j - 1) * int_weights[j] * (common // image.scale), j, image)
        for j, image in index_images
    ]
    # With c_P the lcm of the denominators of P, the target is
    # c.denominator * c_P * scale_f times omega (``_action_target``), and
    # the sum of images below is q.numerator * scale_h * c_P * common /
    # q.denominator times omega; c_P cancels.
    target_factor = q.numerator * scale_h * common
    sum_factor = scale_f * q.denominator

    def holds(m: Poly, coefficient: Fraction) -> bool:
        target = _action_target(f_terms, fx0_terms, m, coefficient)
        if not target:
            return True
        # c_P P h as integer terms
        c_p = lcm(*(m_t.denominator * (t[0] + 1) for t, m_t in m.terms.items()))
        ph: dict[Exponents, int] = {}
        for t, m_t in m.terms.items():
            p_coeff = m_t.numerator * (c_p // (m_t.denominator * (t[0] + 1)))
            vec_axpy(ph, p_coeff, shifted_terms(h_terms, (t[0] + 1,) + t[1:]))
        total: dict[Exponents, int] = {}
        for factor, j, image in parts:
            for e, c in ph.items():
                vec_axpy(total, factor * c, image(e[:j] + (e[j] + 1,) + e[j + 1 :]))
        total_factor = sum_factor * coefficient.denominator
        return total.keys() == target.keys() and all(
            v * target_factor == total[e] * total_factor for e, v in target.items()
        )

    return holds


def _action_target(
    f_terms: list[tuple[Exponents, int]],
    fx0_terms: list[tuple[Exponents, int]],
    m: Poly,
    coefficient: Fraction,
) -> dict[Exponents, int]:
    """A positive integer multiple of the top coefficient of the
    certificate's form  omega = f m vol - c df ^ xi.

    With xi = (int m dx_0) dx_1 ^ ... ^ dx_(n-1), d(xi) = m vol and
    df ^ xi = f_x0 (int m dx_0) vol, so omega is
    sum_t m_t (f x^t - c/(t_0 + 1) f_x0 x^(t + e_0)) vol.  ``f_terms`` and
    ``fx0_terms`` are the integer terms of s f and s f_x0 for one s > 0;
    the rational weights m_t and m_t c/(t_0 + 1) are brought to one
    common denominator, c.denominator times the lcm of the
    m_t.denominator (t_0 + 1), so every coefficient is an integer shift
    sum."""
    c_num, c_den = coefficient.numerator, coefficient.denominator
    denominators = [
        (t, m_t, m_t.denominator * c_den * (t[0] + 1)) for t, m_t in m.terms.items()
    ]
    common = lcm(*(d for _, _, d in denominators))
    out: dict[Exponents, int] = {}
    for t, m_t, d in denominators:
        vec_axpy(out, m_t.numerator * (common // m_t.denominator), shifted_terms(f_terms, t))
        vec_axpy(
            out,
            -m_t.numerator * c_num * (common // d),
            shifted_terms(fx0_terms, (t[0] + 1,) + t[1:]),
        )
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
    variables = curve.variables
    f = curve.expand()
    if jet_order < f.total_degree() + 2:
        raise InconclusiveError(
            "window too small for the torsion-free witness",
            jet_order=jet_order,
            needed=f.total_degree() + 2,
        )
    # d(x^h alpha) and df ^ d(x^g) as integer exponent shifts: each map
    # scales all its images by one positive integer, which changes no span
    [(_, exact_image)] = _exact_form_images(annihilator_form(curve))
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
    f_x, f_y = (f.derivative(v) for v in variables)
    wedge_image = _ShiftedImages((-f_y, f_x), Poly.zero(variables))
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


# -- closed multiples of the annihilator form -----------------------------------


def closed_form_witness(curve: FactoredCurve) -> Optional[Poly]:
    """Closed multiple h0 of alpha, for curves with constant residual.

    When the multiplicities share a common divisor D > 1, the product
    h0 = prod u_i^(p_i/D - 1) satisfies d(h0 alpha) = 0 exactly and is
    returned.  When gcd = 1 no product of powers of the u_i below the
    multiplicities, other than the cofactor of df itself, is a closed
    multiple, and None is returned.
    """
    if not curve.residual_is_constant:
        raise InputError("the closed-form witness applies to constant residuals only")
    common = gcd(*(p for _, p in curve.factors))
    if common == 1:
        return None
    h0 = Poly.constant(curve.variables, 1)
    for u, p in curve.factors:
        h0 = h0 * u ** (p // common - 1)
    if not (annihilator_form(curve) * h0).d().is_zero:
        raise RuntimeError("internal invariant violation: predicted witness is not closed")
    return h0
