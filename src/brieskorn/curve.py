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
from .linalg import Span, Vec, kernel_relations, vec_axpy
from .local_algebra import (
    IdealGens,
    _ShiftedImages,
    common_denominator,
    integer_terms,
    jacobian_ideal,
    jet_key_order,
    local_quotient,
    monomials_below,
    monomials_of_weighted_degree,
    shifted_terms,
    shifted_vec,
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
    jet_cap: int = 24,
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
            (Poly(curve.variables, shifted_vec(h, e)) for e in mu_basis),
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
        action = a_action(curve, ws, basis_mu + basis_nu, alpha=alpha)
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
    number and intersection number is a colength certified by
    ``local_quotient`` (its graded scan with ``ws``)."""
    parts = list(curve.factors)
    if not curve.residual_is_constant:
        parts.append((curve.residual, 1))
    chi = 0
    for g, m in parts:
        jacobian = jacobian_ideal(g)
        milnor = 0 if jacobian.contains_unit() else local_quotient(jacobian, ws)[0]
        chi += m * (1 - milnor)
    for (g, m), (g2, m2) in combinations(parts, 2):
        # (g_i . g_j)_0 enters the sums of both i and j
        meet = local_quotient(IdealGens.of(curve.variables, [g, g2]), ws)[0]
        chi -= (m + m2) * meet
    return gcd(*(m for _, m in parts)) - chi


# -- the a-action and its oracle ----------------------------------------------


def _basis_sort_key(p: Poly):
    """Listing order keyed on the lowest term (for monomials, the monomial)."""
    return listing_key(min(p.terms, key=graded_key))


def a_action_coefficient(ws: WeightSystem, rep: Poly) -> Fraction:
    """Predicted coefficient c with  a[m] = c b[m]:
    (weighted degree of m + sum of the weights) / total degree."""
    degree = rep.quasi_homogeneous_degree(ws.weights)
    if degree is None:
        raise InputError(f"basis representative {rep} is not quasi-homogeneous")
    return (degree + sum(ws.weights, Fraction(0))) / ws.total_degree


def a_action(
    curve: FactoredCurve,
    ws: WeightSystem,
    basis: Sequence[Poly],
    alpha: Optional[DiffForm] = None,
) -> tuple[tuple[Poly, Fraction], ...]:
    """a-action coefficients on the given basis classes, each verified by
    the membership oracle before inclusion.  One oracle serves the whole
    basis, so representatives of one weighted degree share its span;
    ``alpha`` is the annihilator form when the caller has built it."""
    if alpha is None:
        alpha = annihilator_form(curve)
    holds = _action_oracle(curve.expand(), alpha, ws)
    out = []
    for rep in basis:
        coefficient = a_action_coefficient(ws, rep)
        if not holds(rep, coefficient):
            raise InputError(f"a-action verification failed on monomial {rep}")
        out.append((rep, coefficient))
    return tuple(out)


def verify_a_action(
    curve: FactoredCurve,
    rep,
    coefficient: Fraction,
    ws: Optional[WeightSystem] = None,
) -> bool:
    """Independent oracle for  a[m] = c b[m]  on a curve: the membership
    test of ``action_relation_holds`` with the annihilator form as alpha."""
    if ws is None:
        raise InputError("the a-action oracle needs a weight certificate")
    m_poly = rep if isinstance(rep, Poly) else Poly.monomial(curve.variables, rep)
    return action_relation_holds(
        curve.expand(), annihilator_form(curve), ws, m_poly, coefficient
    )


def action_relation_holds(
    f: Poly,
    alpha: DiffForm,
    ws: WeightSystem,
    m: Poly,
    coefficient: Fraction,
) -> bool:
    """Membership oracle for  a[m] = c b[m]  in n variables.

    With a acting as multiplication by f and b as df wedge a primitive,
    the claim is that  f m vol - c df ^ xi  lies in the span of the exact
    forms d(eta ^ alpha) over monomial (n-2)-forms eta, where xi is an
    explicit primitive of m vol and alpha is the annihilator form of a
    curve or df itself for an isolated germ (then d(eta ^ df) = +-df ^
    d(eta)).  With one variable there is no eta and the claim is a
    polynomial identity.  For quasi-homogeneous f only the eta of one
    weighted degree can contribute, so the test is a finite exact solve.
    """
    return _action_oracle(f, alpha, ws)(m, coefficient)


def _exact_form_images(
    alpha: DiffForm,
) -> list[tuple[tuple[int, ...], _ShiftedImages]]:
    """For each index set I of n - 2 variables, the map from x^h to the top
    coefficient of d(x^h dx_I ^ alpha).  By the Leibniz rule that form is
    sum_k h_k x^(h - e_k) dx_k ^ dx_I ^ alpha + x^h d(dx_I ^ alpha), affine
    in h, so its operator is read off alpha once per index set."""
    variables = alpha.variables
    n = len(variables)
    top_key = tuple(range(n))
    one = Poly.constant(variables, 1)
    out = []
    for index_set in combinations(range(n), n - 2) if n > 1 else ():
        dx_alpha = DiffForm(variables, n - 2, {index_set: one}).wedge(alpha)
        parts = [
            DiffForm(variables, 1, {(k,): one}).wedge(dx_alpha).coefficient(top_key)
            for k in range(n)
        ]
        extra = dx_alpha.d().coefficient(top_key)
        out.append((index_set, _ShiftedImages(parts, extra)))
    return out


def _action_oracle(
    f: Poly, alpha: DiffForm, ws: WeightSystem
) -> Callable[[Poly, Fraction], bool]:
    """The test of ``action_relation_holds`` for one (f, alpha), as a
    function of (m, c).

    The exact forms d(eta ^ alpha), eta = x^h dx_I, are integer exponent
    shifts (``_exact_form_images``) whose operators come from alpha alone,
    never from the slices of the nu scan.  The span of the d(eta ^ alpha) of
    one eta weighted degree is built when a representative first needs it
    and reused for every later representative of that degree."""
    variables = f.variables
    n = len(variables)
    int_weights, scale = ws.integer_scaled()
    images = [
        (sum(int_weights[j] for j in index_set), image)
        for index_set, image in _exact_form_images(alpha)
    ]
    # weighted degree bookkeeping: d(eta ^ alpha) matches omega exactly when
    # w(eta) = w(omega as a form) - w(alpha as a form)
    alpha_degree = _form_weighted_degree(alpha, ws.weights)
    # s f and s f_x0 as integer terms, for one s > 0 (f_x0 has no new
    # denominators)
    scale_f = common_denominator(f)
    f_terms = integer_terms(f, scale_f)
    fx0_terms = integer_terms(f.derivative(variables[0]), scale_f)
    spans: dict[int, Span] = {}

    def eta_span(eta_degree: int) -> Span:
        span = Span(jet_key_order)
        for index_degree, image in images:
            for h_exp in monomials_of_weighted_degree(
                n, int_weights, eta_degree - index_degree
            ):
                vec = image(h_exp)
                if vec:
                    span.insert(vec)
        return span

    def holds(m: Poly, coefficient: Fraction) -> bool:
        target = _action_target(f_terms, fx0_terms, m, coefficient)
        if not target:
            return True
        degrees = {sum(map(mul, e, int_weights)) for e in target}
        if len(degrees) != 1 or alpha_degree is None:
            raise InputError("forms are not quasi-homogeneous under the certificate")
        eta_degree = int(degrees.pop() + sum(int_weights) - alpha_degree * scale)
        if eta_degree not in spans:
            spans[eta_degree] = eta_span(eta_degree)
        return spans[eta_degree].contains(target)

    return holds


def _action_target(
    f_terms: list[tuple[Exponents, int]],
    fx0_terms: list[tuple[Exponents, int]],
    m: Poly,
    coefficient: Fraction,
) -> dict[Exponents, int]:
    """A positive integer multiple of the top coefficient of the oracle's
    form  omega = f m vol - c df ^ xi.

    With xi = (int m dx_0) dx_1 ^ ... ^ dx_(n-1), d(xi) = m vol and
    df ^ xi = f_x0 (int m dx_0) vol, so omega is
    sum_t m_t (f x^t - c/(t_0 + 1) f_x0 x^(t + e_0)) vol.  ``f_terms`` and
    ``fx0_terms`` are the integer terms of s f and s f_x0 for one s > 0;
    the rational weights m_t and m_t c/(t_0 + 1) are brought to one
    common denominator, so every coefficient is an integer shift sum."""
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


def _form_weighted_degree(form: DiffForm, weights) -> Optional[Fraction]:
    degrees = set()
    for key, coeff in form.terms.items():
        d = coeff.quasi_homogeneous_degree(weights)
        if d is None:
            return None
        degrees.add(d + sum((weights[i] for i in key), Fraction(0)))
    if len(degrees) != 1:
        return None
    return degrees.pop()


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
    # and no kernel relation
    [(_, exact_image)] = _exact_form_images(annihilator_form(curve))
    exact_vectors = {}
    for h_exp in monomials_below(2, jet_order + 1):
        vec = exact_image(h_exp)
        if vec:
            exact_vectors[h_exp] = vec
    bound = max((sum(e) for v in exact_vectors.values() for e in v), default=0)
    cofactor = curve.multiplicity_cofactor()
    ideal_vectors = [
        (("u", m_exp), shifted_vec(cofactor, m_exp))
        for m_exp in monomials_below(2, max(bound + 2 - cofactor.order(), 1))
    ]
    relations = kernel_relations(
        [(("w", h_exp), vec) for h_exp, vec in exact_vectors.items()] + ideal_vectors,
        key_order=jet_key_order,
    )
    intersection: list[Vec] = []
    for relation in relations:
        vec: Vec = {}
        for tag, scale in relation.items():
            if tag[0] == "w":
                vec_axpy(vec, scale, exact_vectors[tag[1]])
        if vec:
            intersection.append(vec)
    if not intersection:
        return True
    f_x, f_y = (f.derivative(v) for v in variables)
    wedge_image = _ShiftedImages((-f_y, f_x), Poly.zero(variables))
    witness_span = Span(jet_key_order)
    for g_exp in monomials_below(2, jet_order + 1):
        vec = wedge_image(g_exp)
        if vec:
            witness_span.insert(vec)
    for vec in intersection:
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
    returned.  When gcd = 1 the scan over all smaller exponent patterns
    (excluding the pattern of df itself) confirms no closed product form
    exists, and None is returned.
    """
    if not curve.residual_is_constant:
        raise InputError("the closed-form witness applies to constant residuals only")
    alpha = annihilator_form(curve)
    mults = [p for _, p in curve.factors]
    common = gcd(*mults) if len(mults) > 1 else mults[0]
    if common > 1:
        h0 = Poly.constant(curve.variables, 1)
        for u, p in curve.factors:
            h0 = h0 * u ** (p // common - 1)
        if not (alpha * h0).d().is_zero:
            raise RuntimeError(
                "internal invariant violation: predicted witness is not closed"
            )
        return h0
    # gcd = 1: exhaustive scan, excluding the exponents of df / alpha
    def scan(idx: int, exps: list[int]):
        if idx == len(curve.factors):
            if all(e == p - 1 for e, (_, p) in zip(exps, curve.factors)):
                return  # this is df itself, closed for trivial reasons
            h = Poly.constant(curve.variables, 1)
            for (u, _), e in zip(curve.factors, exps):
                h = h * u**e
            if (alpha * h).d().is_zero:
                raise RuntimeError(
                    "internal invariant violation: unexpected closed product form "
                    f"at exponents {tuple(exps)}"
                )
            return
        for e in range(curve.factors[idx][1]):
            scan(idx + 1, exps + [e])

    scan(0, [])
    return None


# -- transversal Milnor numbers --------------------------------------------------


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
        raise InputError(
            f"degenerate slice: branch {u} is singular along a curve"
        )
    valuation = curve.expand().valuation(u)
    if valuation < 2:
        raise InputError(
            f"degenerate slice: f has valuation {valuation} < 2 along {u}"
        )
    return valuation - 1
