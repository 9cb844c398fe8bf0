"""Thom-Sebastiani suspensions  F(x, y) = f(x) + g(y)  of an isolated
singularity f with a plane curve g.

The invariants transport multiplicatively: the Milnor number of f scales
mu, nu and the rank of the curve's module, and when both factors carry
verified a-action data the suspended module is the tensor product, with
the action coefficients adding on basis pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .ab_module import DEFAULT_TRUNC_ORDER, ABModule, tensor
from .curve import FactoredCurve, InvariantReport, a_action, basis_payload
from .errors import InputError
from .forms import exact_form_images
from .linalg import Span
from .groebner import isolated_at_origin, torsion_length
from .local_algebra import jacobian_ideal, local_quotient
from .poly import Poly, WeightSystem, format_fraction, listing_key


class IsolatedGerm(NamedTuple):
    """An isolated singularity, its text ``f``, its Milnor number, its basis
    monomials by ``listing_key`` and an optional weight certificate carrying
    verified a-action coefficients, listed as ``basis`` is."""

    poly: Poly
    milnor: int
    basis: tuple[Poly, ...]
    weights: Optional[WeightSystem]
    a_action: Optional[tuple[tuple[Poly, Fraction], ...]]
    f: str

    @property
    def variables(self) -> tuple[str, ...]:
        return self.poly.variables

    def to_dict(self) -> dict:
        basis, action = basis_payload(self.basis, self.a_action)
        return {
            "f": self.f,
            "variables": list(self.variables),
            "milnor": self.milnor,
            "basis": basis,
            "weights": None
            if self.weights is None
            else [format_fraction(w) for w in self.weights.weights],
            "a_action": action,
        }


def _auto_weights(f: Poly) -> Optional[tuple[Fraction, ...]]:
    """Positive weights making f quasi-homogeneous of degree 1, if any.

    Row-reduces the rows [exponents | 1] (column n is the constant) to an
    echelon and back-substitutes from the highest pivot down; free
    variables (possible when the system is underdetermined) default to
    1/deg(f).
    """
    n = len(f.variables)
    span = Span()
    for exps in f.terms:
        row = {i: e for i, e in enumerate(exps) if e}
        row[n] = 1
        span.insert(row)
    if n in span.rows:
        return None  # inconsistent: not quasi-homogeneous at all
    weights = [Fraction(1, max(f.total_degree(), 1))] * n
    for pivot, row in sorted(span.rows.items(), reverse=True):
        rest = sum(v * weights[k] for k, v in row.items() if k not in (pivot, n))
        weights[pivot] = Fraction(row.get(n, 0) - rest, row[pivot])
    if any(w <= 0 for w in weights):
        return None
    if f.quasi_homogeneous_degree(tuple(weights)) != 1:
        return None
    return tuple(weights)


def milnor_isolated(f: Poly) -> IsolatedGerm:
    """Milnor number and monomial basis of an isolated singularity.

    Smooth germs are rejected, and so are non-isolated critical points,
    decided exactly (``groebner.isolated_at_origin``); mu, the colength of
    J, and its greedy monomial basis come from ``local_quotient``'s jet
    scan, which stops by Nakayama's lemma.  When f is quasi-homogeneous
    (``_auto_weights``), a-action coefficients are attached after
    ``curve.a_action`` proves them under those weights, with alpha = df and h = 1.
    """
    if f.is_zero or f.is_constant():
        raise InputError("an isolated germ must be nonconstant")
    if f.constant_value() != 0:
        raise InputError("an isolated germ must vanish at the origin")
    J = jacobian_ideal(f)
    if not isolated_at_origin(J):
        raise InputError(
            f"infinite colength: {f} does not have an isolated critical point"
        )
    value, found = local_quotient(J)
    if value == 0:
        raise InputError(f"smooth germ rejected: {f} has Milnor number 0")
    basis = tuple(Poly.monomial(f.variables, e) for e in sorted(found, key=listing_key))
    detected = _auto_weights(f)
    ws = None if detected is None else WeightSystem(detected, 1)
    action = None
    if ws is not None:
        df = tuple(f.derivative(v) for v in f.variables)
        one = Poly.constant(f.variables, 1)
        action = a_action(f, df[0], one, exact_form_images(df), ws, basis)
    return IsolatedGerm(poly=f, milnor=value, basis=basis, weights=ws, a_action=action, f=str(f))


class SuspensionReport(NamedTuple):
    germ: IsolatedGerm
    curve_report: InvariantReport
    mu: int
    nu: int
    rank: int
    ab_model: Optional[ABModule]
    basis_pairs: tuple[tuple[Poly, Poly], ...]
    provenance: tuple[str, ...]

    def to_dict(self) -> dict:
        # with the germ's and the curve's reports, whose basis texts the
        # pairs repeat: each is printed once
        isolated, curve = self.germ.to_dict(), self.curve_report.to_dict()
        pairs = zip(self.germ.basis + self.curve_report.basis, isolated["basis"] + curve["basis"])
        text = {id(m): t for m, t in pairs}
        return {
            "F": f"({self.germ.f}) + ({self.curve_report.f})",
            "mu": self.mu,
            "nu": self.nu,
            "rank": self.rank,
            "basis_pairs": [
                {"isolated": text[id(a)], "curve": text[id(b)]} for a, b in self.basis_pairs
            ],
            "ab_model": self.ab_model,  # cli._json writes it, to_record() is its dict
            "provenance": list(self.provenance),
            "isolated": isolated,
            "curve": curve,
        }


def suspend(
    germ: IsolatedGerm,
    curve_report: InvariantReport,
    trunc_order: int = DEFAULT_TRUNC_ORDER,
) -> SuspensionReport:
    """Transport invariants through the suspension isomorphism.

    Requires the curve report to carry the torsion-free flag (the
    transport is an isomorphism of the associated modules only then).
    The suspended module is the tensor product of the two diagonal
    quasi-homogeneous models when both sides carry nonempty a-action data;
    its k-th basis vector is ``basis_pairs[k]``.
    """
    if not curve_report.assumptions.torsion_free:
        raise InputError(
            "suspension requires the torsion-free property on the curve side"
        )
    if set(germ.variables) & set(curve_report.variables):
        raise InputError(
            "isolated and curve variables must be disjoint for a suspension"
        )
    mu_f = germ.milnor
    mu_total = mu_f * curve_report.mu
    nu_total = mu_f * curve_report.nu
    rank_total = mu_f * curve_report.rank
    provenance = [
        "mu: Milnor number of the isolated factor times curve mu",
        "nu: Milnor number of the isolated factor times curve nu",
        "rank: Milnor number of the isolated factor times curve rank",
    ]
    model: Optional[ABModule] = None
    if germ.a_action and curve_report.a_action:  # a rank-0 curve's action is ()
        left = _diagonal_module(germ.a_action, trunc_order)
        right = _diagonal_module(curve_report.a_action, trunc_order)
        model = tensor(left, right, label=f"suspension({germ.f} + {curve_report.f})")
        provenance.append(
            "ab_model: tensor of the diagonal models, action coefficients add"
        )
    return SuspensionReport(
        germ=germ,
        curve_report=curve_report,
        mu=mu_total,
        nu=nu_total,
        rank=rank_total,
        ab_model=model,
        basis_pairs=tuple((a, b) for a in germ.basis for b in curve_report.basis),
        provenance=tuple(provenance),
    )


def _diagonal_module(action: Sequence[tuple[Poly, Fraction]], trunc_order: int) -> ABModule:
    """The model a e_k = c_k b e_k of an action c_k, as the numerators of
    its few nonzero cells over the lcm of the c_k, with no dense matrix."""
    if trunc_order < 2:
        raise InputError("truncation order must be at least 2")
    scale, rank = lcm(*(c.denominator for _, c in action)), len(action)
    cells = [((0, c.numerator * (scale // c.denominator)) if c else (),) for _, c in action]
    empty = ((),) * rank
    numerators = tuple(empty[:k] + cell + empty[k + 1 :] for k, cell in enumerate(cells))
    return ABModule._trusted(rank, trunc_order, numerators, scale)


class DirectCheck(NamedTuple):
    mu_direct: int
    mu_transported: int
    agrees: bool
    exact: bool

    def to_dict(self) -> dict:
        return self._asdict()


def verify_suspension_direct(
    germ: IsolatedGerm,
    curve: FactoredCurve,
    curve_report: InvariantReport,
) -> DirectCheck:
    """Cross-check the transported mu by a direct computation in the
    joined ring: mu of F = f + g is dim (J : m^inf) / J for the Jacobian
    ideal J of F, counted from two reduced Groebner bases
    (``groebner.torsion_length``).  The count is exact on every input and
    reads no weights and no cap.  Desk scale only (at most three
    variables)."""
    joined = germ.variables + curve.variables
    if len(set(joined)) != len(joined):
        raise InputError("isolated and curve variables must be disjoint")
    if len(joined) > 3:
        raise InputError("direct verification is limited to three variables")
    f_side = germ.poly.substitute(
        {v: Poly.variable(joined, v) for v in germ.variables}
    )
    g_side = curve.expand().substitute(
        {v: Poly.variable(joined, v) for v in curve.variables}
    )
    mu_direct = torsion_length(jacobian_ideal(f_side + g_side))
    transported = germ.milnor * curve_report.mu
    return DirectCheck(
        mu_direct=mu_direct,
        mu_transported=transported,
        agrees=mu_direct == transported,
        exact=True,
    )
