"""Thom-Sebastiani suspensions  F(x, y) = f(x) + g(y)  of an isolated
singularity f with a plane curve g.

The invariants transport multiplicatively: the Milnor number of f scales
mu, nu and the rank of the curve's module, and when both factors carry
verified a-action data the suspended module is the tensor product, with
the action coefficients adding on basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ab_module import DEFAULT_TRUNC_ORDER, ABModule, tensor
from .curve import FactoredCurve, InvariantReport, a_action
from .errors import InputError
from .forms import DiffForm
from .linalg import Span
from .groebner import isolated_at_origin, torsion_length
from .local_algebra import jacobian_ideal, local_quotient
from .poly import Exponents, Poly, WeightSystem, format_fraction, listing_key


@dataclass(frozen=True)
class IsolatedGerm:
    """An isolated singularity with its Milnor data and optional weight
    certificate carrying verified a-action coefficients."""

    poly: Poly
    milnor: int
    basis: tuple[Exponents, ...]
    weights: Optional[WeightSystem]
    a_coefficients: Optional[tuple[tuple[Exponents, Fraction], ...]]

    @property
    def variables(self) -> tuple[str, ...]:
        return self.poly.variables

    def monomial_str(self, exponents: Exponents) -> str:
        return str(Poly.monomial(self.variables, exponents))

    def to_dict(self) -> dict:
        return {
            "f": str(self.poly),
            "variables": list(self.variables),
            "milnor": self.milnor,
            "basis": [self.monomial_str(e) for e in self.basis],
            "weights": None
            if self.weights is None
            else [format_fraction(w) for w in self.weights.weights],
            "a_action": None
            if self.a_coefficients is None
            else [
                {"monomial": self.monomial_str(e), "coefficient": format_fraction(c)}
                for e, c in self.a_coefficients
            ],
        }


def _auto_weights(f: Poly) -> Optional[tuple[Fraction, ...]]:
    """Positive weights making f quasi-homogeneous of degree 1, if any.

    Row-reduces the rows [exponents | 1] (column n is the constant); free
    variables (possible when the system is underdetermined) default to
    1/deg(f).
    """
    n = len(f.variables)
    span = Span()
    for exps in f.terms:
        row = {i: e for i, e in enumerate(exps) if e}
        row[n] = 1
        span.insert(row)
    default = Fraction(1, max(f.total_degree(), 1))
    weights = [default] * n
    for row in span.row_vectors():
        pivot = min(row)
        if pivot == n:
            return None  # inconsistent: not quasi-homogeneous at all
        weights[pivot] = row.get(n, 0) - sum(
            v * default for k, v in row.items() if k not in (pivot, n)
        )
    if any(w <= 0 for w in weights):
        return None
    if f.quasi_homogeneous_degree(tuple(weights)) != 1:
        return None
    return tuple(weights)


def milnor_isolated(
    f: Poly,
    weights: Optional[Sequence[Fraction]] = None,
) -> IsolatedGerm:
    """Milnor number and monomial basis of an isolated singularity.

    Smooth germs are rejected, and so are non-isolated critical points,
    decided exactly (``groebner.isolated_at_origin``); mu, the colength of
    J, and its greedy monomial basis come from ``local_quotient``'s jet
    scan, which stops by Nakayama's lemma.  With a weight certificate
    (given or auto-detected), a-action coefficients are attached after
    ``curve.a_action`` proves them.
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
    value, basis = local_quotient(J)
    if value == 0:
        raise InputError(f"smooth germ rejected: {f} has Milnor number 0")
    ws: Optional[WeightSystem] = None
    if weights is not None:
        ws = WeightSystem.for_poly(f, weights)
    else:
        detected = _auto_weights(f)
        if detected is not None:
            ws = WeightSystem(detected, 1)
    action: Optional[tuple[tuple[Exponents, Fraction], ...]] = None
    if ws is not None:
        monomials = [Poly.monomial(f.variables, e) for e in basis]
        proved = a_action(f, DiffForm.from_poly(f).d(), ws, monomials)
        action = tuple((e, c) for e, (_, c) in zip(basis, proved))
    return IsolatedGerm(
        poly=f,
        milnor=value,
        basis=tuple(sorted(basis, key=listing_key)),
        weights=ws,
        a_coefficients=action,
    )


@dataclass(frozen=True)
class SuspensionReport:
    germ: IsolatedGerm
    curve_report: InvariantReport
    mu: int
    nu: int
    rank: int
    ab_model: Optional[ABModule]
    basis_pairs: tuple[tuple[Exponents, Poly], ...]
    provenance: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "F": f"({self.germ.poly}) + ({self.curve_report.f})",
            "mu": self.mu,
            "nu": self.nu,
            "rank": self.rank,
            "basis_pairs": [
                {
                    "isolated": self.germ.monomial_str(a),
                    "curve": str(b),
                }
                for a, b in self.basis_pairs
            ],
            "ab_model": None if self.ab_model is None else self.ab_model.to_record(),
            "provenance": list(self.provenance),
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
    quasi-homogeneous models when both sides carry a-action data.
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
    basis_pairs = tuple(
        (a, b) for a in germ.basis for b in curve_report.basis
    )
    model: Optional[ABModule] = None
    if germ.a_coefficients is not None and curve_report.a_action is not None:
        left = _diagonal_module(
            germ.a_coefficients, trunc_order, label=f"isolated({germ.poly})"
        )
        right = _diagonal_module(
            curve_report.a_action, trunc_order, label=f"curve({curve_report.f})"
        )
        model = tensor(left, right, label=f"suspension({germ.poly} + {curve_report.f})")
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
        basis_pairs=basis_pairs,
        provenance=tuple(provenance),
    )


def _diagonal_module(
    action: Sequence[tuple[Exponents, Fraction]], trunc_order: int, label: str
) -> ABModule:
    rank = len(action)
    matrix = [
        [[0, action[i][1]] if i == j else [] for j in range(rank)]
        for i in range(rank)
    ]
    return ABModule(rank, trunc_order, matrix, label=label)


@dataclass(frozen=True)
class DirectCheck:
    mu_direct: int
    mu_transported: int
    agrees: bool
    exact: bool

    def to_dict(self) -> dict:
        return {
            "mu_direct": self.mu_direct,
            "mu_transported": self.mu_transported,
            "agrees": self.agrees,
            "exact": self.exact,
        }


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
