"""Exact invariants of plane-curve singularities and their suspensions.

The package computes, in exact rational arithmetic: the saturated
Jacobian ideal and the invariant mu, the twisted De Rham quotient nu,
the rank mu + nu of the associated (a,b)-module with its monomial basis
and a-action, Thom-Sebastiani suspension transport, and a truncated
(a,b)-module algebra with tensor products and regularity checks.
"""

__version__ = "0.1.0"

from .ab_module import (
    ABModule,
    OperatorWord,
    check_commutation,
    factorial_identity_holds,
    is_regular,
    is_simple_pole,
    normal_order,
    tensor,
)
from .curve import (
    FactoredCurve,
    InvariantReport,
    annihilator_field,
    annihilator_form,
    check_hypotheses,
    closed_form_witness,
    invariants,
    torsion_free_witness,
)
from .errors import BrieskornError, InconclusiveError, InputError, ParseError
from .forms import DiffForm, VectorField, field_from_one_form
from .groebner import torsion_length
from .local_algebra import (
    IdealGens,
    jacobian_ideal,
    local_colength,
    local_quotient,
    twisted_quotient_dim,
)
from .poly import Poly, WeightSystem, parse_polynomial
from .suspension import (
    IsolatedGerm,
    SuspensionReport,
    milnor_isolated,
    suspend,
    verify_suspension_direct,
)

__all__ = [
    "ABModule",
    "BrieskornError",
    "DiffForm",
    "FactoredCurve",
    "IdealGens",
    "InconclusiveError",
    "InputError",
    "InvariantReport",
    "IsolatedGerm",
    "OperatorWord",
    "ParseError",
    "Poly",
    "SuspensionReport",
    "VectorField",
    "WeightSystem",
    "annihilator_field",
    "annihilator_form",
    "check_commutation",
    "check_hypotheses",
    "closed_form_witness",
    "factorial_identity_holds",
    "field_from_one_form",
    "invariants",
    "is_regular",
    "is_simple_pole",
    "jacobian_ideal",
    "local_colength",
    "local_quotient",
    "milnor_isolated",
    "normal_order",
    "parse_polynomial",
    "suspend",
    "tensor",
    "torsion_free_witness",
    "torsion_length",
    "twisted_quotient_dim",
    "verify_suspension_direct",
]
