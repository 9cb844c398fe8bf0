"""Desk-scale differential forms: the test-side reference for the form
operators of ``brieskorn.forms``.

The package keeps a 1-form or a vector field as its coefficient tuple and
builds only the operators x^h -> d(x^h dx_I ^ alpha).  This model keeps
p-forms of any degree, with the exterior derivative and the wedge product,
so the tests can check those operators, and the identities behind them,
against a direct computation.  Index tuples selecting
dx_(i1) ^ ... ^ dx_(ip) are stored strictly increasing; a permuted tuple
is sorted with the sign of its permutation, and a repeated index
vanishes.  A vector field is its coefficient tuple, as in the package.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from brieskorn.forms import exact_form_images
from brieskorn.local_algebra import _ShiftedImages
from brieskorn.poly import Poly


def sorted_indices(indices: Sequence[int]) -> tuple[Optional[tuple[int, ...]], int]:
    """(sorted tuple, sign of the sorting permutation); (None, 0) when an
    index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):  # insertion sort, counting swaps
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    if len(set(idx)) < len(idx):
        return None, 0
    return tuple(idx), sign


class DiffForm:
    """A p-form sum_I c_I dx_I with Poly coefficients."""

    def __init__(self, variables: Sequence[str], degree: int, terms: Mapping[Sequence[int], Poly]):
        self.variables, self.degree = tuple(variables), degree
        self.terms: dict[tuple[int, ...], Poly] = {}
        for indices, coeff in terms.items():
            assert len(indices) == degree and coeff.variables == self.variables
            key, sign = sorted_indices(indices)
            if key is not None:
                self.terms[key] = self.coefficient(key) + (coeff if sign == 1 else -coeff)
        self.terms = {key: c for key, c in self.terms.items() if not c.is_zero}

    @classmethod
    def zero(cls, variables: Sequence[str], degree: int) -> "DiffForm":
        return cls(variables, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Poly:
        key, sign = sorted_indices(indices)
        coeff = self.terms.get(key, Poly.zero(self.variables))
        return coeff if sign == 1 else -coeff

    def __eq__(self, other) -> bool:
        return (self.variables, self.degree, self.terms) == (
            other.variables,
            other.degree,
            other.terms,
        )

    def __add__(self, other: "DiffForm") -> "DiffForm":
        assert (self.variables, self.degree) == (other.variables, other.degree)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = self.coefficient(key) + coeff
        return DiffForm(self.variables, self.degree, out)

    def __mul__(self, factor: Poly) -> "DiffForm":
        return DiffForm(
            self.variables, self.degree, {k: c * factor for k, c in self.terms.items()}
        )

    def d(self) -> "DiffForm":
        """Exterior derivative: d(c dx_I) = sum_i d_i c dx_i ^ dx_I."""
        out = DiffForm.zero(self.variables, self.degree + 1)
        for key, coeff in self.terms.items():
            for i, name in enumerate(self.variables):
                out = out + DiffForm(
                    self.variables, self.degree + 1, {(i,) + key: coeff.derivative(name)}
                )
        return out


def wedge(first: DiffForm, second: DiffForm) -> DiffForm:
    """Graded-antisymmetric exterior product."""
    out = DiffForm.zero(first.variables, first.degree + second.degree)
    for k1, c1 in first.terms.items():
        for k2, c2 in second.terms.items():
            out = out + DiffForm(first.variables, out.degree, {k1 + k2: c1 * c2})
    return out


def one_form(coefficients: Sequence[Poly]) -> DiffForm:
    """The 1-form sum_i c_i dx_i of a coefficient tuple, such as the
    ``annihilator_form`` of a curve."""
    return DiffForm(coefficients[0].variables, 1, {(i,): c for i, c in enumerate(coefficients)})


def gradient(f: Poly) -> tuple[Poly, ...]:
    """The coefficients of df, the alpha of an isolated germ."""
    return tuple(f.derivative(v) for v in f.variables)


def exterior_d(f: Poly) -> DiffForm:
    """The 1-form df."""
    return one_form(gradient(f))


def divergence(field: Sequence[Poly]) -> Poly:
    """Sum of the partials of the coefficients."""
    total = Poly.zero(field[0].variables)
    for name, coeff in zip(field[0].variables, field):
        total = total + coeff.derivative(name)
    return total


def apply_field(field: Sequence[Poly], h: Poly) -> Poly:
    """Directional derivative V . h."""
    total = Poly.zero(h.variables)
    for name, coeff in zip(h.variables, field):
        total = total + coeff * h.derivative(name)
    return total


def apply_twisted(field: Sequence[Poly], h: Poly) -> Poly:
    """Divergence-corrected action V.h + div(V) h, on Polys."""
    return apply_field(field, h) + divergence(field) * h


def twisted_operator(field: Sequence[Poly]) -> _ShiftedImages:
    """The operator x^m -> V~(x^m) of the field V with the coefficients
    ``field``: in two variables ``exact_form_images`` of the package, d(x^m alpha)
    for the dual form alpha = (-V_1, V_0); in more variables, where no
    1-form gives it, the exponent shifts (V, div V) themselves."""
    if len(field) == 2:
        [image] = exact_form_images((-field[1], field[0])).values()
        return image
    return _ShiftedImages(field, divergence(field))
