"""Differential forms with polynomial coefficients and their exterior
derivative, plus polynomial vector fields and the field dual to a 1-form
in two variables.

Index tuples selecting dx_{i1} ^ ... ^ dx_{ip} are stored strictly
increasing; user-supplied permuted tuples are normalized with the sign of
the permutation, so every form has a unique representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import InputError
from .poly import Poly, Scalar, exact_scalar


def _normalize_indices(indices: Sequence[int], n_vars: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Returns (None, 0) when an index repeats (the wedge monomial vanishes).
    """
    idx = list(indices)
    for i in idx:
        if not 0 <= i < n_vars:
            raise InputError(f"form index {i} out of range for {n_vars} variables")
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class DiffForm:
    """Immutable differential p-form with Poly coefficients."""

    __slots__ = ("variables", "degree", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        degree: int,
        terms: Mapping[Sequence[int], Poly],
    ):
        variables = tuple(variables)
        if degree < 0 or degree > len(variables):
            raise InputError(f"form degree {degree} out of range")
        clean: dict[tuple[int, ...], Poly] = {}
        for indices, coeff in terms.items():
            if len(indices) != degree:
                raise InputError(
                    f"index tuple {tuple(indices)!r} does not have length {degree}"
                )
            if coeff.variables != variables:
                raise InputError("form coefficient lives in a different ring")
            key, sign = _normalize_indices(indices, len(variables))
            if key is None or coeff.is_zero:
                continue
            signed = coeff if sign == 1 else -coeff
            if key in clean:
                merged = clean[key] + signed
                if merged.is_zero:
                    del clean[key]
                else:
                    clean[key] = merged
            else:
                clean[key] = signed
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("DiffForm is immutable")

    @classmethod
    def zero(cls, variables: Sequence[str], degree: int) -> "DiffForm":
        return cls(variables, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Poly:
        key, sign = _normalize_indices(indices, len(self.variables))
        coeff = self.terms.get(key)  # a None key (a repeated index) is never stored
        if coeff is None:
            return Poly.zero(self.variables)
        return coeff if sign == 1 else -coeff

    def _check(self, other: "DiffForm") -> None:
        if self.variables != other.variables:
            raise InputError("forms live over different rings")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        if self.degree != other.degree:
            raise InputError("cannot add forms of different degrees")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Poly.zero(self.variables)) + coeff
        return DiffForm(self.variables, self.degree, out)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __neg__(self) -> "DiffForm":
        return DiffForm(
            self.variables, self.degree, {k: -c for k, c in self.terms.items()}
        )

    def __mul__(self, other: Union[Poly, Scalar]) -> "DiffForm":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.variables, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return DiffForm(
            self.variables, self.degree, {k: c * other for k, c in self.terms.items()}
        )

    def __rmul__(self, other: Union[Poly, Scalar]) -> "DiffForm":
        return self.__mul__(other)

    def d(self) -> "DiffForm":
        """Exterior derivative; satisfies d(d(w)) = 0."""
        n = len(self.variables)
        if self.degree >= n:
            return DiffForm.zero(self.variables, min(self.degree + 1, n))
        accum: dict[tuple[int, ...], Poly] = {}
        for key, coeff in self.terms.items():
            for i, name in enumerate(self.variables):
                partial = coeff.derivative(name)
                if partial.is_zero:
                    continue
                new_key, sign = _normalize_indices((i,) + key, n)
                if new_key is None:
                    continue
                piece = partial if sign == 1 else -partial
                if new_key in accum:
                    accum[new_key] = accum[new_key] + piece
                else:
                    accum[new_key] = piece
        return DiffForm(self.variables, self.degree + 1, accum)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            basis = "^".join(f"d{self.variables[i]}" for i in key) or "1"
            pieces.append(f"({self.terms[key]}) {basis}".strip())
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"DiffForm({str(self)!r})"

class VectorField:
    """Polynomial vector field V = sum_i a_i d/dx_i."""

    __slots__ = ("variables", "coefficients")

    def __init__(self, variables: Sequence[str], coefficients: Sequence[Poly]):
        variables = tuple(variables)
        coefficients = tuple(coefficients)
        if len(coefficients) != len(variables):
            raise InputError("coefficient count must equal variable count")
        for c in coefficients:
            if c.variables != variables:
                raise InputError("vector field coefficient lives in a different ring")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "VectorField":
        variables = tuple(variables)
        return cls(variables, tuple(Poly.zero(variables) for _ in variables))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.variables == other.variables and self.coefficients == other.coefficients

    def __mul__(self, scalar: Scalar) -> "VectorField":
        s = exact_scalar(scalar)
        return VectorField(self.variables, tuple(c * s for c in self.coefficients))

    __rmul__ = __mul__

    def __str__(self) -> str:
        pieces = [
            f"({c}) d/d{name}"
            for name, c in zip(self.variables, self.coefficients)
            if not c.is_zero
        ]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"VectorField({str(self)!r})"


def field_from_one_form(form: DiffForm) -> VectorField:
    """The vector field of a 1-form in two variables:
    A dx + B dy corresponds to B d/dx - A d/dy."""
    if len(form.variables) != 2 or form.degree != 1:
        raise InputError("field_from_one_form expects a 1-form in two variables")
    a = form.coefficient((0,))
    b = form.coefficient((1,))
    return VectorField(form.variables, (b, -a))
