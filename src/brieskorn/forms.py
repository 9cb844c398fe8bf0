"""How a 1-form or a vector field acts on monomials.

A 1-form sum_i a_i dx_i is its coefficient tuple (a_0, ..., a_(n-1)),
and so is a vector field sum_i V_i d/dx_i.  The one operator family the
package scans, x^h -> d(x^h dx_I ^ alpha), is built here
(``exact_form_images``); in two variables it is the twisted action of
the field dual to alpha.
"""

from __future__ import annotations

from itertools import combinations

from .local_algebra import _ShiftedImages
from .poly import Poly

DiffForm = VectorField = tuple[Poly, ...]

# index set I of n - 2 variables -> the operator x^h -> d(x^h dx_I ^ alpha)
ExactFormImages = dict[tuple[int, ...], _ShiftedImages]


def exact_form_images(alpha: DiffForm) -> ExactFormImages:
    """For each index set I of n - 2 variables, the map from x^h to the top
    coefficient of d(x^h dx_I ^ alpha), for the 1-form alpha with the
    coefficients ``alpha``.  By the Leibniz rule that form is
    sum_k h_k x^(h - e_k) dx_k ^ dx_I ^ alpha + x^h d(dx_I ^ alpha), affine
    in h, so its operator is read off alpha once per index set.

    With {p < q} the complement of I and s the sign of the sequence
    (p, I, q), only the a_p dx_p and a_q dx_q of alpha survive the wedge
    with dx_I: dx_p ^ dx_I ^ alpha = s a_q vol, dx_q ^ dx_I ^ alpha =
    -s a_p vol, every other dx_k ^ dx_I ^ alpha = 0, and
    d(dx_I ^ alpha) = s (d_p a_q - d_q a_p) vol.  In two variables the one
    operator, I = (), is the twisted action V~(x^h) = V.x^h + div(V) x^h
    of the dual field V = (a_1, -a_0)."""
    variables = alpha[0].variables
    n = len(variables)
    zero = Poly.zero(variables)
    out = {}
    for index_set in combinations(range(n), n - 2) if n > 1 else ():
        p, q = (k for k in range(n) if k not in index_set)
        sequence = (p, *index_set, q)
        a_p, a_q = alpha[p], alpha[q]
        extra = a_q.derivative(variables[p]) - a_p.derivative(variables[q])
        parts = [zero] * n
        if sum(a > b for a, b in combinations(sequence, 2)) % 2:
            parts[p], parts[q], extra = -a_q, a_p, -extra
        else:
            parts[p], parts[q] = a_q, -a_p
        out[index_set] = _ShiftedImages(parts, extra)
    return out
