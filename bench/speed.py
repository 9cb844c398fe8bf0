"""Host-speed normalisation for wall times.

On a shared host a fixed pure-Python computation can run 1.5 times slower
for tens of seconds at a time, in step with the program, so raw wall times
drift far beyond any useful regression bound.  The benchmark therefore
times a fixed stdlib kernel next to every measurement and scales each wall
time to the speed at which the kernel takes ``NOMINAL_KERNEL_S``:

    scaled = raw * NOMINAL_KERNEL_S / (kernel time measured around it)

The kernel is sparse rational row reduction on dict vectors, the same kind
of interpreter work as the program's hot path, but it keeps rationals as
int pairs so that the layer trace (which wraps ``Fraction``) does not slow
it.  The program never runs it, so a change to the program cannot change
the yardstick.
"""

from __future__ import annotations

import statistics
from math import gcd
from time import perf_counter

NOMINAL_KERNEL_S = 0.0015
WINDOW = 10  # kernel samples on each side of a call that set its local speed


def _rational(num: int, den: int) -> tuple[int, int]:
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def speed_kernel() -> int:
    """Sparse row reduction of 39 rows over the rationals, kept as reduced
    (numerator, denominator) pairs; fixed work, stdlib only."""
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    for i in range(1, 40):
        vector = {
            j: _rational((i * j) % 7 - 3, (i + j) % 5 + 1)
            for j in range(i % 5, 30, 2)
            if (i * j) % 7 != 3
        }
        for key in sorted(vector):
            row = rows.get(key)
            coeff = vector.get(key)
            if row is None or coeff is None:
                continue
            (cn, cd) = coeff
            for k, (xn, xd) in row.items():
                an, ad = vector.get(k, (0, 1))
                value = _rational(an * cd * xd - cn * xn * ad, ad * cd * xd)
                if value[0]:
                    vector[k] = value
                else:
                    vector.pop(k, None)
        if vector:
            pivot = min(vector)
            pn, pd = vector[pivot]
            rows[pivot] = {k: _rational(xn * pd, xd * pn) for k, (xn, xd) in vector.items()}
    return len(rows)


def kernel_seconds() -> float:
    start = perf_counter()
    speed_kernel()
    return perf_counter() - start


def kernel_samples(count: int = 3) -> list[float]:
    return [kernel_seconds() for _ in range(count)]


def scale(raw: float, kernels: list[float]) -> float:
    """``raw`` seconds at nominal speed, given kernel times measured around it."""
    return raw * NOMINAL_KERNEL_S / statistics.median(kernels)


def scale_series(raw: list[float], kernels: list[float]) -> list[float]:
    """Scale each of a sequence of timings by the median of the kernel samples
    taken within ``WINDOW`` positions of it (``kernels[i]`` follows ``raw[i]``)."""
    return [
        scale(value, kernels[max(0, i - WINDOW): i + WINDOW + 1])
        for i, value in enumerate(raw)
    ]
