"""Saturation by the maximal ideal through reduced Groebner bases.

A small Buchberger algorithm over Q, kept fraction-free: every polynomial
is a primitive integer ``dict`` with a positive leading coefficient, and a
reduction step multiplies by the smallest integers that cancel a term.
It uses the product and chain criteria and the normal selection strategy
(the pair with the smallest lcm first), and returns the reduced basis,
which is unique, so results are deterministic.

A monomial is stored as its own sort key, so that tuple comparison is the
monomial order and ``max`` of a polynomial is its leading monomial:

* grevlex on x_0 .. x_(n-1) is ``(deg, -e_(n-1), ..., -e_0)``, the key
  ``local_algebra._count_key`` with unit weights;
* the block order that eliminates one extra variable t puts the t-degree
  in front, ``(e_t, deg, -e_(n-1), ..., -e_0)``.

Both keys are linear in the exponents, so multiplying monomials adds keys.
A key has ``head`` leading entries that grow with the monomial (1 for
grevlex, 2 with t) followed by the negated x-exponents.

The saturation (Cox, Little, O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 4, sections 3-4) is I : m^inf = the intersection over i of
I : x_i^inf, since m^N g lies in I exactly when every x_i^N g does, up to
N.  Each colon is an elimination, I : x_i^inf = (I + (1 - t x_i)) meet
k[x], and so is each intersection, A meet B = (t A + (1 - t) B) meet k[x].

The saturation starts from the reduced grevlex basis G of I, and each
elimination continues a Groebner basis it already holds (``known``): the
lifted G for a colon, which stays a basis because the block order is grevlex
on t-free monomials, and t A, with A the reduced basis so far, for a meet.
Only S-pairs that involve a new element are formed.  A colon by x_i is
skipped when G holds a monomial power of x_i, since then I : x_i^inf = (1);
an ideal with a unit at the origin is isolated there without any basis.
"""

from __future__ import annotations

import heapq
from itertools import product
from math import gcd
from operator import add, ge, le, sub

from .linalg import _integer_vec
from .local_algebra import IdealGens, _count_key
from .poly import Exponents

_Mono = tuple[int, ...]
_Poly = dict[_Mono, int]


def _decode(mono: _Mono) -> Exponents:
    return tuple(-e for e in reversed(mono[1:]))


def _divides(a: _Mono, b: _Mono, head: int) -> bool:
    # the degree entry follows from the exponents; the t entry does not
    return (head == 1 or a[0] <= b[0]) and all(map(ge, a[head:], b[head:]))


def _lcm(a: _Mono, b: _Mono, head: int) -> _Mono:
    tail = tuple(map(min, a[head:], b[head:]))
    return (*map(max, a[: head - 1], b[: head - 1]), -sum(tail), *tail)


def _normalized(p: _Poly) -> _Poly:
    """p divided by its content, with a positive leading coefficient."""
    content = gcd(*p.values())
    if p[max(p)] < 0:
        content = -content
    if content == 1:
        return p
    return {m: c // content for m, c in p.items()}


def _add_shifted(target: _Poly, scale: int, p: _Poly, shift: _Mono) -> None:
    """target += scale * x^shift * p, dropping zeros (in place)."""
    for mono, v in p.items():
        key = tuple(map(add, mono, shift))
        acc = target.get(key, 0) + scale * v
        if acc:
            target[key] = acc
        else:
            del target[key]


def _reduce(p: _Poly, basis: list[_Poly], leads: list[_Mono], head: int) -> _Poly:
    """Full fraction-free reduction of p by the basis: a nonzero multiple
    of the remainder, normalized, or {} when p reduces to zero."""
    p = dict(p)
    rest: _Poly = {}
    while p:
        m = max(p)
        for g, lead in zip(basis, leads):
            if _divides(lead, m, head):
                break
        else:
            rest[m] = p.pop(m)
            continue
        # p := a p - c x^(m - lead) g with the smallest integers a, c
        k = gcd(p[m], g[lead])
        c, a = p[m] // k, g[lead] // k
        if a != 1:
            for target in (p, rest):
                for key in target:
                    target[key] *= a
        _add_shifted(p, -c, g, tuple(map(sub, m, lead)))
        if a != 1 and p:
            content = gcd(*p.values(), *rest.values())
            if content != 1:
                for target in (p, rest):
                    for key in target:
                        target[key] //= content
    return _normalized(rest) if rest else rest


def _s_poly(f: _Poly, g: _Poly, lf: _Mono, lg: _Mono, top: _Mono) -> _Poly:
    k = gcd(f[lf], g[lg])
    out: _Poly = {}
    _add_shifted(out, g[lg] // k, f, tuple(map(sub, top, lf)))
    _add_shifted(out, -f[lf] // k, g, tuple(map(sub, top, lg)))
    return out


def _groebner(polys: list[_Poly], head: int, known: list[_Poly] = ()) -> list[_Poly]:
    """The reduced Groebner basis of the ideal of ``known`` and ``polys``,
    each element primitive with a positive leading coefficient, sorted by
    leading monomial.  ``known`` must already be a Groebner basis: it is
    taken as it is and no pair within it is formed (each reduces to 0)."""
    basis: list[_Poly] = list(known)
    leads: list[_Mono] = [max(g) for g in known]
    queue: list[tuple[_Mono, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def add_element(p: _Poly) -> None:
        lead = max(p)
        j = len(basis)
        for i, other in enumerate(leads):
            top = _lcm(other, lead, head)
            # product criterion: coprime leading monomials
            if top != tuple(map(add, other, lead)):
                heapq.heappush(queue, (top, i, j))
                pending.add((i, j))
        basis.append(p)
        leads.append(lead)

    for p in polys:
        r = _reduce(p, basis, leads, head)
        if r:
            add_element(r)
    while queue:
        top, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        # chain criterion: some lead divides the lcm, and both of its pairs
        # with i and j are already treated
        if any(
            k != i
            and k != j
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            and _divides(lead, top, head)
            for k, lead in enumerate(leads)
        ):
            continue
        r = _reduce(_s_poly(basis[i], basis[j], leads[i], leads[j], top), basis, leads, head)
        if r:
            add_element(r)
    # minimal basis: drop every element whose lead another lead divides
    keep = [
        i
        for i, lead in enumerate(leads)
        if not any(
            _divides(other, lead, head) and (other != lead or k < i)
            for k, other in enumerate(leads)
            if k != i
        )
    ]
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        reduced.append(
            _reduce(basis[i], [basis[k] for k in others], [leads[k] for k in others], head)
        )
    return sorted(reduced, key=max)


def _eliminate(polys: list[_Poly], known: list[_Poly] = ()) -> list[_Poly]:
    """The reduced grevlex basis of (ideal of ``known`` and ``polys``) meet
    k[x], for polynomials keyed in the block order that eliminates t, with
    ``known`` a Groebner basis in that order."""
    return [
        {m[1:]: c for m, c in g.items()}
        for g in _groebner(polys, 2, known)
        if max(g)[0] == 0
    ]


def _lift(p: _Poly, t_degree: int, scale: int = 1) -> _Poly:
    """scale * t^t_degree * p, keyed in the block order."""
    return {(t_degree, *m): scale * c for m, c in p.items()}


def _saturation(basis: list[_Poly], n: int) -> list[_Poly]:
    """The reduced grevlex basis of I : m^inf, for the reduced grevlex
    basis ``basis`` of I."""
    ones = (1,) * n
    one = _count_key((0,) * n, ones)
    powers = [_decode(max(g)) for g in basis if len(g) == 1]
    lifted = [_lift(g, 0) for g in basis]
    result = None
    for i in range(n):
        if any(sum(e) == e[i] for e in powers):  # x_i^k in I: the unit ideal
            continue
        x_i = _count_key(tuple(int(j == i) for j in range(n)), ones)
        # I : x_i^inf = (I + (1 - t x_i)) meet k[x]
        colon = _eliminate([{(1, *x_i): 1, (0, *one): -1}], lifted)
        if max(colon[0])[0] == 0:  # the unit ideal
            continue
        if result is not None:
            # A meet B = (t A + (1 - t) B) meet k[x]
            colon = _eliminate(
                [{**_lift(b, 0), **_lift(b, 1, -1)} for b in colon],
                [_lift(a, 1) for a in result],
            )
        result = colon
    return result if result is not None else [{one: 1}]


def _integer_gens(I: IdealGens) -> list[_Poly]:
    ones = (1,) * len(I.variables)
    return [
        _normalized({_count_key(e, ones): c for e, c in _integer_vec(g.terms)[0].items()})
        for g in I.generators
    ]


def isolated_at_origin(I: IdealGens) -> bool:
    """True when k[x]/I has finite length at 0, i.e. no positive-dimensional
    component of V(I) passes through 0.

    If the reduced grevlex leading monomials hold a pure power of every
    variable (1 counts), V(I) is finite.  Otherwise the test is whether
    I : m^inf, the intersection of the primary components of I whose prime
    P is not m, has a generator with a nonzero constant term.  A component
    of positive dimension through 0 has P inside m, so it contains the
    saturation, which then lies in m.  If every such P misses 0, no
    component lies in the prime m, so by prime avoidance neither does
    their product, which lies in the saturation.  A generator with a
    nonzero constant term is a unit at 0, so O/I is 0 there."""
    if I.contains_unit():
        return True
    n = len(I.variables)
    basis = _groebner(_integer_gens(I), head=1)
    leads = [_decode(max(g)) for g in basis]
    if all(any(sum(e) == e[i] for e in leads) for i in range(n)):
        return True
    one = _count_key((0,) * n, (1,) * n)
    return any(one in g for g in _saturation(basis, n))


def torsion_length(I: IdealGens) -> int:
    """dim (I : m^inf) / I, the length of the m-torsion of k[x]/I.

    It is the number of monomials in LT(I : m^inf) that are not in LT(I).
    Let B_i be the largest x_i-exponent of a minimal generator of LT(I).
    If such a monomial m had e_i >= B_i, a generator dividing x_i m would
    divide m, so x_i m, x_i^2 m, ... would all lie in the difference, which
    is finite.  The count therefore runs over the box e_i < B_i.  The
    torsion is supported at 0, so this global count is the local length
    and no local order is needed."""
    n = len(I.variables)
    basis = _groebner(_integer_gens(I), head=1)
    small = [_decode(max(g)) for g in basis]
    big = [_decode(max(g)) for g in _saturation(basis, n)]
    box = [range(max(e[i] for e in small)) for i in range(n)]
    return sum(
        1
        for m in product(*box)
        if any(all(map(le, e, m)) for e in big)
        and not any(all(map(le, e, m)) for e in small)
    )
