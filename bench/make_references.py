"""Build ``bench/corpus.json``: the benchmark's inputs with independent references.

Run from the repository root (needs sympy, which the benchmark itself does
not use):

    python3 bench/make_references.py

Every curve entry gets a reference ``mu`` and, where a certified route
exists, ``nu`` and ``rank``; each value records where it came from.  No
value is taken from the program under test.

* ``mu``: under the pipeline's hypotheses sat(J) = (prod u_i^(p_i-1)), so
  mu = dim O/(a1, a2) for the coefficients of the annihilator form
  alpha = a1 dx + a2 dy.  The colength is counted from a sympy Groebner
  basis; x^mu and y^mu must reduce to zero, which shows that the ideal is
  supported only at the origin, so the global count is the local one.
* ``nu``: only for monomial curves x^a y^b (and their images under the
  volume-preserving changes x -> x + c y^k or y -> y + c x^k).  There the
  twisted action is diagonal on monomials, V~(x^p y^q) =
  (b(p+1) - a(q+1)) x^p y^q, so nu counts the monomials outside
  (x^(a-1) y^(b-1)) with eigenvalue zero.  Other curves leave nu unchecked.
* suspensions of z^k: Milnor number k - 1 of the isolated germ, and every
  invariant of the suspension is k - 1 times the curve's.

``seed_defect`` records how the program misbehaved on an input when the
benchmark was defined.  It is a ledger, not a reference: the benchmark
still counts such calls as wrong, inconclusive or crashed, and only uses
the ledger to tell a known defect from a new failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import sympy

X, Y = sympy.symbols("x y")
CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

MU_SOURCE = "colength of the annihilator-form coefficients (sympy Groebner basis)"
NU_SOURCE = "monomial curve: diagonal twisted action, closed form"
RANK_SOURCE = "mu + nu"


def expr(text: str) -> sympy.Expr:
    return sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})


def parse_factors(text: str) -> list[tuple[sympy.Expr, int]]:
    out = []
    for piece in text.split(","):
        poly_text, mult = piece.rsplit(":", 1)
        out.append((expr(poly_text), int(mult)))
    return out


def alpha_coefficients(factors, residual) -> tuple[sympy.Expr, sympy.Expr]:
    """alpha = sum_l p_l (prod_{i != l} u_i) psi du_l + (prod u_i) dpsi."""
    coeffs = []
    for var in (X, Y):
        total = sympy.Integer(0)
        for l, (u_l, p_l) in enumerate(factors):
            cofactor = sympy.Integer(p_l) * residual
            for i, (u_i, _) in enumerate(factors):
                if i != l:
                    cofactor *= u_i
            total += cofactor * sympy.diff(u_l, var)
        product = sympy.Integer(1)
        for u, _ in factors:
            product *= u
        total += product * sympy.diff(residual, var)
        coeffs.append(sympy.expand(total))
    return coeffs[0], coeffs[1]


def local_colength(generators) -> int:
    """dim Q[x, y]/I for an ideal supported only at the origin."""
    basis = sympy.groebner(list(generators), X, Y, order="grevlex")
    leads = [sympy.Poly(g, X, Y).monoms(order="grevlex")[0] for g in basis.exprs]
    x_pow = min((a for a, b in leads if b == 0), default=None)
    y_pow = min((b for a, b in leads if a == 0), default=None)
    if x_pow is None or y_pow is None:
        raise ValueError(f"ideal {generators} has infinite colength")
    count = sum(
        1
        for a in range(x_pow)
        for b in range(y_pow)
        if not any(a >= la and b >= lb for la, lb in leads)
    )
    for power in (X**count, Y**count):
        if basis.reduce(power)[1] != 0:
            raise ValueError(f"ideal {generators} has zeros away from the origin")
    return count


def monomial_nu(a: int, b: int) -> int:
    """nu of x^a y^b: monomials x^p y^q outside (x^(a-1) y^(b-1)) with
    b (p + 1) = a (q + 1)."""
    return sum(
        1
        for p in range(a + b + 2)
        for q in range(a + b + 2)
        if (p < a - 1 or q < b - 1) and b * (p + 1) == a * (q + 1)
    )


def curve_reference(spec: dict) -> dict:
    factors = parse_factors(spec["factors"])
    residual = expr(spec.get("residual") or "1")
    reference = {"mu": local_colength(alpha_coefficients(factors, residual))}
    sources = {"mu": MU_SOURCE}
    if "monomial" in spec:
        a, b = spec["monomial"]
        reference["nu"] = monomial_nu(a, b)
        reference["rank"] = reference["mu"] + reference["nu"]
        sources["nu"] = NU_SOURCE + (
            f"; coordinate change of x^{a} y^{b}" if spec.get("changed") else ""
        )
        sources["rank"] = RANK_SOURCE
    return {"reference": reference, "sources": sources}


def curve(id_, factors, residual="", weights="", family="", **extra) -> dict:
    spec = {"id": id_, "family": family, "factors": factors}
    if residual:
        spec["residual"] = residual
    if weights:
        spec["weights"] = weights
    spec.update(extra)
    return spec


def defect(outcome: str, note: str) -> dict:
    return {"seed_defect": {"outcome": outcome, "note": note}}


LINES = "line arrangement"
POWERS = "x^k (x^k + y^k)"
CUSP = "branch times cusp-type residual"
SQUARE = "square h^2 of a reduced germ"
CHANGE = "coordinate change of a quasi-homogeneous curve"

# Each workload has an odd number of inputs, run once per pass, so that p50
# falls in the middle of one input's calls rather than between two inputs.
GRADED = [
    curve("lines-x2y2", "x:2,y:2", weights="1,1", family=LINES, monomial=(2, 2), warmup=True),
    curve("lines-x2y3", "x:2,y:3", weights="1,1", family=LINES, monomial=(2, 3)),
    curve("lines-x3y3", "x:3,y:3", weights="1,1", family=LINES, monomial=(3, 3)),
    curve("lines-x2y4", "x:2,y:4", weights="1,1", family=LINES, monomial=(2, 4)),
    curve("lines-x2y5", "x:2,y:5", weights="1,1", family=LINES, monomial=(2, 5)),
    curve("lines-x3.y", "x:3", "y", "1,1", LINES, monomial=(3, 1)),
    curve("lines-x4.y", "x:4", "y", "1,1", LINES, monomial=(4, 1)),
    curve("lines-x2y2.x+y", "x:2,y:2", "x+y", "1,1", LINES),
    curve("lines-x2y2(x+y)2", "x:2,y:2,x+y:2", weights="1,1", family=LINES),
    curve(
        "lines-x2y2(x+y)2(x-y)2", "x:2,y:2,x+y:2,x-y:2", weights="1,1", family=LINES,
        **defect("wrong", "graded mu scan stops early and reports mu = 0"),
    ),
    curve("powers-3", "x:3", "x^3+y^3", "1,1", POWERS, warmup=True, cold=True),
    curve("powers-4", "x:4", "x^4+y^4", "1,1", POWERS),
    curve(
        "powers-5", "x:5", "x^5+y^5", "1,1", POWERS,
        **defect("inconclusive", "graded colon chain burns the default jet cap"),
    ),
    curve(
        "powers-6", "x:6", "x^6+y^6", "1,1", POWERS,
        **defect("inconclusive", "graded colon chain burns the default jet cap"),
    ),
    curve("cusp-x2.x2+y3", "x:2", "x^2+y^3", "3,2", CUSP, warmup=True),
    curve("cusp-y2.y2+x3", "y:2", "y^2+x^3", "2,3", CUSP),
    curve("cusp-x3.y2+x3", "x:3", "y^2+x^3", "2,3", CUSP),
    curve("cusp-y2.x2+y5", "y:2", "x^2+y^5", "5,2", CUSP),
    curve("cusp-x2.y2+x5", "x:2", "y^2+x^5", "2,5", CUSP),
    curve(
        "cusp-x3y2.x2+y3", "x:3,y:2", "x^2+y^3", "3,2", CUSP,
        **defect("wrong", "graded mu scan stops early and reports mu = 0"),
    ),
    curve("square-xy", "x*y:2", weights="1,1", family=SQUARE, monomial=(2, 2)),
    curve("square-x2+y2", "x^2+y^2:2", weights="1,1", family=SQUARE),
    curve("square-x3+y3", "x^3+y^3:2", weights="1,1", family=SQUARE),
    curve(
        "square-x2-y3", "x^2-y^3:2", weights="3,2", family=SQUARE,
        **defect("wrong", "graded mu scan stops early and reports mu = 0"),
    ),
    curve(
        "square-x2+y5", "x^2+y^5:2", weights="5,2", family=SQUARE,
        **defect("wrong", "graded mu scan stops early and reports mu = 0"),
    ),
]

JET = [
    curve("lines-x2y2", "x:2,y:2", family=LINES, monomial=(2, 2), warmup=True),
    curve("lines-x2y3", "x:2,y:3", family=LINES, monomial=(2, 3)),
    curve("lines-x3y3", "x:3,y:3", family=LINES, monomial=(3, 3)),
    curve("lines-x2y5", "x:2,y:5", family=LINES, monomial=(2, 5)),
    curve("lines-x3.y", "x:3", "y", family=LINES, monomial=(3, 1)),
    curve("lines-x2y3.x+y", "x:2,y:3", "x+y", family=LINES),
    curve("lines-x2y2(x+y)2", "x:2,y:2,x+y:2", family=LINES),
    curve("lines-x2y2(x+y)2(x-y)2", "x:2,y:2,x+y:2,x-y:2", family=LINES),
    curve("powers-3", "x:3", "x^3+y^3", family=POWERS, warmup=True, cold=True),
    curve("powers-4", "x:4", "x^4+y^4", family=POWERS),
    curve("powers-5", "x:5", "x^5+y^5", family=POWERS),
    curve("powers-6", "x:6", "x^6+y^6", family=POWERS),
    curve("cusp-x2.x2+y3", "x:2", "x^2+y^3", family=CUSP),
    curve("cusp-y2.x2+y5", "y:2", "x^2+y^5", family=CUSP),
    curve("square-xy", "x*y:2", family=SQUARE, monomial=(2, 2)),
    curve("square-x2+y2", "x^2+y^2:2", family=SQUARE),
    curve(
        "square-x2-y3", "x^2-y^3:2", family=SQUARE,
        **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
    ),
    curve(
        "square-x2+y3.x", "x^2+y^3:2", "x", family=SQUARE,
        **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
    ),
    curve("change-x3.y+x2", "x:3", "y+x^2", family=CHANGE, monomial=(3, 1), changed=True),
    curve("change-x2.y+x3", "x:2", "y+x^3", family=CHANGE, monomial=(2, 1), changed=True),
    curve("change-y2.x+y2", "y:2", "x+y^2", family=CHANGE, monomial=(1, 2), changed=True),
    curve(
        "change-(x+y2)2.y", "x+y^2:2", "y", family=CHANGE, monomial=(2, 1), changed=True,
        **defect("inconclusive", "jet colon chain does not stabilize at cap 24"),
    ),
    curve(
        "change-(x+y2)2y2", "x+y^2:2,y:2", family=CHANGE, monomial=(2, 2), changed=True,
        **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
    ),
    curve(
        "change-x2(y+x2)2", "x:2,y+x^2:2", family=CHANGE, monomial=(2, 2), changed=True,
        **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
    ),
    curve(
        "change-(x-y2)2y3", "x-y^2:2,y:3", family=CHANGE, monomial=(2, 3), changed=True,
        **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
    ),
]

# (isolated germ exponent, curve entry); the curve references are reused
SUSPEND = [
    (2, curve("lines-x2y2", "x:2,y:2", weights="1,1", monomial=(2, 2), warmup=True)),
    (3, curve("lines-x2y2", "x:2,y:2", monomial=(2, 2))),
    (4, curve("lines-x2y2", "x:2,y:2", weights="1,1", monomial=(2, 2), cold=True)),
    (2, curve("lines-x2y3", "x:2,y:3", monomial=(2, 3))),
    (3, curve("lines-x2y3", "x:2,y:3", weights="1,1", monomial=(2, 3))),
    (3, curve("square-xy", "x*y:2", weights="1,1", monomial=(2, 2))),
    (2, curve("lines-x2.y", "x:2", "y", "1,1", monomial=(2, 1))),
    (4, curve("lines-x2.y", "x:2", "y", monomial=(2, 1))),
    (3, curve("lines-x3.y", "x:3", "y", "1,1", monomial=(3, 1))),
    (2, curve("lines-x3.y", "x:3", "y", monomial=(3, 1))),
    (2, curve("powers-3", "x:3", "x^3+y^3", warmup=True)),
    (2, curve("cusp-x2.x2+y3", "x:2", "x^2+y^3")),
    (3, curve("square-x2+y2", "x^2+y^2:2", weights="1,1")),
    (
        2,
        curve(
            "square-x2-y3", "x^2-y^3:2", weights="3,2",
            **defect("invalid", "curve mu 0 makes the direct check disagree (exit 1)"),
        ),
    ),
    (
        2,
        curve(
            "square-x2-y3", "x^2-y^3:2",
            **defect("crash", "AssertionError in local_algebra._pair_quotient_jet"),
        ),
    ),
]


def curve_entry(spec: dict) -> dict:
    entry = {
        key: value
        for key, value in spec.items()
        if key not in ("monomial", "changed")
    }
    entry.update(curve_reference(spec))
    return entry


def suspend_entry(k: int, spec: dict) -> dict:
    base = curve_reference(spec)
    milnor = k - 1
    entry = {
        key: value
        for key, value in spec.items()
        if key not in ("monomial", "changed")
    }
    entry["id"] = f"z{k}+{spec['id']}" + ("-w" if spec.get("weights") else "")
    entry["isolated"] = f"z^{k}"
    entry["reference"] = {
        name: milnor * value for name, value in base["reference"].items()
    }
    entry["reference"]["isolated_milnor"] = milnor
    entry["sources"] = {
        name: f"Milnor number {milnor} of z^{k} times the curve's {name} ({source})"
        for name, source in base["sources"].items()
    }
    entry["sources"]["isolated_milnor"] = f"closed form: z^{k} has Milnor number {k} - 1"
    return entry


def main() -> None:
    corpus = {
        "graded": [curve_entry(spec) for spec in GRADED],
        "jet": [curve_entry(spec) for spec in JET],
        "suspend": [suspend_entry(k, spec) for k, spec in SUSPEND],
    }
    for name, entries in corpus.items():
        ids = [entry["id"] for entry in entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate ids in workload {name}")
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, corpus.values()))} entries to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
