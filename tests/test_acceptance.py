"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with -s to see them inline).  Every expected value is either exact
golden data, or frozen from the independent oracles coded here
(divisibility counting, the naive rewriter, explicit exterior algebra);
no tolerance is involved anywhere because all arithmetic is exact.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from brieskorn.ab_module import (
    ABModule,
    bpoly,
    check_commutation,
    factorial_identity_holds,
    is_simple_pole,
    normal_order,
    tensor,
)
from brieskorn.curve import (
    FactoredCurve,
    annihilator_field,
    annihilator_form,
    closed_form_witness,
    invariants,
    torsion_free_witness,
)
from brieskorn.forms import DiffForm
from brieskorn.local_algebra import monomials_below
from brieskorn.poly import parse_polynomial
from brieskorn.suspension import milnor_isolated, suspend, verify_suspension_direct

from conftest import (
    closed_product_exponents,
    rank_one,
    rewrite_normal_order,
    saturate_at_origin,
)
from torsion_model import (
    TorsionFixture,
    fixture_axioms_hold,
    mat_power,
    mat_vec,
    nilpotence_exponent,
    subspaces_equal,
    torsion_subspaces,
)

XY = ("x", "y")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def sextic():
    return FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number}: FAIL - {description}")
        raise
    print(f"acceptance criterion {number}: PASS - {description}")


GOLDEN_BASIS = [
    "1", "x", "y", "x*y",
    "x^2", "x^3", "x^4", "x^5",
    "x^2*y", "x^3*y", "x^4*y", "x^5*y",
    "x^2*y^2",
]


def test_criterion_1_golden_sextic():
    with criterion(1, "golden sextic: saturation, mu, nu, rank, basis, a-action"):
        from brieskorn.local_algebra import jacobian_ideal

        start = time.perf_counter()
        report = invariants(sextic(), weights=(1, 1))
        sat = saturate_at_origin(jacobian_ideal(sextic().expand()))
        elapsed = time.perf_counter() - start
        assert [str(g) for g in sat.generators] == ["x^2"]
        assert report.mu == 9
        assert report.nu == 4
        assert [str(b) for b in report.basis_nu] == ["1", "x", "y", "x*y"]
        assert report.rank == 13
        assert sorted(str(b) for b in report.basis) == sorted(GOLDEN_BASIS)
        for rep_poly, coeff in report.a_action:
            exps = next(iter(rep_poly.terms))
            assert coeff == Fraction(exps[0] + exps[1] + 2, 6)
        assert elapsed < 10.0


def test_criterion_2_isolated_regressions():
    with criterion(2, "isolated Milnor numbers 1, 2, 6 with oracle agreement"):
        def oracle(gen_exponents, n_vars, order=10):
            count = 0
            for m in monomials_below(n_vars, order):
                if not any(
                    all(a >= b for a, b in zip(m, gen)) for gen in gen_exponents
                ):
                    count += 1
            return count

        assert milnor_isolated(p("x^2+y^2")).milnor == 1 == oracle([(1, 0), (0, 1)], 2)
        assert milnor_isolated(p("x^3", ("x",))).milnor == 2 == oracle([(2,)], 1)
        assert milnor_isolated(p("x^3+y^4")).milnor == 6 == oracle([(2, 0), (0, 3)], 2)


def test_criterion_3_operator_identity():
    with criterion(3, "factorial b-power identity for n = 1..8, exactly"):
        from brieskorn.ab_module import OperatorWord

        for n in range(1, 9):
            assert factorial_identity_holds(n)
        # spot-check the engine against the naive rewriter oracle
        sample = OperatorWord({("a", "a", "b", "b", "a", "b"): 1})
        assert normal_order(sample) == rewrite_normal_order(sample)


FACTOR_POOL = ["x", "y", "x+y", "x-y", "x+y^2", "x^2+y^3"]


def corpus(count=60, seed=20240):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, 3)
        texts = rng.sample(FACTOR_POOL, k)
        factors = [(p(t), rng.randint(2, 5)) for t in texts]
        out.append(FactoredCurve.of(XY, factors))
    return out


def test_criterion_4_annihilator_factorization_corpus():
    with criterion(4, "df = (prod u^(p-1)) alpha and V.f = 0 on 60 random curves"):
        curves = corpus()
        assert len(curves) >= 50
        for curve in curves:
            f = curve.expand()
            alpha = annihilator_form(curve)
            df = DiffForm(XY, 1, {(0,): f.derivative("x"), (1,): f.derivative("y")})
            assert df == alpha * curve.multiplicity_cofactor()
            field = annihilator_field(curve)
            assert field.apply(f).is_zero


def test_criterion_5_gcd_witness_corpus():
    with criterion(5, "closed witness exactly when gcd of multiplicities > 1"):
        for curve in corpus():
            mults = [m for _, m in curve.factors]
            common = gcd(*mults) if len(mults) > 1 else mults[0]
            witness = closed_form_witness(curve)
            if common > 1:
                assert witness is not None
                assert (annihilator_form(curve) * witness).d().is_zero
            else:
                # the scan is exhaustive over all exponent patterns below
                # the multiplicities
                assert witness is None
                assert closed_product_exponents(curve) == []


def test_criterion_6_condition_witness_self_test():
    with criterion(6, "torsion-free witness holds at jet order 12"):
        assert torsion_free_witness(sextic(), 12)
        cross = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)])
        assert torsion_free_witness(cross, 12)


def test_criterion_7_suspension_transport():
    with criterion(7, "suspension transport with direct 3-variable check"):
        report = invariants(sextic(), weights=(1, 1))
        germ2 = milnor_isolated(p("z^2", ("z",)))
        result = suspend(germ2, report)
        assert (result.mu, result.nu, result.rank) == (9, 4, 13)
        check = verify_suspension_direct(germ2, sextic(), report)
        assert check.agrees and check.mu_direct == 9
        germ3 = milnor_isolated(p("z^3", ("z",)))
        assert suspend(germ3, report).rank == 26


def test_criterion_8_tensor_algebra_properties():
    with criterion(8, "tensor properties over 100 random simple-pole modules"):
        rng = random.Random(818)

        def random_module():
            rank = rng.randint(1, 3)
            matrix = [
                [
                    [0] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                    for _ in range(rank)
                ]
                for _ in range(rank)
            ]
            return ABModule(rank, 16, matrix)

        modules = [random_module() for _ in range(100)]
        for module in modules:
            assert is_simple_pole(module)
        for left, right in zip(modules[::2], modules[1::2]):
            product = tensor(left, right)
            assert product.rank == left.rank * right.rank
            assert check_commutation(product)
            assert is_simple_pole(product)
        for _ in range(20):
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            nu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            product = tensor(rank_one(lam), rank_one(nu))
            assert product.a_matrix[0][0] == bpoly([0, lam + nu])


def conforming_fixtures():
    """Fixtures satisfying the finite-model axioms."""
    out = []
    # b = 0, a nilpotent (several shapes)
    for dim in (2, 3, 4):
        a = [[(1 if j == i + 1 else 0) for j in range(dim)] for i in range(dim)]
        out.append(TorsionFixture.of(a, [[0] * dim for _ in range(dim)]))
    # two-dimensional Jordan b with a = 0 (b^2 = 0 there)
    out.append(TorsionFixture.of([[0, 0], [0, 0]], [[0, 0], [1, 0]]))
    # the derivation model  a(e_i) = i e_(i+1),  b the plain shift
    for dim in (2, 3, 4, 5, 6):
        a = [[(j if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
        b = [[(1 if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
        out.append(TorsionFixture.of(a, b))
    # scaled derivation models (a -> s a, b -> s b preserves the relation
    # only when rescaled consistently: [sa, sb] = s^2 b^2)
    for s in (2, -1):
        dim = 4
        a = [[(s * j if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
        b = [[(s if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
        out.append(TorsionFixture.of(a, b))
    return out


def test_criterion_9_torsion_fixtures():
    with criterion(9, "B = A and the b-power bound on every conforming fixture"):
        fixtures = conforming_fixtures()
        checked = 0
        for fixture in fixtures:
            if not fixture_axioms_hold(fixture):
                continue
            checked += 1
            b_space, a_space = torsion_subspaces(fixture)
            assert subspaces_equal(b_space, a_space)
            n = nilpotence_exponent(fixture.a, a_space)
            assert n is not None  # a is nilpotent on A by the axioms
            power = mat_power(fixture.b, 2 * n)
            assert all(not mat_vec(power, dict(v)) for v in a_space)
        assert checked >= 9
        # sanity: a non-conforming fixture is rejected by the axiom check
        bad = TorsionFixture.of([[0, 0], [0, 1]], [[0, 0], [1, 0]])
        assert not fixture_axioms_hold(bad)
