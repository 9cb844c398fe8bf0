"""Suspension transport, isolated germs, and the direct cross-check."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from brieskorn.ab_module import (
    ABModule,
    is_regular,
    is_simple_pole,
    tensor,
)
from brieskorn.curve import (
    FactoredCurve,
    _action_certificate,
    invariants,
)
from brieskorn.errors import InputError
from brieskorn.local_algebra import jacobian_ideal, monomials_below
from brieskorn.poly import Poly, listing_key, parse_polynomial
from brieskorn.suspension import (
    IsolatedGerm,
    _auto_weights,
    _diagonal_module,
    milnor_isolated,
    suspend,
    verify_suspension_direct,
)

from conftest import certificate_inputs, class_certificate, columns_commute, stable_colength

XY = ("x", "y")
Z = ("z",)
XYZ = ("x", "y", "z")
AB = ("a", "b")


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def sextic():
    return FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))


def cross():
    return FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)])


def brute_force_milnor(gen_exponents, n_vars, order=10):
    """Monomial-ideal colength by divisibility counting (oracle)."""
    count = 0
    for m in monomials_below(n_vars, order):
        if not any(
            all(me >= ge for me, ge in zip(m, gen)) for gen in gen_exponents
        ):
            count += 1
    return count


@pytest.mark.parametrize(
    "text, variables, expected",
    [
        ("x^3+y^4", XY, (Fraction(1, 3), Fraction(1, 4))),
        # underdetermined: the free variable takes the default 1/deg(f)
        ("z*w", ("z", "w"), (Fraction(1, 2), Fraction(1, 2))),
        ("x^2+x^3", XY, None),  # inconsistent system
        ("x^2+y^2+x*y^3", XY, None),
    ],
)
def test_auto_weights(text, variables, expected):
    assert _auto_weights(p(text, variables)) == expected


class TestMilnorIsolated:
    def test_germ_record_compares_field_wise_and_keeps_its_repr(self):
        g = milnor_isolated(p("z^3", Z))
        keywords = IsolatedGerm(
            poly=g.poly,
            milnor=g.milnor,
            basis=g.basis,
            weights=g.weights,
            a_action=g.a_action,
            f="z^3",
        )
        assert keywords == g == IsolatedGerm(*g) != g._replace(milnor=3)
        # a record is a tuple: it equals the plain tuple of its fields and
        # can be indexed and unpacked
        assert g == tuple(g) and g[1] == g.milnor == 2 and len(g) == 6
        poly, milnor, *_ = g
        assert (poly, milnor) == (g.poly, 2)
        one, z = "Poly('1', vars=('z',))", "Poly('z', vars=('z',))"
        assert repr(keywords) == (
            f"IsolatedGerm(poly=Poly('z^3', vars=('z',)), milnor=2, basis=({one}, {z}), "
            "weights=WeightSystem(weights=(1/3), degree=1), "
            f"a_action=(({one}, Fraction(1, 3)), ({z}, Fraction(2, 3))), f='z^3')"
        )

    def test_one_variable_powers(self):
        g = milnor_isolated(p("z^2", Z))
        assert g.milnor == 1
        assert [str(m) for m in g.basis] == ["1"]
        assert g.weights is not None and g.weights.weights == (Fraction(1, 2),)
        assert g.a_action == ((p("1", Z), Fraction(1, 2)),)

        g3 = milnor_isolated(p("z^3", Z))
        assert g3.milnor == 2
        assert [str(m) for m in g3.basis] == ["1", "z"]
        assert g3.a_action == ((p("1", Z), Fraction(1, 3)), (p("z", Z), Fraction(2, 3)))

    def test_two_variable_example_against_oracle(self):
        # J(x^3 + y^4) = (3x^2, 4y^3): the oracle counts six monomials
        expected = brute_force_milnor([(2, 0), (0, 3)], 2)
        assert expected == 6
        g = milnor_isolated(p("x^3+y^4"))
        assert g.milnor == expected
        assert g.weights.weights == (Fraction(1, 3), Fraction(1, 4))
        # spectrum values (w(m) + |w|) on the basis, all oracle-verified,
        # listed in basis order
        assert [(str(m), c) for m, c in g.a_action] == list({
            "1": Fraction(7, 12),
            "x": Fraction(11, 12),
            "y": Fraction(5, 6),
            "x*y": Fraction(7, 6),
            "y^2": Fraction(13, 12),
            "x*y^2": Fraction(17, 12),
        }.items())

    def test_equal_weighted_germs_hash_equal(self):
        first, second = milnor_isolated(p("x^3+y^4")), milnor_isolated(p("x^3+y^4"))
        assert first.weights is not None and first is not second
        assert first == second and hash(first) == hash(second)

    def test_underdetermined_weights(self):
        g = milnor_isolated(p("z*w", ("z", "w")))
        assert g.milnor == 1
        assert g.weights.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_smooth_rejected(self):
        with pytest.raises(InputError) as err:
            milnor_isolated(p("z", Z))
        assert "smooth" in str(err.value)

    def test_non_isolated_rejected(self):
        with pytest.raises(InputError) as err:
            milnor_isolated(p("x^2"))
        assert "infinite colength" in str(err.value)

    @pytest.mark.parametrize(
        "text, variables",
        [(f"z^{k}", Z) for k in (2, 3, 4, 5, 30)]
        + [
            ("x^3+y^4", XY),
            ("x^2+y^2+z^3", XYZ),
            ("x^3+y^3+z^3", XYZ),
            ("z*w", ("z", "w")),
            ("z^2+w^2", ("z", "w")),
        ],
    )
    def test_matches_the_jet_colength_reference(self, text, variables):
        # the exact count and its cap-free jet basis reproduce the jet stop
        # rule wherever that rule concludes (z^30 needs its cap above 30)
        g = milnor_isolated(p(text, variables))
        value, basis, _ = stable_colength(jacobian_ideal(g.poly), cap=40)
        listed = tuple(Poly.monomial(variables, e) for e in sorted(basis, key=listing_key))
        assert (g.milnor, g.basis) == (value, listed)

    def test_must_vanish_at_origin(self):
        with pytest.raises(InputError):
            milnor_isolated(p("z^2 + 1", Z))


class TestActionOracle:
    """The a-action certificate proves every emitted coefficient and
    rejects each one shifted by 1/7, in one, two and three variables."""

    CASES = [
        ("z^3", Z, ["1/3", "2/3"]),
        ("x^3+y^4", XY, ["7/12", "11/12", "5/6", "7/6", "13/12", "17/12"]),
        ("x^2+y^2+z^3", XYZ, ["4/3", "5/3"]),
        ("x^3+y^3+z^3", XYZ, ["1"] + ["4/3"] * 3 + ["5/3"] * 3 + ["2"]),
    ]

    @pytest.mark.parametrize("text,variables,expected", CASES)
    def test_accepts_emitted_rejects_shifted(self, text, variables, expected):
        g = milnor_isolated(p(text, variables))
        coefficients = [c for _, c in g.a_action]
        assert sorted(coefficients) == sorted(Fraction(c) for c in expected)
        inputs = certificate_inputs(g.poly)
        for m, c in g.a_action:
            assert class_certificate(*inputs, g.weights)(m, c)
            shifted = c + Fraction(1, 7)
            assert not class_certificate(*inputs, g.weights)(m, shifted)

    def test_one_oracle_serves_the_whole_basis(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return _action_certificate(*args)

        # milnor_isolated drives curve.a_action, which builds the certificate
        monkeypatch.setattr("brieskorn.curve._action_certificate", counting)
        g = milnor_isolated(p("x^3+y^3+z^3", XYZ))
        assert len(g.a_action) == 8
        assert len(built) == 1


class TestSuspend:
    def test_sextic_transport(self):
        rep = invariants(sextic(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^2", Z)), rep)
        assert (result.mu, result.nu, result.rank) == (9, 4, 13)
        result3 = suspend(milnor_isolated(p("z^3", Z)), rep)
        assert (result3.mu, result3.nu, result3.rank) == (18, 8, 26)

    def test_cross_transport(self):
        rep = invariants(cross(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^2", Z)), rep)
        assert result.rank == 2

    def test_model_properties(self):
        rep = invariants(sextic(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^2", Z)), rep)
        model = result.ab_model
        assert model is not None and model.rank == 13
        assert columns_commute(model)
        assert is_simple_pole(model)
        assert is_regular(model, [1]) == (True,)

    def test_action_adds_on_basis_pairs(self):
        rep = invariants(sextic(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^2", Z)), rep)
        # locate the pair (1, 1): germ index 0, curve index of the monomial 1
        curve_index = [str(b) for b in rep.basis].index("1")
        entry = result.ab_model.a_matrix[curve_index][curve_index]
        assert entry == (0, Fraction(5, 6))  # 1/2 + 1/3

    @pytest.mark.parametrize(
        "curve, germ, variables",
        [(cross, "z^2", Z), (sextic, "z^3", Z), (cross, "a^5+b^3", AB)],
        ids=["corpus-z2+lines-x2y2-w", "z3+sextic", "a5+b3+cross"],
    )
    def test_model_is_the_diagonal_of_the_summed_actions(self, curve, germ, variables):
        # the diagonal law on a suspension: the tensor of diag(c_i b) and
        # diag(d_j b) is diag((c_i + d_j) b) at index i * r_curve + j, where
        # c_i and d_j belong to the i-th and j-th basis classes
        rep = invariants(curve(), weights=(1, 1))
        isolated = milnor_isolated(p(germ, variables))
        model = suspend(isolated, rep).ab_model
        c, d = dict(isolated.a_action), dict(rep.a_action)
        sums = [c[m] + d[n] for m in isolated.basis for n in rep.basis]
        assert model.rank == len(sums) == isolated.milnor * rep.rank
        assert model.a_matrix == tuple(
            tuple((0, total) if i == j and total else () for j in range(len(sums)))
            for i, total in enumerate(sums)
        )

    @pytest.mark.parametrize("curve", [cross, sextic], ids=["cross", "sextic"])
    @pytest.mark.parametrize("germ", ["a^5+b^3", "a^4+b^3"])
    def test_germ_action_lists_the_basis_and_the_model_adds_on_basis_pairs(self, curve, germ):
        # both germs list their basis classes in another order than their
        # scan finds them (by degree): the germ's action follows basis, and
        # the model's k-th diagonal entry belongs to basis_pairs[k]
        isolated = milnor_isolated(p(germ, AB))
        assert [m for m, _ in isolated.a_action] == list(isolated.basis)
        result = suspend(isolated, invariants(curve(), weights=(1, 1)))
        c, d = dict(isolated.a_action), dict(result.curve_report.a_action)
        assert result.ab_model.rank == len(result.basis_pairs)
        for k, (m, n) in enumerate(result.basis_pairs):
            assert result.ab_model.a_matrix[k][k] == (0, c[m] + d[n]), (k, m, n)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=8, max_denominator=30), min_size=1, max_size=40
        ),
        st.integers(2, 20),
    )
    @example([Fraction(0), Fraction(3, 4)], 2)
    def test_diagonal_model_is_the_constructor_built_module(self, coefficients, trunc_order):
        # the numerators of the nonzero cells over the lcm are those the
        # validating constructor builds from the dense matrix of [0, c] cells
        action = [(p("x"), c) for c in coefficients]
        rank = len(action)
        dense = [[[0, c] if i == j else [] for j in range(rank)] for i, (_, c) in enumerate(action)]
        built = ABModule(rank, trunc_order, dense)
        direct = _diagonal_module(action, trunc_order)
        fields = ("rank", "trunc_order", "numerators", "scale", "label")
        assert [getattr(direct, f) for f in fields] == [getattr(built, f) for f in fields]
        assert direct.to_json() == built.to_json()

    def test_a_diagonal_model_below_order_two_is_refused_as_the_constructor_refuses(self):
        action = [(p("x"), Fraction(1, 2))]
        for build in (lambda: ABModule(1, 1, [[[0, Fraction(1, 2)]]]), lambda: _diagonal_module(action, 1)):
            with pytest.raises(InputError, match="truncation order must be at least 2"):
                build()

    def test_rank2_times_rank13_is_26(self):
        rep = invariants(sextic(), weights=(1, 1))
        curve_model = suspend(milnor_isolated(p("z^2", Z)), rep).ab_model
        rank2 = ABModule(
            2, 16, [[[0, Fraction(1, 3)], []], [[], [0, Fraction(2, 3)]]]
        )
        assert rank2.rank == 2 and curve_model.rank == 13
        assert tensor(rank2, curve_model).rank == 26

    def test_requires_torsion_free_flag(self):
        rep = invariants(sextic(), weights=(1, 1))
        broken = rep._replace(assumptions=rep.assumptions._replace(torsion_free=False))
        with pytest.raises(InputError):
            suspend(milnor_isolated(p("z^2", Z)), broken)

    def test_iterated_suspension_keeps_rank(self):
        # z^2 + w^2 is itself a suspension with Milnor number one, so the
        # curve rank is unchanged after suspending by it
        germ = milnor_isolated(p("z^2 + w^2", ("z", "w")))
        assert germ.milnor == 1
        rep = invariants(sextic(), weights=(1, 1))
        assert suspend(germ, rep).rank == 13

    def test_basis_pairs_are_factor_major(self):
        rep = invariants(cross(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^3", Z)), rep)
        labels = [(str(a), str(b)) for a, b in result.basis_pairs]
        assert labels == [
            ("1", "x*y"), ("1", "1"),
            ("z", "x*y"), ("z", "1"),
        ]


class TestDirectVerification:
    def test_cross_with_z2(self):
        rep = invariants(cross(), weights=(1, 1))
        check = verify_suspension_direct(
            milnor_isolated(p("z^2", Z)), cross(), rep
        )
        assert check.agrees and check.mu_direct == 1

    def test_cross_with_z3(self):
        rep = invariants(cross(), weights=(1, 1))
        check = verify_suspension_direct(
            milnor_isolated(p("z^3", Z)), cross(), rep
        )
        assert check.agrees and check.mu_direct == 2

    def test_sextic_with_z2(self):
        rep = invariants(sextic(), weights=(1, 1))
        check = verify_suspension_direct(
            milnor_isolated(p("z^2", Z)), sextic(), rep
        )
        assert check.agrees and check.mu_direct == 9
        assert check.exact

    def test_jet_path_without_certificates(self):
        germ = IsolatedGerm(
            poly=p("z^2", Z), milnor=1, basis=(p("1", Z),), weights=None, a_action=None,
            f="z^2",
        )
        rep = invariants(cross(), weights=None, jet_cap=14)
        check = verify_suspension_direct(germ, cross(), rep)
        assert check.agrees and check.exact

    def test_variable_clash_rejected(self):
        rep = invariants(cross(), weights=(1, 1))
        germ = milnor_isolated(p("x^2", ("x",)))
        with pytest.raises(InputError):
            verify_suspension_direct(germ, cross(), rep)

    def test_too_many_variables_rejected(self):
        rep = invariants(cross(), weights=(1, 1))
        germ = milnor_isolated(p("z^2 + w^2", ("z", "w")))
        with pytest.raises(InputError):
            verify_suspension_direct(germ, cross(), rep)
