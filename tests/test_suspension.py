"""Suspension transport, isolated germs, and the direct cross-check."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from brieskorn.ab_module import (
    bpoly,
    check_commutation,
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
from brieskorn.forms import DiffForm
from brieskorn.local_algebra import jacobian_ideal, monomials_below
from brieskorn.poly import Poly, listing_key, parse_polynomial
from brieskorn.suspension import (
    IsolatedGerm,
    _auto_weights,
    milnor_isolated,
    suspend,
    verify_suspension_direct,
)

from conftest import stable_colength

XY = ("x", "y")
Z = ("z",)
XYZ = ("x", "y", "z")


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
    def test_one_variable_powers(self):
        g = milnor_isolated(p("z^2", Z))
        assert g.milnor == 1
        assert [g.monomial_str(e) for e in g.basis] == ["1"]
        assert g.weights is not None and g.weights.weights == (Fraction(1, 2),)
        assert g.a_coefficients == (((0,), Fraction(1, 2)),)

        g3 = milnor_isolated(p("z^3", Z))
        assert g3.milnor == 2
        assert [g3.monomial_str(e) for e in g3.basis] == ["1", "z"]
        assert dict(g3.a_coefficients) == {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}

    def test_two_variable_example_against_oracle(self):
        # J(x^3 + y^4) = (3x^2, 4y^3): the oracle counts six monomials
        expected = brute_force_milnor([(2, 0), (0, 3)], 2)
        assert expected == 6
        g = milnor_isolated(p("x^3+y^4"))
        assert g.milnor == expected
        assert g.weights.weights == (Fraction(1, 3), Fraction(1, 4))
        # spectrum values (w(m) + |w|) on the basis, all oracle-verified
        assert dict((g.monomial_str(e), c) for e, c in g.a_coefficients) == {
            "1": Fraction(7, 12),
            "x": Fraction(11, 12),
            "y": Fraction(5, 6),
            "x*y": Fraction(7, 6),
            "y^2": Fraction(13, 12),
            "x*y^2": Fraction(17, 12),
        }

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
        assert (g.milnor, g.basis) == (value, tuple(sorted(basis, key=listing_key)))

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
        coefficients = [c for _, c in g.a_coefficients]
        assert sorted(coefficients) == sorted(Fraction(c) for c in expected)
        df = DiffForm.from_poly(g.poly).d()
        for exps, c in g.a_coefficients:
            m = Poly.monomial(variables, exps)
            assert _action_certificate(g.poly, df, g.weights)(m, c)
            shifted = c + Fraction(1, 7)
            assert not _action_certificate(g.poly, df, g.weights)(m, shifted)

    def test_one_oracle_serves_the_whole_basis(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return _action_certificate(*args)

        # milnor_isolated drives curve.a_action, which builds the certificate
        monkeypatch.setattr("brieskorn.curve._action_certificate", counting)
        g = milnor_isolated(p("x^3+y^3+z^3", XYZ))
        assert len(g.a_coefficients) == 8
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
        assert check_commutation(model)
        assert is_simple_pole(model)
        assert is_regular(model, 1)

    def test_action_adds_on_basis_pairs(self):
        rep = invariants(sextic(), weights=(1, 1))
        result = suspend(milnor_isolated(p("z^2", Z)), rep)
        # locate the pair (1, 1): germ index 0, curve index of the monomial 1
        curve_index = [str(b) for b in rep.basis].index("1")
        entry = result.ab_model.a_matrix[curve_index][curve_index]
        assert entry == bpoly([0, Fraction(5, 6)])  # 1/2 + 1/3

    def test_rank2_times_rank13_is_26(self):
        from brieskorn.ab_module import ABModule

        rep = invariants(sextic(), weights=(1, 1))
        curve_model = suspend(milnor_isolated(p("z^2", Z)), rep).ab_model
        rank2 = ABModule(
            2, 16, [[[0, Fraction(1, 3)], []], [[], [0, Fraction(2, 3)]]]
        )
        assert rank2.rank == 2 and curve_model.rank == 13
        assert tensor(rank2, curve_model).rank == 26

    def test_requires_torsion_free_flag(self):
        rep = invariants(sextic(), weights=(1, 1))
        broken = replace(
            rep, assumptions=replace(rep.assumptions, torsion_free=False)
        )
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
        labels = [
            (result.germ.monomial_str(a), str(b)) for a, b in result.basis_pairs
        ]
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
            poly=p("z^2", Z), milnor=1, basis=((0,),), weights=None, a_coefficients=None
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
