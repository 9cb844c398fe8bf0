"""Mutation checks: each test monkeypatches one ``src/`` function with a
wrong version and asserts that a public call refuses the wrong answer.

A mutant that passes through the public API unnoticed would be a wrong
answer the tests cannot see, so each mutant here is caught by one targeted
call, not by rerunning the suite: a public call raises, or its answer
differs from the test-side oracle that the suite compares it with.
Covered: the a-action certificate (a coefficient wrong at one w-degree, a wrong target,
a missing cofactor), the sign of the divergence of the twisted operator
that the nu scan and the certificate share, the derivation term of the (a,b)-module operator,
the b^k cut of a smaller regularity order read off the largest order's ladder,
a transposed factor and a right-major index of the tensor product,
the sign flip of a negative denominator in the integer parse of records,
the closed form of a^l b^r (a falling factorial, a dropped binomial),
the b^j shift of the factorial identity,
the Nakayama stop of mu, the Bezout bound of the colength scans, the
weighted Bezout number of b_1 (one route, graded and jet), its
Milnor-Orlik number one off, its squarefree and coprime gcd certificates
skipped, the content factor of the integer gcd dropped, its constant-operand
early exit fired on a linear operand, the nu target stop, the re-read
one order on of the nu predictor, the early unit return of the isolation
test, the affine frame of the a-action certificate one point short, its
integer scales (a wrong weight, a dropped scale of f or of D), the
count's non-leads returned as the unweighted basis, a graded count test
that ignores the image's raises or a non-homogeneous generator, or calls a
GF(p) count graded, the normaliser of
``poly._exact_nonzero``, the certified colon of the saturation (the lead
test dropped, the wrong variable stripped), the known basis of an
elimination (raw generators as the known basis, the known x new S-pairs
dropped), the skips of the Buchberger kernel widened (a pair with one
term, the lead tested in place of the non-lead terms of the final pass, the
minimality test against earlier leads), the exact quotient coefficient and the exponent check of
``Poly.divide_exact``, the re-indexing of ``Poly.substitute``, the
ASCII escaping and the empty-dict literal of the JSON writer, the gcd reduction and the empty cells
of the (a,b)-module record writer, the full-parser fallback of the
CLI's innermost-parser route, the one-term power and the unary minus of
the polynomial parser, the running count of the jet scan, and the one
exact reduction of ``Span`` and the jet count (a lead cancelled once, a row
filed under its greatest column).
"""

from __future__ import annotations

import inspect
import io
import json
import re
import textwrap
from fractions import Fraction
from json.encoder import encode_basestring

import pytest
from hypothesis import find, given

from brieskorn import cli, groebner, linalg, local_algebra, poly
from brieskorn.ab_module import (
    ABModule,
    _integer_operator,
    _reorder_a_powers,
    factorial_identity_holds,
    is_regular,
    tensor,
)
from brieskorn.cli import EXIT_INVALID, EXIT_OK, main
from brieskorn.curve import (
    FactoredCurve,
    _action_certificate,
    _action_target,
    _closed_meet,
    _closed_milnor,
    _gcd,
    annihilator_field,
    annihilator_form,
    check_hypotheses,
    invariants,
    milnor_fibre_betti,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.forms import exact_form_images
from brieskorn.groebner import _integer_gens, isolated_at_origin, torsion_length
from brieskorn.linalg import vec_axpy
from brieskorn.local_algebra import (
    IdealGens,
    _JetCounts,
    _colength_bound,
    _nakayama_order,
    _reached,
    local_colength,
    local_quotient,
)
from brieskorn.poly import Poly, WeightSystem, parse_polynomial, parse_ratio
from brieskorn.suspension import milnor_isolated

from conftest import (
    columns_commute,
    jet_quotient,
    mu as reference_mu,
    nu_jet_basis,
    rank_one,
    reference_integer_gcd,
    scanned_betti,
    shares_the_exact_form_operator,
)
from test_ab_module import (
    COMMUTING_MODULES,
    ab_modules,
    apply_a,
    generator,
    ladder_agrees,
    modules_with_orders,
    one_step_misses,
    reads_like_the_reference,
    reference_check_commutation,
    repeating_records,
    rewriter_reorder,
    writes_its_record,
)
from test_curve import (
    affine_defect_at_y,
    assert_graded_betti_is_scanned,
    failed_on,
    first_of_degree,
    jet_corpus,
    nu_exponents,
    nu_reference,
    parsed_curve,
    proved_in_turn,
    reference_a_action,
    shifted_on,
)
from test_groebner import (
    MIXED,
    ideal,
    reduced_basis,
    reference_isolated,
    reference_torsion_length,
)
from test_cli import (
    JSON_VALUES,
    STRING_AND_CONTAINER_EXAMPLE,
    by_both_routes,
    prints_what_json_dumps_prints,
)
from test_linalg import agrees_with_the_reference, span_cases
from test_local_algebra import reads_the_count_of_its_rows
from test_poly import (
    assert_exact,
    parses_like_the_reference,
    ratio_agrees,
    ratio_texts,
    reference_substitute,
)

XY = ("x", "y")


def p(text):
    return parse_polynomial(text, XY)


def golden_sextic() -> FactoredCurve:
    return FactoredCurve.of(XY, [(p("x"), 3)], p("x^3+y^3"))


def weighted_curve() -> FactoredCurve:
    """y^3 (x^2 - y^5)^3, weighted-homogeneous under the weights (5, 2)."""
    return FactoredCurve.of(XY, [(p("y"), 3), (p("x^2-y^5"), 3)])


def mutated(function, old: str, new: str):
    """``function`` compiled again from its source with the one occurrence
    of ``old`` replaced by ``new``, in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


class TestAActionMutants:
    """A predictor shifted at the w-degree of one class is refused at the
    first class of that degree, which the certificate names."""

    @pytest.mark.parametrize("rep", ["x^2", "x^3*y", "1", "x*y"])
    def test_shifted_curve_coefficient_names_the_first_of_its_degree(self, monkeypatch, rep):
        report = invariants(golden_sextic(), weights=(1, 1))
        assert p(rep) in report.basis
        first = first_of_degree(report.weights, report.basis, p(rep))
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p(rep)))
        with pytest.raises(InputError, match=failed_on(first)):
            invariants(golden_sextic(), weights=(1, 1))

    @pytest.mark.parametrize("rep", ["1", "x*y^2"])
    def test_shifted_germ_coefficient_names_the_first_of_its_degree(self, monkeypatch, rep):
        germ = milnor_isolated(p("x^3+y^4"))
        classes = [m for m, _ in germ.a_action]
        first = first_of_degree(germ.weights, classes, p(rep))
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p(rep)))
        with pytest.raises(InputError, match=failed_on(first)):
            milnor_isolated(p("x^3+y^4"))

    def test_shifted_coefficient_is_invalid_input_at_the_cli(self, monkeypatch, capsys):
        # y shares its w-degree with x, the first class of that degree
        monkeypatch.setattr("brieskorn.curve.a_action_coefficient", shifted_on(p("y")))
        argv = ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", "--vars", "x,y"]
        assert main(argv + ["--weights", "1,1"], out=io.StringIO()) == EXIT_INVALID
        assert capsys.readouterr().err == "error: a-action verification failed on monomial x\n"

    @pytest.mark.parametrize(
        "run",
        [
            lambda: invariants(golden_sextic(), weights=(1, 1)),
            lambda: milnor_isolated(p("x^3+y^4")),
            lambda: milnor_isolated(parse_polynomial("z^3", ("z",))),
        ],
        ids=["curve", "germ", "one-variable germ"],
    )
    def test_flipped_f_x0_term_of_the_target(self, monkeypatch, run):
        def flipped(f_terms, fx0_terms, t, c_num, c_den):
            return _action_target(f_terms, [(e, -c) for e, c in fx0_terms], t, c_num, c_den)

        monkeypatch.setattr("brieskorn.curve._action_target", flipped)
        with pytest.raises(InputError, match="a-action verification failed"):
            run()

    def test_missing_cofactor_is_an_invariant_violation(self, monkeypatch):
        # the curve's one exact division df = h alpha; a germ passes h = 1
        # and divides nothing
        monkeypatch.setattr(Poly, "divide_exact", lambda self, divisor: None)
        with pytest.raises(RuntimeError, match="internal invariant violation"):
            invariants(golden_sextic(), weights=(1, 1))


class TestAffineFrameMutant:
    def test_a_frame_one_point_short_is_caught(self, monkeypatch):
        # the hull of 1 and x is the line y = 0: the mutant takes it for
        # the plane and misses a defect that is affine in t and 0 there
        short = mutated(_action_certificate, "in [zero] + units:", "in [zero] + units[:-1]:")
        assert proved_in_turn(monkeypatch, short, ["x^2"], affine_defect_at_y) == ["1", "x"]
        assert proved_in_turn(monkeypatch, _action_certificate, ["x^2"], affine_defect_at_y) is None


def curve_action(curve: FactoredCurve, weights) -> tuple:
    """The a-action ``invariants`` reports, asserted equal to the per-class
    reference (``test_curve.per_class_certificate``)."""
    report = invariants(curve, weights=weights)
    alpha = annihilator_form(curve)
    assert report.a_action == reference_a_action(
        curve.expand(), alpha, report.weights, report.basis
    )
    return report.a_action


def germ_action(text: str) -> tuple:
    """The a-action ``milnor_isolated`` reports, asserted equal to the
    per-class reference."""
    germ = milnor_isolated(p(text))
    f = germ.poly
    alpha = (f.derivative("x"), f.derivative("y"))
    assert germ.a_action == reference_a_action(f, alpha, germ.weights, germ.basis)
    return germ.a_action


class TestIntegerScaleMutants:
    """Each integer scale of the certificate's frame comparison, mutated,
    is caught by an input where that scale is not 1, and missed by one
    where it is; the per-class reference proves both.  The curve
    y^3 (x^2 - y^5)^3 has D = 36 under the weights (5, 2) and D = 18/5
    under (1/2, 1/5), with the same coefficients (5p + 2q + 7)/36 on a
    class whose first term is x^p y^q."""

    @staticmethod
    def assert_caught(monkeypatch, old: str, new: str, caught, missed) -> None:
        caught(), missed()  # both agree with the reference before the mutation
        mutant = mutated(_action_certificate, old, new)
        monkeypatch.setattr("brieskorn.curve._action_certificate", mutant)
        missed()
        with pytest.raises(InputError, match="a-action verification failed"):
            caught()

    def test_eta_weight_of_the_wrong_variable_is_caught_by_unequal_weights(self, monkeypatch):
        self.assert_caught(
            monkeypatch,
            "int_weights[j] * (common",
            "int_weights[j - 1] * (common",
            lambda: curve_action(weighted_curve(), (5, 2)),
            lambda: curve_action(golden_sextic(), (1, 1)),
        )

    def test_frame_numerator_without_the_degree_denominator_is_caught_at_d_18_5(
        self, monkeypatch
    ):
        self.assert_caught(
            monkeypatch,
            "* k_scale * target_scale",
            "* target_scale",
            lambda: curve_action(weighted_curve(), (Fraction(1, 2), Fraction(1, 5))),
            lambda: curve_action(weighted_curve(), (5, 2)),
        )

    def test_eta_images_without_the_scale_of_f_are_caught_by_rational_f(self, monkeypatch):
        self.assert_caught(
            monkeypatch,
            "* k_scale * scale_f,",
            "* k_scale,",
            lambda: germ_action("1/2*x^3 + 2/3*y^3"),
            lambda: germ_action("x^3 + y^4"),
        )


def without_derivation_term(module: ABModule, order: int):
    """``_integer_operator`` with the matrix part of a alone: each column
    (j, t) loses its derivation part  D t b^(t+1) e_j."""
    scale, columns = _integer_operator(module, order)
    for (j, t), column in columns.items():
        if 0 < t < order - 1:
            vec_axpy(column, -scale * t, {(j, t + 1): 1})
    return scale, columns


class TestSharedOperatorMutant:
    """``invariants`` passes one operator, ``forms.exact_form_images`` of
    alpha, to the nu scan and to the a-action certificate, which rests on
    V~(x^m) vol = d(x^m alpha) for V = b d/dx - a d/dy.  With the sign of
    its extra term d(alpha) flipped the identity fails, and the
    certificate refuses the graded golden sextic (div V = -6 y^2).  The nu
    scan alone does not see it: on the jet path the sextic keeps nu 4 and
    its basis."""

    @pytest.fixture
    def mutant(self):
        old = "a_q.derivative(variables[p]) - a_p.derivative(variables[q])"
        new = "a_p.derivative(variables[q]) - a_q.derivative(variables[p])"
        return mutated(exact_form_images, old, new)

    def test_is_caught_by_the_exact_form_identity(self, mutant):
        a, b = annihilator_form(golden_sextic())
        assert shares_the_exact_form_operator(a, b)
        assert not shares_the_exact_form_operator(a, b, mutant)

    def test_is_caught_by_the_certificate_on_the_golden_sextic(self, monkeypatch, mutant):
        monkeypatch.setattr("brieskorn.curve.exact_form_images", mutant)
        with pytest.raises(InputError, match=failed_on(p("x^2"))):
            invariants(golden_sextic(), weights=(1, 1))
        jet = invariants(golden_sextic())
        assert (jet.nu, [str(m) for m in jet.basis_nu]) == (4, ["1", "x", "y", "x*y"])


class TestDerivationTermMutant:
    """The law a b - b a = b^2 holds by construction of the derivation part
    of ``_integer_operator``; without it the matrix parts cancel and leave
    the b^(t+2) e term over for N >= 3.  No runtime call checks the law, so
    the test that catches this mutant is the property
    ``test_ab_module.TestIntegerOperator.test_columns_obey_the_commutation_law``
    (``columns_commute`` on the operator's integer columns); the Fraction
    oracles ``apply_a`` and ``reference_check_commutation`` agree with it."""

    @pytest.fixture(autouse=True)
    def mutant(self, monkeypatch):
        monkeypatch.setattr("brieskorn.ab_module._integer_operator", without_derivation_term)

    def test_matrix_only_action_fails_commutation(self):
        assert not columns_commute(rank_one(Fraction(1, 2)))

    @pytest.mark.parametrize("module", COMMUTING_MODULES, ids=repr)
    def test_every_commuting_module_fails(self, module):
        assert not columns_commute(module)

    def test_truncation_two_checks_nothing(self):
        assert columns_commute(ABModule(1, 2, [[[0, 1]]]))

    @given(ab_modules())
    def test_is_the_reference_without_the_derivation_term(self, module):
        scale, columns = without_derivation_term(module, module.trunc_order)
        for (j, t), column in columns.items():
            scaled = {key: Fraction(v, scale) for key, v in column.items() if v}
            assert scaled == apply_a(module, generator(j, t), derivation_term=False)
        assert columns_commute(module) is False
        assert reference_check_commutation(module, derivation_term=False) is False


class TestLadderCutMutant:
    """``is_regular`` answers a smaller order k from the ladder of the largest
    order: it keeps the basis vectors b^t e_i with t < k and cuts each vector
    at b^k.  Without the cut, a^k e keeps its part past b^k, which no vector
    of order k's span has, so a regular order reads False.  A call with one
    order builds the ladder for that order and cuts nothing, so only a call
    with a larger order beside it sees the mutant; the test that catches it
    is the property
    ``test_ab_module.TestIntegerOperator.test_one_ladder_answers_every_order``
    (``ladder_agrees`` on ``modules_with_orders``).  Dropping a restriction
    on t instead (t < k for a^k, t < j for the span's b^(k-j) a^j) changes
    no flag and is not checked in: a and b never lower the b-degree, so each
    vector it lets in cuts to 0 at b^k."""

    @pytest.fixture
    def mutant(self):
        return mutated(is_regular, "_shift(vec, 0, k) if k < top else vec for", "vec for")

    def test_single_orders_are_blind_to_it(self, mutant):
        for module in COMMUTING_MODULES:
            orders = range(1, module.trunc_order - 1)
            assert all(mutant(module, [k]) == is_regular(module, [k]) for k in orders)

    def test_is_caught_by_the_ladder_property(self, mutant):
        module = rank_one(Fraction(1, 2))
        assert is_regular(module, [1, 2]) == (True, True)
        assert mutant(module, [1, 2]) == (False, True)
        module, orders = find(modules_with_orders(), lambda case: not ladder_agrees(*case, mutant))
        assert ladder_agrees(module, orders)


class TestTensorMutants:
    """A transposed factor of ``tensor`` (a(e_i) read off row i instead of
    column i of the integer numerators) or a right-factor-major basis index
    keeps the rank and the simple pole of every product; ``abmod selftest``
    catches each by the swap law on the integer matrices: tensor(F, E) is
    tensor(E, F) with the index i r_F + j moved to j r_E + i."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ("left.numerators[k][i]", "left.numerators[i][k]"),
            ("right.numerators[l][j]", "right.numerators[j][l]"),
            ("return i * right.rank + j", "return j * left.rank + i"),
        ],
        ids=["transposed-left", "transposed-right", "right-major-index"],
    )
    def test_is_caught_by_the_selftest(self, monkeypatch, capsys, old, new):
        argv = ["abmod", "selftest", "--count", "6", "--seed", "0"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "tensor", mutated(tensor, old, new))
        assert main(argv) == EXIT_INVALID
        assert "FAILED" in capsys.readouterr().out


class TestParseRatioSignMutant:
    """``parse_ratio`` flips both signs of a negative denominator, so "1/-3"
    reads (-1, 3).  Without the flip it reads (1, -3), and the records do
    not see it: the lcm of the denominators is positive and floor division
    by -3 carries the sign to the numerator.  The test that catches it is
    ``test_poly.TestParseRatio.test_is_the_value_of_parse_fraction``
    (``ratio_agrees`` on the drawn ``ratio_texts``)."""

    @pytest.fixture
    def mutant(self):
        return mutated(parse_ratio, " if q > 0 else -gcd(p, q)", "")

    def test_is_caught_by_the_parse_property(self, mutant):
        assert mutant("1/-3") == (1, -3)
        assert not ratio_agrees("1/-3", mutant)
        assert ratio_agrees("1/-3")
        caught = find(ratio_texts(), lambda text: not ratio_agrees(text, mutant))
        assert "/" in caught and int(caught.partition("/")[2]) < 0

    def test_records_are_blind_to_it(self, monkeypatch, mutant):
        record = {"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "1/-3"], [2, "3/-2"]]]]}
        right = ABModule.from_record(record)
        monkeypatch.setattr("brieskorn.ab_module.parse_ratio", mutant)
        wrong = ABModule.from_record(record)
        assert wrong.a_matrix == right.a_matrix == (((0, Fraction(-1, 3), Fraction(-3, 2)),),)


class TestClosedFormMutants:
    """a^l b^r = sum_k C(l,k) r(r+1)...(r+k-1) b^(r+k) a^(l-k): a falling
    factorial or a dropped binomial agrees with it for l <= 1 and is caught
    by the rewriter from l = 2 on.  The factorial identity is blind to
    both: its coefficient of b^(n+k) a^(n-k) is an n-th difference in r of
    C(n,k) times a degree-k polynomial in r, so it reads only the leading
    coefficient 1 of the k = n term, which both mutants keep.  The one-step
    induction a^(l+1) b^r = a (a^l b^r), with a b^s = b^s a + s b^(s+1),
    needs no rewriter and catches both at its step from l = 1."""

    MUTANTS = pytest.mark.parametrize(
        "old, new",
        [
            ("(b_power + k - 1)", "(b_power - k + 1)"),
            ("c * (a_power - k + 1) * (b_power + k - 1) // k", "c * (b_power + k - 1)"),
        ],
        ids=["falling-factorial", "no-binomial"],
    )

    @MUTANTS
    def test_is_caught_by_the_rewriter_from_l_2(self, monkeypatch, old, new):
        mutant = mutated(_reorder_a_powers, old, new)
        monkeypatch.setattr("brieskorn.ab_module._reorder_a_powers", mutant)
        caught = [l for l in range(7) for r in range(7) if mutant(l, r) != rewriter_reorder(l, r)]
        assert min(caught) == 2
        assert all(factorial_identity_holds(n) for n in range(1, 9))

    @MUTANTS
    def test_is_caught_by_the_one_step_induction_from_l_1(self, old, new):
        # the step from a^1 b^r to a^2 b^r is the first that reads a
        # coefficient the mutants change; the rewriter plays no part
        misses = one_step_misses(mutated(_reorder_a_powers, old, new))
        assert misses and min(l for l, _ in misses) == 1


class TestFactorialIdentityMutant:
    def test_dropped_b_power_shift_is_caught(self, monkeypatch):
        # b^j a^n b^(n-j) read as a^n b^(n-j): the b^j on the left is lost
        mutant = mutated(factorial_identity_holds, "key = (j + i, l)", "key = (i, l)")
        assert not any(mutant(n) for n in range(1, 6))
        monkeypatch.setattr("brieskorn.cli.factorial_identity_holds", mutant)
        assert main(["abmod", "identity", "--n", "3"], out=io.StringIO()) == EXIT_INVALID


# (x^2 - y^3)^2, graded by (3, 2) and as a jet: mu = dim (h)/J = 2
SQUARED_CUSP = FactoredCurve.of(XY, [(p("x^2-y^3"), 2)])


class TestNakayamaStopMutant:
    @pytest.mark.parametrize("weights", [(3, 2), None], ids=["graded", "jet"])
    def test_one_order_early_is_caught_by_the_mu_oracle(self, monkeypatch, weights):
        f = SQUARED_CUSP.expand()
        ws = None if weights is None else WeightSystem.for_poly(f, weights)
        expected = reference_mu(f, IdealGens.of(XY, [p("x^2-y^3")]), ws).value
        assert invariants(SQUARED_CUSP, weights).mu == expected == 2
        monkeypatch.setattr(
            "brieskorn.local_algebra._nakayama_order",
            lambda counts, bound: max(1, _nakayama_order(counts, bound) - 1),
        )
        # b_1 comes from closed forms, not from the early scans, graded and
        # jet alike (the jet part x^2 - y^3 is certified by its gcd), so the
        # nu target b_1 - 1 of the early mu is never reached
        with pytest.raises(InconclusiveError, match="did not reach the target nu"):
            invariants(SQUARED_CUSP, weights)


class TestWeightedBezoutMutant:
    def test_a_bezout_number_without_w_y_is_caught_by_the_scans(self, monkeypatch):
        # y and x^2 - y^5 under the weights (5, 2) meet with multiplicity
        # 2 * 10 / (5 * 2) = 2; without the / w_y the closed form reads 4,
        # in graded and jet b_1 alike, since both take this one route
        curve = FactoredCurve.of(XY, [(p("y"), 3), (p("x^2-y^5"), 3)])
        assert_graded_betti_is_scanned(curve, (5, 2))
        old = "_degree(w, s) * _degree(w, t) // (w[0] * w[1])"
        wrong = mutated(_closed_meet, old, "_degree(w, s) * _degree(w, t) // w[0]")
        monkeypatch.setattr("brieskorn.curve._closed_meet", wrong)
        with pytest.raises(AssertionError):
            assert_graded_betti_is_scanned(curve, (5, 2))


class TestJetClosedFormMutants:
    """b_1 reads a closed form off a weighted-homogeneous part or pair
    only after an integer gcd certifies its hypothesis; each mutant of the
    closed forms or of their certificates is caught by one check."""

    @pytest.mark.parametrize("shift", ["+ 1", "- 1"])
    def test_a_milnor_orlik_number_off_by_one_is_caught_by_the_scans(self, monkeypatch, shift):
        curve = weighted_curve()
        assert milnor_fibre_betti(curve) == scanned_betti(curve)
        old = "(d - w[0]) * (d - w[1]) // (w[0] * w[1])"
        monkeypatch.setattr("brieskorn.curve._closed_milnor", mutated(_closed_milnor, old, f"{old} {shift}"))
        assert milnor_fibre_betti(curve) != scanned_betti(curve)

    def test_a_skipped_squarefree_test_reads_mu_off_a_part_that_is_not_reduced(self, monkeypatch):
        # (x^2 - y^3)^2 is homogeneous in (3, 2) but p(s) = (s - 1)^2 has a
        # repeated root: its Jacobian scan refuses, and the closed form must not
        # read a Milnor number off it
        curve = FactoredCurve.of(XY, [(p("(x^2-y^3)^2"), 2)])
        assert refuses_the_hypotheses(curve)
        skipped = mutated(
            _closed_milnor, "len(_gcd(s[3], [k * c for k, c in enumerate(s[3])][1:])) == 1", "True"
        )
        monkeypatch.setattr("brieskorn.curve._closed_milnor", skipped)
        assert not refuses_the_hypotheses(curve)

    @pytest.mark.parametrize(
        "factors", ["(x+y)*(x-y):2,(x+y)*(x-2*y):2", "x*(x+y):2,x*(x-y):2"], ids=["p", "x"]
    )
    def test_a_skipped_coprime_test_reads_a_meet_off_parts_sharing_a_factor(
        self, monkeypatch, factors
    ):
        # both pairs are homogeneous in (1, 1): the first shares the factor
        # x + y of p, the second the power of x
        curve = parsed_curve(factors)
        assert refuses_the_hypotheses(curve)
        old = "not (s[1] and t[1] or s[2] and t[2]) and len(_gcd(s[3], t[3])) == 1"
        monkeypatch.setattr("brieskorn.curve._closed_meet", mutated(_closed_meet, old, "True"))
        assert not refuses_the_hypotheses(curve)

    def test_a_dropped_content_factor_is_caught_by_the_integer_gcd(self):
        # 6 + 6s and 4 + 4s have the gcd 2 + 2s in Z[s]; without the gcd of
        # the contents multiplied back it reads 1 + s
        assert gcd_is_the_integer_gcd(_gcd)
        dropped = mutated(_gcd, "[content * c for c in p]", "p")
        assert not gcd_is_the_integer_gcd(dropped)

    def test_an_early_exit_on_a_linear_operand_is_caught(self, monkeypatch):
        # only a nonzero constant operand makes the gcd its content; one that
        # fires on a linear operand reads 2 for the gcd 2 + 2s of 6 + 6s and
        # 4 + 4s, and 1 for gcd(p, p') = s - 1 of p = (s - 1)^2, so the
        # certificate calls the non-reduced (x^2 - y^3)^2 reduced
        early = mutated(_gcd, "len(q) == 1", "len(q) <= 2")
        assert not gcd_is_the_integer_gcd(early)
        curve = FactoredCurve.of(XY, [(p("(x^2-y^3)^2"), 2)])
        assert refuses_the_hypotheses(curve)
        monkeypatch.setattr("brieskorn.curve._gcd", early)
        assert not refuses_the_hypotheses(curve)


def refuses_the_hypotheses(curve: FactoredCurve) -> bool:
    """Whether b_1 refuses the curve, as a scan of a part or pair that
    is not reduced or not coprime does."""
    try:
        milnor_fibre_betti(curve)
    except InputError:
        return True
    return False


def gcd_is_the_integer_gcd(gcd_route) -> bool:
    """Whether ``gcd_route`` agrees with the test-side gcd in Z[s] on pairs
    with a shared factor, a shared content and no common root."""
    pairs = [([6, 6], [4, 4]), ([2, -6, 4], [-2, 2]), ([3, 0, 3], [3, 3]), ([], [5, 10])]
    return all(gcd_route(u, v) == reference_integer_gcd(u, v) for u, v in pairs)


class TestColengthBoundMutant:
    def test_a_bound_one_too_low_refuses_an_isolated_ideal(self, monkeypatch):
        # (x^2, y^3) reaches its bound 2 * 3 exactly, so a bound of 5 is
        # passed by the count of an isolated ideal and refused
        I = ideal("x^2", "y^3")
        assert local_colength(I) == _colength_bound(I) == 6
        monkeypatch.setattr(
            "brieskorn.local_algebra._colength_bound", lambda I: _colength_bound(I) - 1
        )
        with pytest.raises(InputError, match="passed the bound 5"):
            local_colength(I)


class TestNuTargetStopMutant:
    @pytest.mark.parametrize("weights", [(1, 1), None], ids=["graded", "jet"])
    def test_a_stop_that_never_fires_reaches_the_cap(self, monkeypatch, weights):
        monkeypatch.setattr("brieskorn.local_algebra._reached", lambda found, target: False)
        with pytest.raises(InconclusiveError, match="did not reach the target nu"):
            invariants(golden_sextic(), weights)

    @pytest.mark.parametrize("weights", [(1, 1), None], ids=["graded", "jet"])
    def test_a_scan_past_its_target_raises(self, monkeypatch, weights):
        # x^2 y^2: a b_1 - 1 target 0 is overshot by the one class of nu;
        # the raise in _reached is all that stops it
        lines = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)])
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti", lambda c: milnor_fibre_betti(c) - 1
        )
        with pytest.raises(RuntimeError, match="1 classes, past the target 0"):
            invariants(lines, weights)
        # a stop that accepts the overshoot prints the wrong nu
        monkeypatch.setattr(
            "brieskorn.local_algebra._reached",
            lambda found, target: _reached(min(found, target), target),
        )
        report = invariants(lines, weights)
        assert (report.nu, len(report.basis_nu)) == (0, 1)

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,  # only "DID NOT RAISE": an error of the test itself fails
        reason="ROADMAP items 5 and 6: nu stops on the one-sided target b_1 - mu, "
        "so a b_1 - 1 that the scan reaches exactly prints nu 3 and exits 0",
    )
    def test_betti_one_low_on_the_golden_sextic_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti", lambda c: milnor_fibre_betti(c) - 1
        )
        with pytest.raises((RuntimeError, InconclusiveError)):
            invariants(golden_sextic(), weights=(1, 1))


class TestPredictorRereadMutant:
    def test_a_short_basis_accepted_is_caught(self, monkeypatch):
        # modulo 2 the count runs ahead of nu_N on the four-line arrangement
        # moved by x -> x + y^2 (homogeneous in no weights, so its scan runs
        # the predictor), so the basis read first is one short and the scan
        # reads the basis again one order on; a stop that accepts the short
        # basis reports a nu its basis does not have
        moved = ("x+y^2", "y", "x+y^2+y", "x+y^2-y")
        lines = FactoredCurve.of(XY, [(p(t), 2) for t in moved])
        monkeypatch.setattr("brieskorn.local_algebra._PREDICTOR_MODULUS", 2)
        report = invariants(lines)
        assert report.nu == len(report.basis_nu) == 9
        monkeypatch.setattr(
            "brieskorn.local_algebra._reached", lambda found, target: found <= target
        )
        report = invariants(lines)
        assert (report.nu, len(report.basis_nu)) == (9, 8)


class TestCertifiedColonMutants:
    def test_a_colon_trusted_without_the_lead_test_is_caught(self, monkeypatch):
        # no generator of (x^2 + y, y^2) strips for x, and the lead x^2
        # leaves x uncertified: trusted, the x-colon is I itself, so the
        # saturation is I and the torsion 0, not the colength 4 of the
        # m-primary I
        I = ideal("x^2 + y", "y^2")
        assert torsion_length(I) == reference_torsion_length(I) == 4
        trusted = mutated(groebner._colon, "if not any(max(g)[at] for g in basis):", "if True:")
        monkeypatch.setattr(groebner, "_colon", trusted)
        assert torsion_length(I) == 0

    def test_a_strip_of_the_wrong_variable_is_caught(self, monkeypatch):
        # the x-colon strips y-powers, (x y, y^2) -> (1), and the y-colon
        # x-powers, (x y, y^2) -> (y), whose colon by y is (1): the
        # saturation becomes the unit ideal, not (y)
        I = ideal("x*y", "y^2")
        assert torsion_length(I) == reference_torsion_length(I) == 1
        swapped = mutated(groebner._colon, "_strip(g, at)", "_strip(g, n + 1 - at)")
        monkeypatch.setattr(groebner, "_colon", swapped)
        assert torsion_length(I) == 2


class TestKnownBasisMutants:
    def test_raw_generators_passed_as_the_known_basis_are_caught(self, monkeypatch):
        # (x y - 2 y^2, x^2 y + y^3) strips nothing for x and is no Groebner
        # basis; as the known basis of the x-colon it loses the torsion
        I = ideal("x*y - 2*y^2", "x^2*y + y^3")
        assert torsion_length(I) == reference_torsion_length(I) == 2
        raw = mutated(
            groebner.torsion_length, "_saturation(basis, n)", "_saturation(_integer_gens(I), n)"
        )
        monkeypatch.setattr(groebner, "torsion_length", raw)
        assert groebner.torsion_length(I) == 0

    def test_dropped_known_by_new_pairs_are_caught(self, monkeypatch):
        # (x^2 + y, y^2, x - 1) is the unit ideal, and the x-colon of
        # (x^2 + y, y^2) continues its basis with 1 - t x; without the pairs
        # of the new element with the known basis neither reaches (1)
        I = ideal("x^2 + y", "y^2")
        basis, new = reduced_basis(I), _integer_gens(ideal("x - 1"))
        assert groebner._groebner(new, 1, known=basis) == groebner._groebner(basis + new, head=1)
        assert torsion_length(I) == reference_torsion_length(I) == 4
        dropped = mutated(
            groebner._groebner,
            "for i, other in enumerate(leads):",
            "for i, other in list(enumerate(leads))[len(known) :]:",
        )
        monkeypatch.setattr(groebner, "_groebner", dropped)
        assert dropped(new, 1, known=basis) != dropped(basis + new, head=1)
        assert torsion_length(I) == 0
        assert reference_torsion_length(I) == 4


class TestSkippedWorkMutants:
    """Each skip of ``_groebner`` widened past what it proves.  The mixed
    ideal of ``test_groebner.SYMPY_CASES`` catches all three: its reduced
    basis, which sympy confirms, is (x y, y^3, x^3 + y^2)."""

    @pytest.mark.parametrize(
        "old, new",
        [
            # a pair with one term: x^2 y with x^3 + y^2 gives x y
            ("if len(p) == 1 == len(basis[i]):", "if len(p) == 1 or len(basis[i]) == 1:"),
            # the lead, which no other kept lead divides, tested for the tail:
            # y^3 - x y keeps its tail x y
            ("if m != leads[i]", "if m == leads[i]"),
            # x^2 y, the first lead, is divisible only by the later lead x y
            ("for other in leads[i + 1 :]", "for other in leads[:i]"),
        ],
        ids=["either-a-term", "lead-for-tail", "earlier-leads"],
    )
    def test_is_caught_by_the_mixed_ideal(self, old, new):
        expected = sorted(_integer_gens(ideal("x*y", "y^3", "x^3 + y^2")), key=max)
        assert reduced_basis(MIXED) == expected
        mutant = mutated(groebner._groebner, old, new)
        assert mutant(_integer_gens(MIXED), head=1) != expected

    def test_an_interreduction_skip_for_the_lead_is_caught_by_the_final_pass_pin(self):
        # (x y + y^2, y^2) is minimal but not reduced
        known = _integer_gens(ideal("x*y + y^2", "y^2"))
        assert groebner._groebner([], 1, known=known) == _integer_gens(ideal("y^2", "x*y"))
        skipped = mutated(groebner._groebner, "if m != leads[i]", "if m == leads[i]")
        assert skipped([], 1, known=known) == sorted(known, key=max)


class TestExactDivisionMutants:
    def test_true_division_of_the_quotient_coefficient_raises(self, monkeypatch):
        # the int rule "rc // lead_c" as "rc / lead_c": int / int is a float,
        # which no coefficient may be; the next quotient step refuses it in
        # its Fraction, and the pipeline when it clears the denominators of
        # alpha = df / x^2 (a monomial divisor, so no later quotient step
        # meets the float)
        assert p("x^2 - y^2").divide_exact(p("x + y")) == p("x - y")
        slash = mutated(Poly.divide_exact, "rc // lead_c", "rc / lead_c")
        monkeypatch.setattr(Poly, "divide_exact", slash)
        with pytest.raises(TypeError):
            p("x^2 - y^2").divide_exact(p("x + y"))
        with pytest.raises(AttributeError, match="'float' object has no attribute 'denominator'"):
            invariants(golden_sextic())

    def test_a_dropped_exponent_check_is_caught(self, monkeypatch, capsys):
        # x^2 + y = x * x + x^(-1) y * x: without the check the remainder
        # y is divided anyway, and the branches x and y become "associate";
        # the associate test runs only once a scan refuses, so the curve
        # has a non-reduced residual, the clause it names unmutated
        curve = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)], p("(x+y)^2"))
        residual = "residual x^2 + 2*x*y + y^2 is not reduced: its singular locus is not isolated"
        associate = "branches x and y are associate (identical branches)"
        assert p("x^2 + y").divide_exact(p("x")) is None
        with pytest.raises(InputError, match=f"^{re.escape(residual)}$"):
            check_hypotheses(curve)
        unchecked = mutated(Poly.divide_exact, "if any(e < 0 for e in qe):", "if False:")
        monkeypatch.setattr(Poly, "divide_exact", unchecked)
        assert p("x^2 + y").divide_exact(p("x")) is not None
        with pytest.raises(InputError, match=f"^{re.escape(associate)}$"):
            check_hypotheses(curve)
        argv = ["invariants", "--factors", "x:2,y:2", "--residual", "(x+y)^2"]
        assert main(argv, out=io.StringIO()) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {associate}\n"


class TestSubstituteMutant:
    def test_swapped_target_positions_are_caught_by_the_general_route(self, monkeypatch):
        # x^2 y with x -> z, y -> w re-indexed into (w, z) is w z^2; with the
        # two target positions swapped it would be w^2 z
        ring = ("w", "z")
        images = {"x": Poly.variable(ring, "z"), "y": Poly.variable(ring, "w")}
        assert p("x^2*y").substitute(images) == reference_substitute(p("x^2*y"), images)
        swapped = mutated(Poly.substitute, "zip(slots, exps)", "zip(slots[::-1], exps)")
        monkeypatch.setattr(Poly, "substitute", swapped)
        assert p("x^2*y").substitute(images) == parse_polynomial("w^2*z", ring)
        assert p("x^2*y").substitute(images) != reference_substitute(p("x^2*y"), images)


class TestIsolationMutant:
    # curves through 0 (a line, two lines, a line with an embedded point):
    # the verdicts are compared, never fed to a scan that could not end
    @pytest.mark.parametrize("texts", [("x",), ("x*y",), ("x^2", "x*y")], ids=",".join)
    def test_a_unit_return_on_every_ideal_is_caught_by_the_reference(
        self, monkeypatch, texts
    ):
        I = ideal(*texts)
        assert isolated_at_origin(I) is reference_isolated(I) is False
        monkeypatch.setattr(IdealGens, "contains_unit", lambda self: True)
        assert isolated_at_origin(I) is True
        assert reference_isolated(I) is False


class TestJsonWriterMutant:
    def test_ascii_unsafe_strings_are_caught_against_json_dumps(self, monkeypatch):
        value = {"\u00e9": ["\U0001f600"]}
        assert cli._json(value) == json.dumps(value, indent=2)
        monkeypatch.setattr("brieskorn.cli.encode_basestring_ascii", encode_basestring)
        assert cli._json(value) != json.dumps(value, indent=2)

    def test_an_empty_dict_laid_out_as_a_list_is_caught_by_the_writer_property(
        self, monkeypatch
    ):
        # the property of TestJsonWriter: its example holds {} at two depths,
        # and its search finds {} itself
        assert prints_what_json_dumps_prints(STRING_AND_CONTAINER_EXAMPLE)
        wrong = mutated(cli._json, 'if items else "{}"', 'if items else "[]"')
        monkeypatch.setattr(cli, "_json", wrong)
        assert not prints_what_json_dumps_prints(STRING_AND_CONTAINER_EXAMPLE)
        assert find(JSON_VALUES, lambda value: not prints_what_json_dumps_prints(value)) == {}


class TestRecordWriterMutants:
    """``ABModule.to_json`` writes each record by hand; ``writes_its_record``,
    the property of ``TestRecordWriter``, compares it with ``json.dumps``."""

    @pytest.mark.parametrize(
        "old,new",
        [("g = gcd(n, scale)", "g = 1"), ('if terms else "[]"', 'if terms else f"[{i3}]"')],
        ids=["coefficient-not-reduced", "empty-cell-across-lines"],
    )
    def test_is_caught_by_the_writer_property(self, monkeypatch, old, new):
        # scale 6: 1/2 is 3/6 unreduced; the off-diagonal cells are empty
        module = ABModule(2, 4, [[[0, Fraction(1, 2), 1], []], [[], [0, Fraction(1, 3)]]])
        assert writes_its_record(module)
        monkeypatch.setattr(ABModule, "to_json", mutated(ABModule.to_json, old, new))
        assert not writes_its_record(module)


class TestRecordTableMutants:
    """``from_record`` scales each distinct text once and ``to_json`` prints
    each distinct numerator once, from one table each.  A reader table that
    scales by the whole lcm keeps every record of integer coefficients; a
    writer table looked up by the absolute numerator keeps every module that
    does not hold both some numerator and its negative."""

    def test_a_reader_table_scaled_by_the_lcm_is_caught_by_the_reference_reader(
        self, monkeypatch
    ):
        record = {"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "2"], [2, "-1"]]]]}
        assert reads_like_the_reference(record)
        mutant = mutated(ABModule._of_ratios, "p * (scale // q)", "p * scale")
        monkeypatch.setattr(ABModule, "_of_ratios", mutant)
        assert reads_like_the_reference(record)  # the scale 1 hides it
        caught = find(repeating_records(), lambda r: not reads_like_the_reference(r))
        assert ABModule.from_record(caught).scale > 1

    def test_a_writer_table_keyed_by_the_absolute_numerator_is_caught_by_the_writer_property(
        self, monkeypatch
    ):
        # 1/2 in the first cell, -1/2 in the last: the mutant prints both "1/2"
        module = ABModule(2, 4, [[[0, Fraction(1, 2)], []], [[], [0, Fraction(-1, 2)]]])
        assert writes_its_record(module)
        monkeypatch.setattr(
            ABModule, "to_json", mutated(ABModule.to_json, "texts.get(n)", "texts.get(abs(n))")
        )
        assert not writes_its_record(module)
        assert module.to_record()["a_matrix"][1][1] == [[1, "1/2"]]


class TestLeftOverFallbackMutant:
    def test_a_dropped_fallback_is_caught_by_the_full_parser_on_the_removed_window_flag(
        self, monkeypatch, capsys
    ):
        # the subcommand parser leaves --window 5 over; only the full parser
        # refuses it
        argv = ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", "--window", "5"]
        thin, full = by_both_routes(argv, monkeypatch, capsys)
        assert thin == full and full[0] == EXIT_INVALID
        monkeypatch.setattr(cli, "_parse", mutated(cli._parse, "if not extra:", "if True:"))
        thin, full = by_both_routes(argv, monkeypatch, capsys)
        assert thin[0] == EXIT_OK and thin != full


class TestUnweightedBasisMutant:
    def test_the_count_non_leads_as_the_basis_are_caught_by_the_jet_reference(
        self, monkeypatch
    ):
        # the leads of (x + y^2, y^3) include x, so its non-leads 1, y, y^2
        # are not the greedy basis 1, x, y of the reference
        I = ideal("x + y^2", "y^3")
        stop = _nakayama_order(_JetCounts(I), _colength_bound(I))
        assert local_quotient(I) == jet_quotient(I, stop) == (3, [(0, 0), (1, 0), (0, 1)])
        non_leads = mutated(
            _JetCounts.basis,
            "greatest = self.rows if self.graded else self._greatest_terms(k)",
            "greatest = self.rows",
        )
        monkeypatch.setattr(_JetCounts, "basis", non_leads)
        assert local_quotient(I) == (3, [(0, 0), (0, 1), (0, 2)]) != jet_quotient(I, stop)


class TestGradedCountMutants:
    """A count reads its basis off its non-leads only when it is exact and
    its rows are homogeneous (``local_algebra._homogeneous``).  Each mutant
    calls a count graded that is not, so non-leads that are not the greedy
    basis are read as one, and the jet basis reference refuses them."""

    def test_a_test_that_ignores_the_image_raises_is_caught(self, monkeypatch):
        # the jet corpus cannot see this mutant: on cusp-x2.x2+y3 (h = x is
        # homogeneous, the image raises the degree by 1 and 2) the non-leads
        # are the greedy basis 1, y; on x^2 y^2 (y^2 + x), h = x y is
        # homogeneous, its image is not, and the non-leads are not
        curve = FactoredCurve.of(XY, [(p("x"), 2), (p("y"), 2)], p("y^2 + x"))
        report = invariants(curve)
        assert nu_exponents(report) == sorted(nu_reference(curve, report.nu))
        ignored = mutated(local_algebra._homogeneous, "len(image.raises(w)) <= 1", "True")
        monkeypatch.setattr(local_algebra, "_homogeneous", ignored)
        report = invariants(curve)
        assert nu_exponents(report) != sorted(nu_reference(curve, report.nu))

    def test_a_test_that_ignores_a_non_homogeneous_generator_is_caught(self, monkeypatch):
        # cusp-x2.x2+y3 of the jet corpus: the mu scan of (a, b), which is
        # homogeneous in no weights, reads its greatest terms off the span
        cusp = FactoredCurve.of(XY, [(p("x"), 2)], p("x^2+y^3"))
        I = IdealGens.of(XY, annihilator_form(cusp))
        stop = _nakayama_order(_JetCounts(I), _colength_bound(I))
        assert local_quotient(I) == jet_quotient(I, stop)
        ignored = mutated(local_algebra._homogeneous, "gens and ", "")
        monkeypatch.setattr(local_algebra, "_homogeneous", ignored)
        assert local_quotient(I) != jet_quotient(I, stop)

    def test_a_gfp_count_called_graded_is_caught(self, monkeypatch):
        # the jet corpus cannot see this mutant: a GF(p) count runs only on
        # input homogeneous in no unit weights, where the test is false
        # anyway.  The four lines are homogeneous, and mod 2 their count runs
        # ahead, to 10 at order 4 against nu_4 = 8: called graded, it reads
        # 10 non-leads
        lines = FactoredCurve.of(XY, [(p(t), 2) for t in ("x", "y", "x+y", "x-y")])
        sat = IdealGens.of(XY, [lines.multiplicity_cofactor()])
        [image] = exact_form_images(annihilator_form(lines)).values()
        expected = nu_jet_basis(sat, annihilator_field(lines), 4)
        assert _JetCounts(sat, image, 24, 2).basis(4) == expected
        graded = mutated(_JetCounts.__init__, "modulus is None and _homogeneous", "_homogeneous")
        monkeypatch.setattr(_JetCounts, "__init__", graded)
        assert len(_JetCounts(sat, image, 24, 2).basis(4)) == 10 != len(expected)


class TestExactNonzeroMutant:
    def test_a_dropped_normaliser_is_caught(self, monkeypatch):
        # 1/2 x + 1/2 x has the integral coefficient 1, which the
        # normaliser stores as an int; without it the sum keeps Fraction(1)
        half = p("1/2*x")
        assert_exact(half + half)
        unnormalised = mutated(poly._exact_nonzero, "exact_scalar(c)", "c")
        monkeypatch.setattr(poly, "_exact_nonzero", unnormalised)
        assert type((half + half).terms[(1, 0)]) is Fraction
        with pytest.raises(AssertionError):
            assert_exact(half + half)


class TestParserMutants:
    """The parser adds, multiplies and raises plain term dicts; the property
    ``test_poly.TestParser.test_products_and_powers_are_the_reference_arithmetic``
    (``parses_like_the_reference``) compares its parses with a schoolbook
    product."""

    @pytest.mark.parametrize(
        "function,old,new",
        [
            (poly._power, "c**exponent", "c"),
            (poly._Parser.parse_atom, "{e: -v for e, v", "{e: v for e, v"),
        ],
        ids=["one-term-power-keeps-its-coefficient", "unary-minus-drops-its-sign"],
    )
    def test_is_caught_by_the_reference_arithmetic(self, monkeypatch, function, old, new):
        a, b = p("2*x"), p("-1/2*y + 1")
        assert parses_like_the_reference(a, b, 2)
        owner = poly if function is poly._power else poly._Parser
        monkeypatch.setattr(owner, function.__name__, mutated(function, old, new))
        assert not parses_like_the_reference(a, b, 2)


class TestRunningCountMutant:
    def test_a_count_one_degree_late_is_caught_by_the_recount(self, monkeypatch):
        # the rows of (x^2, y^3) lead in degrees 2 and 3: q(3) counts x^2
        counts = _JetCounts(ideal("x^2", "y^3"))
        assert reads_the_count_of_its_rows(counts, 5)
        late = mutated(_JetCounts._advance, "get(k - 1, 0)", "get(k, 0)")
        monkeypatch.setattr(_JetCounts, "_advance", late)
        assert not reads_the_count_of_its_rows(_JetCounts(ideal("x^2", "y^3")), 5)


class TestLeadReductionMutants:
    """``linalg.reduce_by_leads`` is the one exact reduction, shared by
    ``Span`` and the exact jet count.  A reduction that cancels one lead and
    calls what is left 0, or that files a new row under its greatest column
    instead of its least, is caught by the property
    ``test_linalg.test_span_is_the_space_of_the_reference``
    (``agrees_with_the_reference`` on ``span_cases``), and by the count of
    the four lines of the jet corpus against the reference jet quotient."""

    MUTANTS = pytest.mark.parametrize(
        "old, new",
        [("while vec:", "if vec:"), ("rows[lead] = vec", "rows[max(vec)] = vec")],
        ids=["one-cancel", "filed-under-the-greatest-column"],
    )

    @MUTANTS
    def test_is_caught_by_the_reference_property(self, monkeypatch, old, new):
        monkeypatch.setattr(linalg, "reduce_by_leads", mutated(linalg.reduce_by_leads, old, new))
        case = find(span_cases(), lambda case: not agrees_with_the_reference(*case))
        monkeypatch.undo()
        assert agrees_with_the_reference(*case)

    @MUTANTS
    def test_is_caught_by_the_jet_count(self, monkeypatch, old, new):
        # the graded count of (a, b) for x^2 y^2 (x + y)^2 (x - y)^2: one
        # cancel leaves rows out (10 classes), a misfiled row keeps the
        # count 9 but reads a basis off the wrong leads
        [lines] = [c for c in jet_corpus() if str(c) == "(x)^2 * (y)^2 * (x + y)^2 * (x - y)^2"]
        I = IdealGens.of(XY, annihilator_form(lines))
        stop = _nakayama_order(_JetCounts(I), _colength_bound(I))
        expected = jet_quotient(I, stop)
        counts = _JetCounts(I)
        assert (counts.quotient_dim(stop), counts.basis(stop)) == expected
        mutant = mutated(local_algebra.reduce_by_leads, old, new)
        monkeypatch.setattr(local_algebra, "reduce_by_leads", mutant)
        counts = _JetCounts(I)
        assert (counts.quotient_dim(stop), counts.basis(stop)) != expected
