"""A report's ``to_dict()`` is its payload: the dict that ``report_model``
builds field by field, and ``cli._json``, the one JSON writer, prints it as
``json.dumps(payload, indent=2)`` does.  The members the CLI adds are plain
dict members, and the text format keeps its bytes."""

from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given

from brieskorn import cli
from brieskorn.curve import invariants
from brieskorn.poly import parse_polynomial
from brieskorn.suspension import milnor_isolated, suspend, verify_suspension_direct

from report_model import direct_payload, germ_payload, invariant_payload, suspension_payload
from test_curve import corpus_cases, factored, weighted_curves


def prints(payload: dict, reference: dict) -> bool:
    """``cli._json(payload)`` is ``json.dumps(reference, indent=2)``; a
    suspension's payload holds the ABModule whose record the reference holds."""
    return cli._json(payload) == json.dumps(reference, indent=2)


def run(argv) -> str:
    out = io.StringIO()
    assert cli.main(argv, out=out) == cli.EXIT_OK
    return out.getvalue()


class TestInvariantReport:
    @pytest.mark.parametrize("curve,weights,reference", corpus_cases())
    def test_corpus_curves(self, curve, weights, reference):
        report = invariants(curve, weights)
        assert report.to_dict() == invariant_payload(report)
        assert prints(report.to_dict(), invariant_payload(report))

    @given(weighted_curves())
    def test_weighted_curves(self, drawn):
        curve, weights = drawn
        report = invariants(curve, weights)
        assert report.to_dict() == invariant_payload(report)
        assert prints(report.to_dict(), invariant_payload(report))

    def test_a_rank_zero_curve_writes_empty_lists(self):
        report = invariants(factored([("x", 2)]), (1, 1))
        assert (report.rank, report.a_action) == (0, ())
        assert report.to_dict() == invariant_payload(report)
        assert prints(report.to_dict(), invariant_payload(report))

    def test_an_action_class_outside_the_basis_is_written_by_its_own_text(self):
        report = invariants(factored([("x", 3)], "x^3+y^3"), (1, 1))
        other = report._replace(a_action=((parse_polynomial("x - y", ("x", "y")), Fraction(1, 2)),))
        assert other.to_dict() == invariant_payload(other)
        assert prints(other.to_dict(), invariant_payload(other))


# (isolated germ, curve factors, residual, weights): with an (a,b)-module
# model, unweighted with none, and a weighted rank-0 curve with none
SUSPENSIONS = [
    ("z^3", [("x", 2), ("y", 2)], None, (1, 1)),
    ("z^4", [("x^2-y^3", 2)], None, (3, 2)),
    ("z^2", [("x", 2), ("y", 3)], None, None),
    ("z^3", [("x", 3)], "x^3+y^3", None),
    ("z^2", [("x", 2)], None, (1, 1)),
]


class TestSuspensionReport:
    @pytest.mark.parametrize("germ,factors,residual,weights", SUSPENSIONS)
    def test_writes_the_germ_the_curve_the_model_and_the_direct_check(
        self, germ, factors, residual, weights
    ):
        curve = factored(factors, residual)
        isolated = milnor_isolated(parse_polynomial(germ, ("z",)))
        curve_report = invariants(curve, weights)
        report = suspend(isolated, curve_report)
        assert (report.ab_model is None) == (weights is None or curve_report.rank == 0)
        reference = suspension_payload(report)
        payload = {**reference, "ab_model": report.ab_model}
        assert report.to_dict() == payload
        assert prints(report.to_dict(), reference)
        assert isolated.to_dict() == germ_payload(isolated)
        assert prints(isolated.to_dict(), germ_payload(isolated))
        check = verify_suspension_direct(isolated, curve, curve_report)
        assert check.to_dict() == direct_payload(check)
        assert prints(check.to_dict(), direct_payload(check))


# each command's JSON envelope is the text json.dumps(indent=2) prints
ENVELOPES = [
    ["invariants", "--factors", "x:3,y:2", "--residual", "x^2+y^3", "--weights", "3,2"],
    ["invariants", "--factors", "x+y^2:2,y:2"],
    ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", "--check-witness"],
    ["suspend", "--isolated", "z^3", "--factors", "x:2,y:2", "--weights", "1,1", "--verify-direct"],
]


@pytest.mark.parametrize("argv", ENVELOPES, ids=lambda argv: " ".join(argv[:3]))
def test_envelopes_print_what_json_dumps_prints(argv):
    text = run(argv + ["--format", "json"])
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


GRADED_TEXT = (
    'brieskorn invariants\n'
    '  input f: x^2*y^2\n'
    '  input factored: (x)^2 * (y)^2\n'
    '  input variables: x,y\n'
    '  input weights: 1,1\n'
    '  f: x^2*y^2\n'
    "  variables: ['x', 'y']\n"
    '  mu: 1\n'
    '  nu: 1\n'
    '  gamma: 0\n'
    '  delta: 0\n'
    '  rank: 2\n'
    '  betti_n: 2\n'
    "  basis: ['x*y', '1']\n"
    "  basis_mu: ['x*y']\n"
    "  basis_nu: ['1']\n"
    '  a_action:\n'
    '    monomial=x*y, coefficient=1\n'
    '    monomial=1, coefficient=1/2\n'
    '  weights:\n'
    "    weights: ['1', '1']\n"
    '    total_degree: 4\n'
    '  assumptions:\n'
    '    torsion_free: True\n'
    '    torsion_free_justification: plane curve in two variables: both torsion corrections vanish\n'
    '    exact: True\n'
    '  torsion_free_witness:\n'
    '    holds: True\n'
    '    jet_order: 12\n'
)

SUSPEND_TEXT = (
    'brieskorn suspend\n'
    '  input isolated: z^3\n'
    '  input isolated_variables: z\n'
    '  input g: x^2*y^2\n'
    '  input factored: (x)^2 * (y)^2\n'
    '  input variables: x,y\n'
    '  input weights: 1,1\n'
    '  F: (z^3) + (x^2*y^2)\n'
    '  mu: 2\n'
    '  nu: 2\n'
    '  rank: 4\n'
    '  basis_pairs:\n'
    '    isolated=1, curve=x*y\n'
    '    isolated=1, curve=1\n'
    '    isolated=z, curve=x*y\n'
    '    isolated=z, curve=1\n'
    '  ab_model:\n'
    '    rank: 4\n'
    '    trunc_order: 16\n'
    '    label: suspension(z^3 + x^2*y^2)\n'
    "    a_matrix: [[[[1, '4/3']], [], [], []], [[], [[1, '5/6']], [], []], [[], [], [[1, '5/3']], []], [[], [], [], [[1, '7/6']]]]\n"
    "  provenance: ['mu: Milnor number of the isolated factor times curve mu', 'nu: Milnor number of the isolated factor times curve nu', 'rank: Milnor number of the isolated factor times curve rank', 'ab_model: tensor of the diagonal models, action coefficients add']\n"
    '  isolated:\n'
    '    f: z^3\n'
    "    variables: ['z']\n"
    '    milnor: 2\n'
    "    basis: ['1', 'z']\n"
    "    weights: ['1/3']\n"
    "    a_action: [{'monomial': '1', 'coefficient': '1/3'}, {'monomial': 'z', 'coefficient': '2/3'}]\n"
    '  curve:\n'
    '    f: x^2*y^2\n'
    "    variables: ['x', 'y']\n"
    '    mu: 1\n'
    '    nu: 1\n'
    '    gamma: 0\n'
    '    delta: 0\n'
    '    rank: 2\n'
    '    betti_n: 2\n'
    "    basis: ['x*y', '1']\n"
    "    basis_mu: ['x*y']\n"
    "    basis_nu: ['1']\n"
    "    a_action: [{'monomial': 'x*y', 'coefficient': '1'}, {'monomial': '1', 'coefficient': '1/2'}]\n"
    "    weights: {'weights': ['1', '1'], 'total_degree': '4'}\n"
    "    assumptions: {'torsion_free': True, 'torsion_free_justification': 'plane curve in two variables: both torsion corrections vanish', 'exact': True}\n"
    '  direct_check:\n'
    '    mu_direct: 2\n'
    '    mu_transported: 2\n'
    '    agrees: True\n'
    '    exact: True\n'
)


def test_text_format_of_a_graded_call_with_its_witness():
    argv = ["invariants", "--factors", "x:2,y:2", "--weights", "1,1", "--check-witness"]
    assert run(argv) == GRADED_TEXT


def test_text_format_of_a_suspend_call_with_its_model_and_direct_check():
    argv = ["suspend", "--isolated", "z^3", "--factors", "x:2,y:2", "--weights", "1,1"]
    assert run(argv + ["--verify-direct"]) == SUSPEND_TEXT
