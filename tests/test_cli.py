"""Command-line interface: subcommands, exit codes, and determinism."""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import brieskorn
from brieskorn import ab_module, cli
from brieskorn.ab_module import DEFAULT_TRUNC_ORDER, ABModule
from brieskorn.cli import EXIT_CLOSED_STDOUT, EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, main
from brieskorn.curve import FactoredCurve, invariants, milnor_fibre_betti
from brieskorn.local_algebra import DEFAULT_JET_CAP, twisted_quotient_dim
from brieskorn.poly import Poly
from brieskorn.suspension import suspend

GOLDEN = [
    "invariants",
    "--factors", "x:3",
    "--residual", "x^3+y^3",
    "--vars", "x,y",
    "--weights", "1,1",
    "--format", "json",
]


# Graded inputs whose quotient sat(J)/J lies entirely above the first
# nonempty slices; the expected mu are Groebner-basis colengths.
GRADED_MU_CASES = [
    (["--factors", "x:2,y:2,x+y:2,x-y:2", "--weights", "1,1"], 9),
    (["--factors", "x:3,y:2", "--residual", "x^2+y^3", "--weights", "3,2"], 12),
    (["--factors", "x^2-y^3:2", "--weights", "3,2"], 2),
    (["--factors", "x^2+y^5:2", "--weights", "5,2"], 4),
]


# Malformed input: each must exit 1 with "error:", never with a traceback.
# "{file}" is a module file holding the given text (None: no file at all).
MALFORMED_INPUTS = [
    ("weights-zero-denominator",
     ["invariants", "--factors", "x:2,y:2", "--weights", "1/0,1"], None),
    ("weights-not-a-number",
     ["invariants", "--factors", "x:2,y:2", "--weights", "a,1"], None),
    ("residual-zero-denominator",
     ["invariants", "--factors", "x:2", "--residual", "1/0"], None),
    ("record-zero-denominator", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "1/0"]]]]})),
    ("record-missing-key", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "a_matrix": [[[[1, "1"]]]]})),
    ("record-power-past-truncation", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "trunc_order": 4, "a_matrix": [[[[4, "1"]]]]})),
    ("record-float-truncation", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "trunc_order": 16.0, "a_matrix": [[[[1, "1/2"]]]]})),
    ("record-float-rank", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1.0, "trunc_order": 16, "a_matrix": [[[[1, "1/2"]]]]})),
    ("record-boolean-power", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "trunc_order": 16, "a_matrix": [[[[True, "1/2"]]]]})),
    ("record-repeated-power", ["abmod", "check", "{file}"],
     json.dumps({"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "1"], [1, "2"]]]]})),
    ("not-json", ["abmod", "check", "{file}"], "rank: 1"),
    ("missing-file", ["abmod", "check", "{file}"], None),
]


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv,content", [case[1:] for case in MALFORMED_INPUTS],
    ids=[case[0] for case in MALFORMED_INPUTS],
)
def test_malformed_input_is_invalid_not_a_traceback(tmp_path, capsys, argv, content):
    path = tmp_path / "module.json"
    if content is not None:
        path.write_text(content)
    code, _ = run([arg.format(file=path) for arg in argv])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


# The stderr of each MALFORMED_INPUTS case, byte for byte ("{file}" is the
# module file): the integer parse of records keeps the messages of the
# Fraction parse it replaced.
MALFORMED_STDERR = {
    "weights-zero-denominator": "error: not a rational number: '1/0'\n",
    "weights-not-a-number": "error: not a rational number: 'a'\n",
    "residual-zero-denominator": "error: zero denominator (at position 2)\n",
    "record-zero-denominator": "error: not a rational number: '1/0'\n",
    "record-missing-key": "error: malformed module record (KeyError: 'trunc_order')\n",
    "record-power-past-truncation": "error: b-power 4 outside the truncation 0..3\n",
    "record-float-truncation":
        "error: malformed module record (TypeError: 16.0 is not an integer)\n",
    "record-float-rank": "error: malformed module record (TypeError: 1.0 is not an integer)\n",
    "record-boolean-power":
        "error: malformed module record (TypeError: True is not an integer)\n",
    "record-repeated-power":
        "error: malformed module record (ValueError: b-power 1 repeated in one entry)\n",
    "not-json":
        "error: module file {file} is not JSON: Expecting value: line 1 column 1 (char 0)\n",
    "missing-file": "error: cannot read module file {file}: No such file or directory\n",
}


@pytest.mark.parametrize(
    "name,argv,content", MALFORMED_INPUTS, ids=[case[0] for case in MALFORMED_INPUTS]
)
def test_malformed_input_prints_its_pinned_error(tmp_path, capsys, name, argv, content):
    path = tmp_path / "module.json"
    if content is not None:
        path.write_text(content)
    code, _ = run([arg.format(file=path) for arg in argv])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == MALFORMED_STDERR[name].format(file=path)


# Usage errors are invalid input (exit 1), not inconclusive (exit 2).
USAGE_ERRORS = [
    ("jet-cap-not-an-integer", ["invariants", "--factors", "x:3", "--jet-cap", "abc"]),
    ("unknown-flag", ["invariants", "--factors", "x:3", "--bogus", "1"]),
    ("removed-window-flag", ["invariants", "--factors", "x:3", "--window", "5"]),
    ("missing-factors", ["invariants"]),
    ("abmod-check-without-file", ["abmod", "check"]),
    ("no-command", []),
]


@pytest.mark.parametrize(
    "argv", [case[1] for case in USAGE_ERRORS], ids=[case[0] for case in USAGE_ERRORS]
)
def test_usage_error_is_invalid_input(capsys, argv):
    assert run(argv) == (EXIT_INVALID, "")
    assert "error:" in capsys.readouterr().err


CURVE = ["--factors", "x:3", "--residual", "x^3+y^3"]
BELOW_BOUND = [
    ("invariants-jet-cap-0", ["invariants", *CURVE, "--jet-cap", "0"]),
    ("invariants-trunc-1", ["invariants", *CURVE, "--trunc", "1"]),
    ("suspend-jet-cap-0", ["suspend", "--isolated", "z^2", *CURVE, "--jet-cap", "0"]),
    ("suspend-trunc-1", ["suspend", "--isolated", "z^2", *CURVE, "--trunc", "1"]),
    ("selftest-trunc-1", ["abmod", "selftest", "--trunc", "1"]),
    ("identity-n-0", ["abmod", "identity", "--n", "0"]),
    ("check-k-0", ["abmod", "check", "E.json", "--k", "1", "--k", "0"]),
]


@pytest.mark.parametrize(
    "argv", [case[1] for case in BELOW_BOUND], ids=[case[0] for case in BELOW_BOUND]
)
def test_setting_below_its_bound_is_a_usage_error(capsys, argv):
    assert run(argv) == (EXIT_INVALID, "")
    assert "must be at least" in capsys.readouterr().err


class TestRegularityOrderCeiling:
    """abmod check --k is at most 32: is_regular grows as the cube of rank * k."""

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"rank": 1, "trunc_order": 40, "a_matrix": [[[[1, "1"]]]]}))
        return str(path)

    def test_k_32_is_checked(self, deep):
        code, text = run(["abmod", "check", deep, "--k", "32"])
        assert code == EXIT_OK
        assert json.loads(text)["regular_k32"] is True

    @pytest.mark.parametrize("k", ["33", "1000"])
    def test_k_past_32_is_a_usage_error(self, capsys, deep, k):
        assert run(["abmod", "check", deep, "--k", "1", "--k", k]) == (EXIT_INVALID, "")
        assert capsys.readouterr().err.endswith(
            f"brieskorn abmod check: error: argument --k: must be at most 32, got {k}\n"
        )


class TestRegularityLadder:
    """abmod check decides every --k from one operator and one a-power ladder,
    built for the largest k; each flag is that of a single --k run."""

    @pytest.fixture
    def nilpotent(self, tmp_path):
        # A(0) a 3x3 Jordan block: regular from k = 3 on
        path = tmp_path / "J.json"
        cells = [
            [[[1, "1/2"]], [[0, "1"]], []],
            [[], [[1, "1"]], [[0, "1"]]],
            [[], [], [[1, "-1"]]],
        ]
        path.write_text(json.dumps({"rank": 3, "trunc_order": 8, "a_matrix": cells}))
        return str(path)

    def test_one_operator_for_every_order(self, monkeypatch, nilpotent):
        built = []
        operator = ab_module._integer_operator

        def counted(module, order):
            built.append(order)
            return operator(module, order)

        monkeypatch.setattr(ab_module, "_integer_operator", counted)
        code, text = run(["abmod", "check", nilpotent, "--k", "1", "--k", "2", "--k", "3"])
        assert (code, built) == (EXIT_OK, [3])
        assert [json.loads(text)[f"regular_k{k}"] for k in (1, 2, 3)] == [False, False, True]

    def test_flags_are_the_single_order_flags_in_the_given_order(self, nilpotent):
        argv = ["abmod", "check", nilpotent, "--k", "3", "--k", "1", "--k", "2", "--k", "3"]
        code, text = run(argv)
        flags = json.loads(text)
        assert code == EXIT_OK and list(flags)[4:] == ["regular_k3", "regular_k1", "regular_k2"]
        for k in (3, 1, 2):
            single = json.loads(run(["abmod", "check", nilpotent, "--k", str(k)])[1])
            assert flags[f"regular_k{k}"] is single[f"regular_k{k}"]

    def test_an_order_past_the_truncation_prints_nothing(self, capsys, nilpotent):
        assert run(["abmod", "check", nilpotent, "--k", "1", "--k", "7"]) == (EXIT_INCONCLUSIVE, "")
        assert "k=7" in capsys.readouterr().err


# abmod identity, tensor and check read no run setting, so they take none
@pytest.mark.parametrize(
    "setting", [["--format", "json"], ["--jet-cap", "8"], ["--trunc", "8"], ["--seed", "1"],
                ["--timing"]],
    ids=lambda setting: setting[0],
)
@pytest.mark.parametrize(
    "command",
    [["identity", "--n", "2"], ["tensor", "E.json", "F.json"], ["check", "E.json"]],
    ids=lambda command: command[0],
)
def test_abmod_takes_no_setting_it_does_not_read(capsys, command, setting):
    assert run(["abmod", *command, *setting]) == (EXIT_INVALID, "")
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    # the text goes to ``out``, like every report, and not to the process's
    # stdout
    code, text = run([flag])
    assert code == EXIT_OK
    assert text.startswith("usage: brieskorn" if flag == "--help" else brieskorn.__version__)
    assert capsys.readouterr().out == ""


# ``main`` parses a call with the innermost subcommand parser that its
# leading words name; the reference parses it with the full parser.
# "{dir}" holds the module files E.json and F.json of the CI step.
VALID_CALLS = [
    ("readme-golden", GOLDEN),
    ("readme-two-branches", ["invariants", "--factors", "x:2,y:2", "--weights", "1,1"]),
    ("readme-expansion", ["invariants", *CURVE, "--f", "x^6 + x^3*y^3", "--weights", "1,1"]),
    ("ci-witness", ["invariants", "--factors", "x:2,y:3", "--vars", "x,y", "--check-witness"]),
    ("equals-form", ["invariants", "--factors=x:2,y:2", "--weights=1,1", "--jet-cap=8"]),
    ("readme-suspend", ["suspend", "--isolated", "z^2", *CURVE, "--weights", "1,1",
                        "--verify-direct"]),
    ("readme-identity", ["abmod", "identity", "--n", "5"]),
    ("readme-tensor", ["abmod", "tensor", "{dir}/E.json", "{dir}/F.json", "-o",
                       "{dir}/EF.json"]),
    ("ci-check", ["abmod", "check", "{dir}/F.json", "--k", "1", "--k", "2"]),
    ("check-after-separator", ["abmod", "check", "--", "{dir}/F.json"]),
    ("readme-selftest", ["abmod", "selftest", "--count", "25", "--seed", "0"]),
]
USAGE_CALLS = [
    ("no-arguments", []),
    ("version", ["--version"]),
    ("help", ["-h"]),
    ("invariants-help", ["invariants", "-h"]),
    ("check-help", ["abmod", "check", "--help"]),
    ("abmod-alone", ["abmod"]),
    ("abmod-help", ["abmod", "-h"]),
    ("abmod-check-without-file", ["abmod", "check"]),
    ("unknown-command", ["curve", "--factors", "x:2"]),
    ("unknown-abmod-command", ["abmod", "sum", "E.json"]),
    ("removed-window-flag", ["invariants", *CURVE, "--window", "5"]),
    ("flags-before-the-command", ["--factors", "x:2", "--version"]),
    ("jet-cap-0", ["invariants", *CURVE, "--jet-cap", "0"]),
    ("format-xml", ["invariants", *CURVE, "--format", "xml"]),
    ("missing-factors", ["invariants", "--weights", "1,1"]),
    ("check-trunc", ["abmod", "check", "{dir}/F.json", "--trunc", "5"]),
    ("identity-not-an-integer", ["abmod", "identity", "--n", "x"]),
    ("identity-n-0", ["abmod", "identity", "--n", "0"]),
    ("selftest-count-0", ["abmod", "selftest", "--count", "0"]),
    ("separator-before-flags", ["invariants", "--", "--factors", "x:2"]),
    ("top-level-equals-form", ["--factors=x:2,y:2"]),
    ("extra-positional", ["abmod", "tensor", "{dir}/E.json", "{dir}/F.json", "{dir}/E.json"]),
    ("abbreviated-flag", ["invariants", *CURVE, "--jet", "8", "--form", "json"]),
]


@pytest.fixture
def module_dir(tmp_path) -> Path:
    (tmp_path / "E.json").write_text(
        json.dumps({"rank": 1, "trunc_order": 8, "label": "E", "a_matrix": [[[[1, "1/2"]]]]})
    )
    (tmp_path / "F.json").write_text(
        json.dumps(
            {"rank": 2, "trunc_order": 8, "label": "F",
             "a_matrix": [[[[1, "1"]], [[2, "1/3"]]], [[], [[1, "-1"], [3, "2"]]]]}
        )
    )
    return tmp_path


def full_parse(argv):
    return cli._parser().parse_args(argv)


def by_both_routes(argv, monkeypatch, capsys):
    """Exit code, stdout and stderr of ``main(argv)``, then of the same call
    parsed by the full parser."""
    capsys.readouterr()
    outcomes = []
    for parse in (cli._parse, full_parse):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse", parse)
            outcomes.append((*run(argv), capsys.readouterr().err))
    return outcomes


class TestInnermostParserRoute:
    @pytest.mark.parametrize(
        "argv", [case[1] for case in VALID_CALLS + USAGE_CALLS],
        ids=[case[0] for case in VALID_CALLS + USAGE_CALLS],
    )
    def test_main_prints_what_the_full_parser_prints(self, module_dir, monkeypatch, capsys, argv):
        argv = [arg.format(dir=module_dir) for arg in argv]
        thin, full = by_both_routes(argv, monkeypatch, capsys)
        assert thin == full

    @pytest.mark.parametrize(
        "argv", [case[1] for case in VALID_CALLS], ids=[case[0] for case in VALID_CALLS]
    )
    def test_valid_calls_parse_to_equal_namespaces_at_the_innermost_parser(
        self, module_dir, monkeypatch, argv
    ):
        argv = [arg.format(dir=module_dir) for arg in argv]
        expected = full_parse(argv)
        assert expected.command == argv[0]
        # the full parser is not consulted for a call its subcommand parser parses
        monkeypatch.setattr(cli._parser(), "parse_args", None)
        assert cli._parse(argv) == expected

    @pytest.mark.parametrize(
        "argv,message",
        [(["invariants", *CURVE, "--window", "5"], "unrecognized arguments: --window 5"),
         (["abmod", "check", "{dir}/F.json", "--trunc", "5"], "unrecognized arguments: --trunc 5")],
        ids=["window", "trunc"],
    )
    def test_a_word_left_over_is_refused_by_the_top_parser(
        self, module_dir, capsys, argv, message
    ):
        assert run([arg.format(dir=module_dir) for arg in argv]) == (EXIT_INVALID, "")
        assert capsys.readouterr().err.endswith(f"\nbrieskorn: error: {message}\n")


class TestInvariantsCommand:
    def test_golden_json(self):
        code, text = run(GOLDEN)
        assert code == EXIT_OK
        envelope = json.loads(text)
        report = envelope["report"]
        assert (report["mu"], report["nu"], report["rank"]) == (9, 4, 13)
        assert report["basis_nu"] == ["1", "x", "y", "x*y"]
        assert len(report["basis"]) == 13
        assert {e["monomial"]: e["coefficient"] for e in report["a_action"]}["1"] == "1/3"
        assert envelope["warnings"] == []
        assert envelope["timing"] is None

    def test_cross_with_defaults(self):
        code, text = run(
            ["invariants", "--factors", "x:2,y:2", "--weights", "1,1",
             "--format", "json"]
        )
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert (report["mu"], report["nu"], report["rank"]) == (1, 1, 2)

    def test_byte_identical_output(self):
        _, first = run(GOLDEN)
        _, second = run(GOLDEN)
        assert first == second

    def test_json_round_trips(self):
        _, text = run(GOLDEN)
        envelope = json.loads(text)
        assert json.loads(json.dumps(envelope, indent=2)) == envelope

    def test_multiplicity_one_rejected(self):
        code, _ = run(["invariants", "--factors", "x:1"])
        assert code == EXIT_INVALID

    def test_parse_error_is_invalid_input(self):
        code, _ = run(["invariants", "--factors", "x+:2"])
        assert code == EXIT_INVALID

    def test_expansion_mismatch_reported(self):
        code, _ = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3",
             "--f", "x^6"]
        )
        assert code == EXIT_INVALID

    def test_expansion_match_accepted(self):
        code, _ = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3",
             "--f", "x^6 + x^3*y^3", "--weights", "1,1"]
        )
        assert code == EXIT_OK

    def test_expansion_is_checked_against_the_factors_as_written(self, capsys):
        # (2x)^2 y = 4x^2 y; the curve prints its normalized germ x^2 y
        code, text = run(
            ["invariants", "--factors", "2*x:2", "--residual", "y", "--f", "4*x^2*y"]
        )
        assert code == EXIT_OK
        assert "  input f: x^2*y\n" in text
        code, _ = run(["invariants", "--factors", "x:2", "--residual", "y", "--f", "4*x^2*y"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: factored-form mismatch: factors expand to x^2*y but --f gave 4*x^2*y\n"
        )

    def test_repeated_variable_names_are_invalid(self, capsys):
        assert run(["invariants", "--factors", "x:2", "--vars", "x,x"])[0] == EXIT_INVALID
        assert capsys.readouterr().err == "error: duplicate variable names in ('x', 'x')\n"

    def test_a_value_starting_with_a_minus_is_written_with_an_equals_sign(self, capsys):
        # argparse reads "-y" as an option; "--residual=-y" passes it as a value
        code, _ = run(["invariants", "--factors", "x:2", "--residual", "-y"])
        assert code == EXIT_INVALID
        assert "expected one argument" in capsys.readouterr().err
        code, text = run(["invariants", "--factors", "x:2", "--residual=-y"])
        assert code == EXIT_OK
        assert "  input f: -x^2*y\n" in text

    def test_inconclusive_exit_code(self):
        # the sextic's nu scan reaches its target at jet order 3, above the cap
        code, _ = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3",
             "--jet-cap", "2"]
        )
        assert code == EXIT_INCONCLUSIVE
        code, _ = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3",
             "--jet-cap", "3"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("weights", [[], ["--weights", "1,1"]], ids=["jet", "graded"])
    def test_target_past_nu_exits_2_never_a_number(self, monkeypatch, weights):
        # a b_1 + 1 mutant: no scan reaches the target, so the cap ends it
        monkeypatch.setattr(
            "brieskorn.curve.milnor_fibre_betti",
            lambda c: milnor_fibre_betti(c) + 1,
        )
        code, text = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", *weights,
             "--format", "json"]
        )
        assert (code, text) == (EXIT_INCONCLUSIVE, "")

    def test_cap_below_the_stop_order_names_target_and_cap(self, capsys):
        # mu and b_1 read no cap; the jet nu scan runs the orders 1, 2, ...
        # and reaches its target 54 at order 20, above the cap 5
        code, _ = run(
            ["invariants", "--factors", "x:3,x^2-y^5:2,x^2+y^5:2", "--vars", "x,y",
             "--jet-cap", "5"]
        )
        assert code == EXIT_INCONCLUSIVE
        message = capsys.readouterr().err
        assert message == (
            "inconclusive: twisted quotient did not reach the target nu "
            "[jet_cap=5, target=54]\n"
        )
        # at the default cap the same input concludes (deg f = 23 once put
        # jet mu's first order at 25, past the cap)
        code, text = run(
            ["invariants", "--factors", "x:3,x^2-y^5:2,x^2+y^5:2", "--vars", "x,y",
             "--format", "json"]
        )
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert (report["mu"], report["nu"], report["rank"]) == (46, 54, 100)

    def test_hypotheses_do_not_read_the_jet_cap(self):
        # the coefficients of alpha have colength 46, past jet order 16:
        # the hypothesis check must not read --jet-cap
        code, text = run(
            ["invariants", "--factors", "x:3,x^2-y^5:2,x^2+y^5:2", "--vars", "x,y",
             "--weights", "5,2", "--jet-cap", "16", "--format", "json"]
        )
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert (report["mu"], report["nu"], report["rank"]) == (46, 54, 100)
        assert report["assumptions"]["exact"] is True

    def test_witness_flag(self):
        code, text = run(GOLDEN + ["--check-witness"])
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert report["torsion_free_witness"]["holds"] is True

    def test_jet_nu_is_exact_without_weights(self):
        # the jet scan stops at the target b_1 - mu, so it warns of nothing
        code, text = run(
            ["invariants", "--factors", "x:2,y:2", "--format", "json"]
        )
        assert code == EXIT_OK
        envelope = json.loads(text)
        assert envelope["warnings"] == []
        assert envelope["report"]["assumptions"]["exact"] is True
        assert envelope["report"]["a_action"] is None

    def test_timing_opt_in(self):
        code, text = run(GOLDEN + ["--timing"])
        assert code == EXIT_OK
        assert json.loads(text)["timing"]["seconds"] >= 0

    def test_text_format(self):
        code, text = run(
            ["invariants", "--factors", "x:2,y:2", "--weights", "1,1"]
        )
        assert code == EXIT_OK
        assert "mu: 1" in text and "rank: 2" in text


    @pytest.mark.parametrize("args,expected_mu", GRADED_MU_CASES)
    def test_graded_mu_is_certified(self, args, expected_mu):
        code, text = run(["invariants", *args, "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert report["mu"] == expected_mu
        assert report["assumptions"]["exact"]


class TestSuspendCommand:
    def test_golden_suspension(self):
        code, text = run(
            ["suspend", "--isolated", "z^2", "--factors", "x:3",
             "--residual", "x^3+y^3", "--weights", "1,1", "--format", "json"]
        )
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert report["rank"] == 13
        assert report["ab_model"]["rank"] == 13

    @pytest.mark.parametrize("weights", [["--weights", "1,1"], []], ids=["weighted", "jet"])
    def test_rank_zero_curve_suspends_with_no_model(self, weights):
        # x^2 is smooth along its reduced curve: mu = nu = 0, the a-action is
        # empty, and no rank-0 (a,b)-module is built
        code, text = run(["suspend", "--isolated", "z^2", "--factors", "x:2", *weights, "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(text)["report"]
        assert (report["rank"], report["ab_model"]) == (0, None)
        assert not any(line.startswith("ab_model") for line in report["provenance"])

    def test_weighted_text_report_keeps_its_bytes(self):
        # the report carries the ABModule itself; the text format prints its record
        code, text = run(["suspend", "--isolated", "z^4", "--factors", "x:2,y:2", "--weights", "1,1"])
        assert code == EXIT_OK
        block = text[text.index("  ab_model:\n"):text.index("  provenance:")]
        assert block == (
            "  ab_model:\n"
            "    rank: 6\n"
            "    trunc_order: 16\n"
            "    label: suspension(z^4 + x^2*y^2)\n"
            "    a_matrix: [[[[1, '5/4']], [], [], [], [], []], [[], [[1, '3/4']], [], [], [], []], "
            "[[], [], [[1, '3/2']], [], [], []], [[], [], [], [[1, '1']], [], []], "
            "[[], [], [], [], [[1, '7/4']], []], [[], [], [], [], [], [[1, '5/4']]]]\n"
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c2ecf074b51be4f638af0b2c8df3232420e9a9853932283e33a561aa1cb05e09"
        )

    def test_json_model_is_the_record_the_writer_prints(self):
        argv = ["suspend", "--isolated", "z^4", "--factors", "x:2,y:2", "--weights", "1,1"]
        code, text = run([*argv, "--format", "json"])
        assert code == EXIT_OK
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        model = json.loads(text)["report"]["ab_model"]
        assert model["a_matrix"][0][0] == [[1, "5/4"]] and model["a_matrix"][0][1] == []

    def test_z3_gives_rank_26(self):
        code, text = run(
            ["suspend", "--isolated", "z^3", "--factors", "x:3",
             "--residual", "x^3+y^3", "--weights", "1,1", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["report"]["rank"] == 26

    def test_verify_direct(self):
        code, text = run(
            ["suspend", "--isolated", "z^2", "--factors", "x:2,y:2",
             "--weights", "1,1", "--verify-direct", "--format", "json"]
        )
        assert code == EXIT_OK
        check = json.loads(text)["report"]["direct_check"]
        assert check["agrees"] and check["mu_direct"] == 1

    def test_verify_direct_weighted(self):
        code, text = run(
            ["suspend", "--isolated", "z^2", "--factors", "x^2-y^3:2",
             "--weights", "3,2", "--verify-direct", "--format", "json"]
        )
        assert code == EXIT_OK
        check = json.loads(text)["report"]["direct_check"]
        assert check["agrees"] and check["mu_direct"] == 2

    def test_milnor_number_past_the_jet_cap(self):
        # z^29 generates J, so the colength reaches 29 only at jet order 30
        code, text = run(
            ["suspend", "--isolated", "z^30", "--factors", "x:2,y:2",
             "--weights", "1,1", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["report"]["isolated"]["milnor"] == 29

    def test_product_germ_accepted(self):
        code, text = run(
            ["suspend", "--isolated", "z*w", "--factors", "x:2,y:2",
             "--weights", "1,1", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["report"]["rank"] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_polynomial_is_rendered_once(self, monkeypatch, fmt):
        # the echo, the germ record, the curve report, the pairs and the
        # model label name the same polynomials: one rendering each, but for
        # the branch x of the golden sextic, which the echo renders and which
        # is also one of its basis classes
        rendered: Counter = Counter()  # Poly hashes by ring and terms
        render = Poly.__str__

        def counting(poly):
            rendered[poly] += 1
            return render(poly)

        monkeypatch.setattr(Poly, "__str__", counting)
        code, _ = run(
            ["suspend", "--isolated", "z^3", "--factors", "x:3", "--residual", "x^3+y^3",
             "--weights", "1,1", "--format", fmt]
        )
        assert code == EXIT_OK
        x = Poly.variable(("x", "y"), "x")
        assert len(rendered) == 18 and rendered.pop(x) == 2
        assert set(rendered.values()) == {1}

    def test_smooth_germ_rejected(self):
        code, _ = run(
            ["suspend", "--isolated", "z", "--factors", "x:2,y:2"]
        )
        assert code == EXIT_INVALID

    def test_variable_clash_rejected(self):
        code, _ = run(
            ["suspend", "--isolated", "x^2", "--factors", "x:2,y:2"]
        )
        assert code == EXIT_INVALID


class TestAbmodCommands:
    def test_identity(self):
        code, text = run(["abmod", "identity", "--n", "5"])
        assert code == EXIT_OK
        assert text.strip() == "OK"

    def test_tensor_and_check(self, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        out_path = tmp_path / "product.json"
        left.write_text(
            json.dumps(
                {"rank": 1, "trunc_order": 16, "label": "E",
                 "a_matrix": [[[[1, "1/3"]]]]}
            )
        )
        right.write_text(
            json.dumps(
                {"rank": 2, "trunc_order": 16, "label": "F",
                 "a_matrix": [[[[1, "1/2"]], []], [[], [[1, "3/2"]]]]}
            )
        )
        code, _ = run(["abmod", "tensor", str(left), str(right), "-o", str(out_path)])
        assert code == EXIT_OK
        record = json.loads(out_path.read_text())
        assert out_path.read_text() == json.dumps(record, indent=2) + "\n"
        assert record["rank"] == 2
        assert record["a_matrix"][0][0] == [[1, "5/6"]]

        code, text = run(["abmod", "check", str(out_path)])
        assert code == EXIT_OK
        flags = json.loads(text)
        assert text == json.dumps(flags, indent=2) + "\n"
        assert flags["commutation"] and flags["simple_pole"]
        assert flags["regular_k1"] and flags["regular_k2"]

    def test_tensor_prints_each_coefficient_reduced(self, tmp_path):
        # "2/4" and "1/-3" are read as 1/2 and -1/3; the product prints
        # 1/2 - 1/3 = 1/6 on the diagonal (the CI step pins the same bytes)
        (tmp_path / "H.json").write_text(json.dumps(
            {"rank": 2, "trunc_order": 8, "label": "H",
             "a_matrix": [[[[1, "2/4"]], [[2, "2/4"]]], [[], []]]}
        ))
        (tmp_path / "G.json").write_text(json.dumps(
            {"rank": 1, "trunc_order": 8, "label": "G", "a_matrix": [[[[1, "1/-3"]]]]}
        ))
        code, text = run(["abmod", "tensor", str(tmp_path / "H.json"), str(tmp_path / "G.json")])
        assert code == EXIT_OK
        assert json.loads(text)["a_matrix"] == [
            [[[1, "1/6"]], [[2, "1/2"]]], [[], [[1, "-1/3"]]]
        ]

    def test_check_and_tensor_build_no_fraction(self, module_dir):
        # a module is integer numerators over one scale: reading, tensoring,
        # printing and checking it never construct a Fraction (counted at
        # Fraction.__new__, the site bench/tracer.py counts)
        built = []
        original = vars(Fraction)["__new__"]

        def counted(*args, **kwargs):
            built.append(args[1:])
            return original(*args, **kwargs)

        argv = [
            ["abmod", "tensor", str(module_dir / "E.json"), str(module_dir / "F.json"),
             "-o", str(module_dir / "EF.json")],
            ["abmod", "check", str(module_dir / "EF.json"), "--k", "1", "--k", "2", "--k", "3"],
            ["abmod", "check", str(module_dir / "F.json")],
            ["abmod", "tensor", str(module_dir / "F.json"), str(module_dir / "F.json")],
        ]
        Fraction.__new__ = staticmethod(counted)
        try:
            outcomes = [run(args)[0] for args in argv]
        finally:
            Fraction.__new__ = original
        assert outcomes == [EXIT_OK] * len(argv)
        assert built == []
        assert Fraction(1, 2) == 0.5  # the class works again

    @pytest.mark.parametrize(
        "target", ["missing/product.json", "."], ids=["no-such-directory", "a-directory"]
    )
    def test_unwritable_output_is_invalid_not_a_traceback(self, tmp_path, capsys, target):
        module = tmp_path / "E.json"
        module.write_text(
            json.dumps({"rank": 1, "trunc_order": 8, "a_matrix": [[[[1, "1/2"]]]]})
        )
        output = str(tmp_path / target)
        code, text = run(["abmod", "tensor", str(module), str(module), "-o", output])
        assert (code, text) == (EXIT_INVALID, "")
        assert capsys.readouterr().err.startswith(f"error: cannot write module file {output}: ")

    def test_check_inconclusive_when_truncation_tiny(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {"rank": 1, "trunc_order": 2, "label": "",
                 "a_matrix": [[[[1, "1"]]]]}
            )
        )
        code, _ = run(["abmod", "check", str(path), "--k", "3"])
        assert code == EXIT_INCONCLUSIVE

    def test_check_does_no_work_that_grows_with_the_truncation(self, tmp_path):
        # the commutation law holds by construction and is_regular works in
        # E / b^k E, so trunc_order 10^6 answers at once (a runtime law check
        # over every b^t e took seconds here)
        path = tmp_path / "deep.json"
        path.write_text(
            json.dumps({"rank": 1, "trunc_order": 10**6, "a_matrix": [[[[1, "1"]]]]})
        )
        times = []
        for _ in range(3):  # the best of three, so one slow pass of the host is not read
            start = time.perf_counter()
            code, text = run(["abmod", "check", str(path)])
            times.append(time.perf_counter() - start)
        assert code == EXIT_OK
        flags = json.loads(text)
        assert flags["trunc_order"] == 10**6
        assert [flags[key] for key in ("commutation", "simple_pole", "regular_k1", "regular_k2")] == [True] * 4
        assert min(times) < 0.01

    def test_selftest_deterministic(self):
        code1, text1 = run(["abmod", "selftest", "--count", "10", "--seed", "3"])
        code2, text2 = run(["abmod", "selftest", "--count", "10", "--seed", "3"])
        assert code1 == code2 == EXIT_OK
        assert text1 == text2
        assert "10/10" in text1

    def test_selftest_draws_what_randint_draws(self, monkeypatch):
        # randrange(w) + low runs _randbelow(w) once, as randint(low, low + w - 1)
        # does, so every seed draws the modules it drew with randint
        drawn = []
        real_tensor = cli.tensor

        def recorded(left, right):
            drawn.append((left.numerators, right.numerators))
            return real_tensor(left, right)

        monkeypatch.setattr(cli, "tensor", recorded)
        for seed in range(51):
            rng = random.Random(seed)

            def reference() -> tuple:
                rank = rng.randint(1, 3)
                matrix = [[[0] + [rng.randint(-3, 3) for _ in range(3)] for _ in range(rank)]
                          for _ in range(rank)]
                return ABModule(rank, DEFAULT_TRUNC_ORDER, matrix).numerators

            drawn.clear()
            assert run(["abmod", "selftest", "--count", "4", "--seed", str(seed)])[0] == EXIT_OK
            expected = [(reference(), reference()) for _ in range(4)]
            assert drawn[::2] == expected  # each case also tensors (right, left)
            assert drawn[1::2] == [(right, left) for left, right in expected]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_selftest_count_below_one_is_invalid(self, capsys, count):
        code, text = run(["abmod", "selftest", "--count", count])
        assert code == EXIT_INVALID
        assert text == ""
        assert capsys.readouterr().err.endswith(
            f"brieskorn abmod selftest: error: argument --count: must be at least 1, got {count}\n"
        )


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


# escapes, and the empty containers of each kind at two depths
STRING_AND_CONTAINER_EXAMPLE = {
    "\u00e9\x00\n\t\"\\": ["\U0001f600", "\x1f\x7f", [], {}, ()], "": {"a": [{}]}
}


def prints_what_json_dumps_prints(value) -> bool:
    return cli._json(value) == json.dumps(value, indent=2)


class TestJsonWriter:
    @given(JSON_VALUES)
    @example(STRING_AND_CONTAINER_EXAMPLE)
    @example([True, False, None, 0, -1, 10**30, 1.5, -0.0, 1e-300, 1e300])
    def test_prints_what_json_dumps_prints(self, value):
        assert prints_what_json_dumps_prints(value)

    def test_report_envelope(self):
        code, text = run(GOLDEN)
        assert code == EXIT_OK
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def fresh_process(argv) -> tuple[int, str]:
    """Exit code and stdout of the CLI in a new interpreter."""
    src = str(Path(brieskorn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "brieskorn.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout


class TestClosedStdout:
    def test_a_reader_that_closes_at_once_is_not_invalid_input(self):
        # the console script ends quietly with the status of a SIGPIPE death
        src = str(Path(brieskorn.__file__).resolve().parents[1])
        argv = ["suspend", "--isolated", "z^4", "--factors", "x:2,y:2", "--weights", "1,1",
                "--verify-direct", "--format", "json"]
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child writes a byte
        try:
            done = subprocess.run(
                [sys.executable, "-m", "brieskorn.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), check=False,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_CLOSED_STDOUT, b"")


class TestSharedParser:
    def test_one_parser_per_process(self):
        run(["abmod", "identity", "--n", "1"])
        assert cli._parser() is cli._parser()

    def test_no_state_leaks_between_calls(self, tmp_path):
        module = tmp_path / "M.json"
        module.write_text(
            json.dumps(
                {"rank": 1, "trunc_order": 8, "label": "M",
                 "a_matrix": [[[[1, "1/2"]]]]}
            )
        )
        code, text = run(["abmod", "check", str(module), "--k", "1"])
        assert code == EXIT_OK and "regular_k2" not in json.loads(text)
        # neither the appended --k nor an error exit may reach a later call
        assert run(["abmod", "check"])[0] == EXIT_INVALID
        assert run(["abmod", "selftest", "--count", "0"])[0] == EXIT_INVALID
        assert run(["abmod", "check", str(module)]) == fresh_process(
            ["abmod", "check", str(module)]
        )
        argv = GOLDEN[:-2] + ["--jet-cap", "8"]
        assert run(argv) == fresh_process(argv)
        assert run(GOLDEN) == fresh_process(GOLDEN)


class TestColdImport:
    def test_cli_import_loads_no_dataclasses_and_every_export_resolves(self):
        # every CLI call starts cold: dataclasses alone would pull inspect,
        # ast, dis and tokenize into that start (-S: no site hooks)
        src = str(Path(brieskorn.__file__).resolve().parents[1])
        probe = (
            "import sys, brieskorn, brieskorn.cli\n"
            "print([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules])\n"
            "print([n for n in brieskorn.__all__ if not hasattr(brieskorn, n)])\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n[]\n", "")


class TestCurveExpansion:
    def test_each_curve_is_expanded_once(self, monkeypatch):
        # f, h and alpha are built with the curve: the CLI's --f check, the
        # hypotheses, the annihilator field, the a-action, the witness and
        # the direct check all read the one curve the CLI parses
        built = []
        init = FactoredCurve.__init__

        def counted(curve, *args):
            built.append(curve)
            init(curve, *args)

        monkeypatch.setattr(FactoredCurve, "__init__", counted)
        assert run(GOLDEN + ["--f", "x^6 + x^3*y^3", "--check-witness"])[0] == EXIT_OK
        assert len(built) == 1
        code, _ = run(
            ["suspend", "--isolated", "z^2", "--factors", "x:3",
             "--residual", "x^3+y^3", "--weights", "1,1", "--verify-direct"]
        )
        assert code == EXIT_OK
        assert len(built) == 2


DEFAULT_CONFIG = {"jet_cap": DEFAULT_JET_CAP, "trunc_order": DEFAULT_TRUNC_ORDER, "seed": 0}


class TestConfiguration:
    def test_environment_is_ignored(self, monkeypatch):
        # a jet cap of 2 is below the sextic's nu stop order, 3
        monkeypatch.setenv("BRIESKORN_JET_CAP", "2")
        monkeypatch.setenv("BRIESKORN_TRUNC_ORDER", "0")
        code, text = run(
            ["invariants", "--factors", "x:3", "--residual", "x^3+y^3", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["config"] == DEFAULT_CONFIG

    def test_one_default_for_the_parser_and_the_library(self):
        assert DEFAULT_CONFIG == {"jet_cap": 24, "trunc_order": 16, "seed": 0}
        assert json.loads(run(GOLDEN)[1])["config"] == DEFAULT_CONFIG
        for function, name, default in [
            (invariants, "jet_cap", DEFAULT_JET_CAP),
            (twisted_quotient_dim, "jet_cap", DEFAULT_JET_CAP),
            (suspend, "trunc_order", DEFAULT_TRUNC_ORDER),
        ]:
            assert inspect.signature(function).parameters[name].default == default

    def test_config_echoed_in_envelope(self):
        _, text = run(GOLDEN + ["--trunc", "8"])
        assert json.loads(text)["config"]["trunc_order"] == 8
