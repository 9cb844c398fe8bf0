"""Command-line interface: subcommands, exit codes, and determinism."""

from __future__ import annotations

import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import brieskorn
from brieskorn import cli
from brieskorn.ab_module import DEFAULT_TRUNC_ORDER
from brieskorn.cli import EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, main
from brieskorn.curve import FactoredCurve, invariants, milnor_fibre_betti
from brieskorn.local_algebra import DEFAULT_JET_CAP, twisted_quotient_dim
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
]


@pytest.mark.parametrize(
    "argv", [case[1] for case in BELOW_BOUND], ids=[case[0] for case in BELOW_BOUND]
)
def test_setting_below_its_bound_is_a_usage_error(capsys, argv):
    assert run(argv) == (EXIT_INVALID, "")
    assert "must be at least" in capsys.readouterr().err


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
    assert run([flag])[0] == EXIT_OK
    assert capsys.readouterr().out


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
            lambda c, ws=None: milnor_fibre_betti(c, ws) + 1,
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

    def test_selftest_deterministic(self):
        code1, text1 = run(["abmod", "selftest", "--count", "10", "--seed", "3"])
        code2, text2 = run(["abmod", "selftest", "--count", "10", "--seed", "3"])
        assert code1 == code2 == EXIT_OK
        assert text1 == text2
        assert "10/10" in text1

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_selftest_count_below_one_is_invalid(self, capsys, count):
        code, text = run(["abmod", "selftest", "--count", count])
        assert code == EXIT_INVALID
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")


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


class TestJsonWriter:
    @given(JSON_VALUES)
    @example({"\u00e9\x00\n\t\"\\": ["\U0001f600", "\x1f\x7f", [], {}, ()], "": {"a": [{}]}})
    @example([True, False, None, 0, -1, 10**30, 1.5, -0.0, 1e-300, 1e300])
    def test_prints_what_json_dumps_prints(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

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


class TestCurveExpansion:
    def test_each_curve_is_expanded_once(self, monkeypatch):
        # the CLI's --f check, the hypotheses, the annihilator field, the
        # a-action, the witness and the direct check all read one expansion
        calls = []
        expansion = FactoredCurve._expansion

        def counted(curve):
            calls.append(curve)
            return expansion(curve)

        monkeypatch.setattr(FactoredCurve, "_expansion", counted)
        assert run(GOLDEN + ["--f", "x^6 + x^3*y^3", "--check-witness"])[0] == EXIT_OK
        assert len(calls) == 1
        code, _ = run(
            ["suspend", "--isolated", "z^2", "--factors", "x:3",
             "--residual", "x^3+y^3", "--weights", "1,1", "--verify-direct"]
        )
        assert code == EXIT_OK
        assert len(calls) == 2


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
