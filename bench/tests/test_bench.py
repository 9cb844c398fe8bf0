"""Tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402

CHEAP = {
    "graded": ("lines-x2y3", "lines-x3.y", "square-x2-y3"),
    "jet": ("square-x2-y3",),
}


@pytest.fixture(scope="module")
def cli():
    return importlib.import_module("brieskorn.cli")


@pytest.fixture(scope="module")
def cheap_calls():
    """A few fast inputs covering ok, wrong and crash outcomes."""
    calls = []
    for workload, ids in CHEAP.items():
        calls += [call for call in harness.load_corpus(workload) if call.id in ids]
    assert len(calls) == 4
    return calls


def run_all(cli, calls):
    return [harness.run_call(cli, call) for call in calls]


# -- outcome classifier ---------------------------------------------------------


def test_classify_by_exit_code_and_reference():
    assert harness.classify(0, "{}", lambda out: True) == "ok"
    assert harness.classify(0, "{}", lambda out: False) == "wrong"
    assert harness.classify(0, "not json", lambda out: json.loads(out)["x"]) == "wrong"
    assert harness.classify(1, "", lambda out: True) == "invalid"
    assert harness.classify(2, "", lambda out: True) == "inconclusive"
    assert harness.classify(None, "", lambda out: True) == "crash"
    assert harness.classify(3, "", lambda out: True) == "crash"


def test_forced_crash_is_caught_and_digested():
    class Exploding:
        @staticmethod
        def main(argv, out):
            raise RuntimeError("forced")

    call = harness.Call("boom", ("invariants",), lambda out: True)
    result = harness.run_call(Exploding, call)
    assert result.outcome == "crash"
    assert result.digest == harness.output_digest(None, "", "RuntimeError: forced\n")


def test_known_crash_input_is_classified_as_crash(cli):
    (call,) = [c for c in harness.load_corpus("jet") if c.id == "square-x2-y3"]
    assert harness.run_call(cli, call).outcome == call.seed_defect == "crash"


def test_tally_counts_mismatches_and_unexpected_outcomes():
    ok = harness.Call("a", (), lambda out: True)
    known = harness.Call("b", (), lambda out: True, seed_defect="wrong")
    tally = harness.Tally()
    tally.add(ok, harness.Result("ok", 0.1, "d1"), kernel=0.001)
    tally.add(ok, harness.Result("ok", 0.1, "d2"), kernel=0.001)  # bytes differ
    tally.add(known, harness.Result("wrong", 0.1, "d3"), kernel=0.001)  # recorded defect
    tally.add(known, harness.Result("crash", 0.1, "d3"), kernel=0.001)  # new failure
    tally.add(ok, harness.Result("ok", 0.1, "d1"))  # untimed
    assert tally.attempted == 4
    assert tally.failed == 2
    assert tally.outcome_count("wrong") == 1


# -- references -------------------------------------------------------------------


def test_corpus_loads_with_sourced_references():
    corpus = json.loads(harness.CORPUS_PATH.read_text(encoding="utf-8"))
    for workload, entries in corpus.items():
        ids = [entry["id"] for entry in entries]
        assert len(ids) == len(set(ids)), workload
        for entry in entries:
            assert "mu" in entry["reference"]
            assert set(entry["reference"]) == set(entry["sources"])
            defect = entry.get("seed_defect")
            assert defect is None or defect["outcome"] in harness.OUTCOMES[1:]
        calls = harness.load_corpus(workload)
        assert len(calls) % 2 == 1
        assert sum(call.cold for call in calls) == 1
        assert any(call.warmup for call in calls)
    graded = {entry["id"]: entry["reference"] for entry in corpus["graded"]}
    assert graded["powers-3"] == {"mu": 9}
    assert graded["cusp-x3y2.x2+y3"] == {"mu": 12}
    assert graded["square-x2-y3"] == {"mu": 2}
    assert graded["lines-x2y2(x+y)2(x-y)2"] == {"mu": 9}
    assert graded["lines-x2y2"] == {"mu": 1, "nu": 1, "rank": 2}


def test_corpus_is_what_make_references_writes(tmp_path, monkeypatch):
    pytest.importorskip("sympy")
    import make_references

    monkeypatch.setattr(make_references, "CORPUS_PATH", tmp_path / "corpus.json")
    make_references.main()
    assert (tmp_path / "corpus.json").read_text() == harness.CORPUS_PATH.read_text()


def test_abmod_references_hold(cli, tmp_path):
    calls = harness.abmod_calls(seed=3, workdir=tmp_path)
    assert len(calls) == 15
    assert {harness.run_call(cli, call).outcome for call in calls} == {"ok"}
    left = [[{1: Fraction(1)}]]
    right = [[{1: Fraction(2)}]]
    assert harness.kronecker_sum(left, right) == [[{1: Fraction(3)}]]


# -- tracing ----------------------------------------------------------------------


def site_snapshot():
    sites = [site for sites in tracing.SPAN_SITES.values() for site in sites]
    sites += list(tracing.COUNT_SITES.values())
    snapshot = {}
    for owner_path, attr in sites:
        owner = tracing._owner(owner_path)
        snapshot[(owner_path, attr)] = vars(owner).get(attr)
    return snapshot


def test_wrappers_are_restored(cli, cheap_calls):
    before = site_snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert site_snapshot() != before
        run_all(cli, cheap_calls)
    assert site_snapshot() == before
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("inside the traced block")
    assert site_snapshot() == before
    assert tracer.layer_metrics()["linalg.Span.insert.calls"] > 0


def test_traced_and_untraced_runs_agree(cli, cheap_calls):
    plain = run_all(cli, cheap_calls)
    with tracing.Tracer().installed():
        traced = run_all(cli, cheap_calls)
    assert [(r.outcome, r.digest) for r in plain] == [(r.outcome, r.digest) for r in traced]
    assert [r.outcome for r in plain] == ["ok", "ok", "wrong", "crash"]


def test_counts_repeat_exactly(cli, cheap_calls):
    run_all(cli, cheap_calls)  # warm the enumerator caches
    metrics = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            run_all(cli, cheap_calls)
        metrics.append(tracer.layer_metrics())
    counted = [name for name, unit in tracing.LAYER_METRICS if unit == "count" and name in metrics[0]]
    assert metrics[0]["fractions.Fraction.new_calls"] > 0
    assert {k: metrics[0][k] for k in counted} == {k: metrics[1][k] for k in counted}


def test_self_times_partition_the_call(cli, cheap_calls):
    tracer = tracing.Tracer()
    with tracer.installed():
        run_all(cli, cheap_calls)
    seconds, calls = tracer.self_times()
    roots = [i for i, parent in enumerate(tracer.span_parent) if parent < 0]
    total = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    assert calls["cli.main"] == len(roots) == len(cheap_calls)
    assert sum(seconds.values()) == pytest.approx(total)


# -- the command -------------------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_reports_the_declared_metrics(trace, section):
    done = run_bench(ROOT, "--workload", "abmod", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "graded", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
