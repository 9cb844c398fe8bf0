"""Benchmark of the brieskorn command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload graded --seed 1 --seconds 12 --trace 0

One client drives ``brieskorn.cli.main(argv, out=...)`` in-process in a
closed loop: the next call starts when the previous one returns.  The seed
fixes the inputs and their order; each pass runs every input of the workload
once in a seeded order, and the loop runs whole passes until ``--seconds``
have passed and at least ``MIN_CALLS`` calls were made, so that ten calls
lie beyond p90.  Every answer is checked against an independent reference
(``corpus.json``, or the module definitions for ``abmod``), and repeated
calls on one input must print the same bytes.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs untraced passes for half the time and traced passes for the rest and
reports the per-layer metrics of ``tracer.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give one row per input and the output
digest of the workload, which a later change can compare byte for byte.

Wall times are scaled to a nominal host speed with the stdlib kernel of
``speed.py``, timed after every call, so that a shared host's drift does not
swamp a regression; the ``summary`` line also gives the raw p50.

End-to-end metrics (times scaled as above):
  call_ms.p50, call_ms.p90  wall time of one call, over all attempted calls
  calls_per_s               attempted calls / summed wall time of the calls
  certified_frac            share of calls that exit 0 with the reference answer
  not_wrong_frac            1 - wrong_frac, where wrong_frac is the share of
                            calls that exit 0 with an answer that differs from
                            the reference (reported this way so it is never 0)
  setup_s                   median of SETUPS set-ups: fresh import, input
                            loading and a warm-up call on the marked inputs
  cold_cli_ms               median wall time of ``python -m brieskorn.cli`` on
                            the workload's marked input, one fresh process each
  peak_rss_mb               peak resident set size of this (untraced) process

``failed`` counts calls whose outcome is neither ``ok`` nor the defect the
corpus records for that input (``seed_defect``), plus calls whose output
bytes differ from the input's first output; ``correct`` is ``failed == 0``.

The benchmark starts no threads; the cold-CLI processes run one at a time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness
import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
MIN_CALLS = 100
SETUPS = 5
COLD_RUNS = 9
ENV_PREFIX = "BRIESKORN_"


def fresh_import():
    """Import the package from scratch, with empty module-level caches."""
    for name in [m for m in sys.modules if m == "brieskorn" or m.startswith("brieskorn.")]:
        del sys.modules[name]
    return importlib.import_module("brieskorn.cli")


def set_up(workload: str, seed: int, workdir: Path):
    """Import, load the inputs and run the warm-up calls; returns
    (scaled seconds, cli module, calls, warm-up results)."""
    kernels = speed.kernel_samples()
    start = perf_counter()
    cli = fresh_import()
    calls = harness.workload_calls(workload, seed, workdir)
    warm = [(call, harness.run_call(cli, call)) for call in calls if call.warmup]
    elapsed = perf_counter() - start
    kernels += speed.kernel_samples()
    return speed.scale(elapsed, kernels), cli, calls, warm


def run_passes(cli, calls, rng, tally, until) -> None:
    """Run whole seeded passes, each call followed by a speed-kernel sample,
    until ``until(elapsed)`` holds after a pass."""
    start = perf_counter()
    while True:
        for call in rng.sample(calls, len(calls)):
            tally.add(call, harness.run_call(cli, call), kernel=speed.kernel_seconds())
        if until(perf_counter() - start):
            return


def cold_cli_ms(call: harness.Call, expected_digest: str) -> tuple[float, int]:
    """Median scaled wall ms of fresh ``python -m brieskorn.cli`` processes,
    after one untimed run; also the number of runs whose output differs from
    the in-process output."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    command = [sys.executable, "-m", "brieskorn.cli", *call.argv]
    times, mismatches = [], 0
    for attempt in range(COLD_RUNS + 1):
        kernels = speed.kernel_samples()
        start = perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        elapsed = perf_counter() - start
        kernels += speed.kernel_samples()
        digest = harness.output_digest(done.returncode, done.stdout, done.stderr)
        mismatches += digest != expected_digest
        if attempt:
            times.append(speed.scale(elapsed, kernels) * 1000)
    return statistics.median(times), mismatches


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "brieskorn").glob("*.py"))
    )


def scaled_times(tally: harness.Tally) -> list[tuple[str, float]]:
    """(input id, scaled seconds) of every timed call, in call order."""
    ids = [key for key, _, _ in tally.timed]
    raw = [seconds for _, seconds, _ in tally.timed]
    kernels = [kernel for _, _, kernel in tally.timed]
    return list(zip(ids, speed.scale_series(raw, kernels)))


def print_rows(workload: str, tally: harness.Tally) -> None:
    per_input: dict[str, list[float]] = {}
    for key, seconds in scaled_times(tally):
        per_input.setdefault(key, []).append(seconds * 1000)
    for key, row in sorted(tally.rows.items()):
        outcomes = ",".join(f"{k}:{v}" for k, v in sorted(row.outcomes.items()))
        times = per_input.get(key, [0.0])
        print(
            f"row {workload} {key} calls={sum(row.outcomes.values())} "
            f"median_ms={statistics.median(times):.2f} outcomes={outcomes} "
            f"mismatches={row.mismatches} digest={row.digest[:16]}"
        )
    print(f"digest {workload} {tally.digest()}")


def untraced_run(workload, seed, seconds, cli, calls, tally, setup_s) -> dict:
    rng = random.Random(seed)
    run_passes(
        cli, calls, rng, tally,
        lambda elapsed: elapsed >= seconds and tally.attempted >= MIN_CALLS,
    )
    times_ms = [s * 1000 for _, s in scaled_times(tally)]
    attempted = tally.attempted
    wrong = tally.outcome_count("wrong") / attempted
    cold_call = next(call for call in calls if call.cold)
    cold_ms, cold_mismatches = cold_cli_ms(cold_call, tally.rows[cold_call.id].digest)
    tally.rows[cold_call.id].mismatches += cold_mismatches
    raw_p50 = statistics.median(s for _, s, _ in tally.timed) * 1000
    print(
        f"summary {workload} calls={attempted} wrong_frac={wrong:.4f} "
        f"raw_call_ms.p50={raw_p50:.2f} "
        + " ".join(f"{o}={tally.outcome_count(o)}" for o in harness.OUTCOMES)
    )
    return {
        "call_ms.p50": (statistics.median(times_ms), "ms"),
        "call_ms.p90": (percentile(times_ms, 0.9), "ms"),
        "calls_per_s": (attempted * 1000 / sum(times_ms), "1/s"),
        "certified_frac": (tally.outcome_count("ok") / attempted, "ratio"),
        "not_wrong_frac": (1 - wrong, "ratio"),
        "setup_s": (setup_s, "s"),
        "cold_cli_ms": (cold_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, seed, seconds, cli, calls, tally) -> dict:
    """Untraced passes for half the time, then traced passes for the rest;
    the overhead compares the mean scaled call time of the two.  The spans
    go to ``.bench_work/spans-<workload>.tsv.gz``, replacing the last run's."""
    rng = random.Random(seed)
    run_passes(cli, calls, rng, tally, lambda elapsed: elapsed >= seconds / 2)
    plain = tally.attempted
    tracer = tracing.Tracer()
    with tracer.installed():
        run_passes(cli, calls, rng, tally, lambda elapsed: elapsed >= seconds / 2)
    spans = WORK_DIR / f"spans-{workload}.tsv.gz"
    tracer.write(spans)
    print(f"spans {workload} {spans.relative_to(ROOT)} {len(tracer.span_start)}")
    times = [s for _, s in scaled_times(tally)]
    units = dict(tracing.LAYER_METRICS)
    # self times scale to nominal host speed like the end-to-end times
    factor = speed.scale(1.0, [kernel for _, _, kernel in tally.timed[plain:]])
    values = {
        name: value * factor if units[name] == "ms" else value
        for name, value in tracer.layer_metrics().items()
    }
    values["trace.overhead_frac"] = (
        statistics.fmean(times[plain:]) / statistics.fmean(times[:plain]) - 1
    )
    values["src.lines"] = src_lines()
    return {name: (values[name], units[name]) for name, _ in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brieskorn" / "cli.py").is_file():
        print(f"error: no brieskorn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and the cold-CLI children it starts, so that
    # the speed kernel and every timed call see the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[name]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        setups = [set_up(args.workload, args.seed, Path(tmp)) for _ in range(SETUPS)]
        setup_s = statistics.median(s[0] for s in setups)
        _, cli, calls, _ = setups[-1]
        tally = harness.Tally()
        for _, _, _, warm in setups:
            for call, result in warm:
                tally.add(call, result)
        if args.trace:
            metrics = traced_run(args.workload, args.seed, args.seconds, cli, calls, tally)
        else:
            metrics = untraced_run(
                args.workload, args.seed, args.seconds, cli, calls, tally, setup_s
            )
    print_rows(args.workload, tally)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
