"""Calls, outcome classification and workload inputs for the benchmark.

A call is one ``brieskorn.cli.main(argv, out=...)`` invocation together with
an independent check of its answer.  Curve and suspension inputs come from
``corpus.json`` (built by ``make_references.py``); the ``abmod`` inputs are
modules drawn from the seed and written to a work directory, with their
references computed here from the module definitions.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"
WORKLOADS = ("graded", "jet", "suspend", "abmod")
OUTCOMES = ("ok", "wrong", "inconclusive", "invalid", "crash")


@dataclass(frozen=True)
class Call:
    id: str
    argv: tuple[str, ...]
    check: Callable[[str], bool] = field(compare=False)
    seed_defect: Optional[str] = None
    warmup: bool = False
    cold: bool = False


@dataclass(frozen=True)
class Result:
    outcome: str
    seconds: float
    digest: str


def classify(code: Optional[int], stdout: str, check: Callable[[str], bool]) -> str:
    """ok / wrong for exit 0 by the reference check; exit 2 is inconclusive,
    exit 1 invalid; an uncaught exception (code None) or any other exit code
    is a crash."""
    if code == 0:
        try:
            return "ok" if check(stdout) else "wrong"
        except (ValueError, KeyError, TypeError, IndexError):
            return "wrong"
    if code == 2:
        return "inconclusive"
    if code == 1:
        return "invalid"
    return "crash"


def output_digest(code: Optional[int], stdout: str, stderr: str) -> str:
    return hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()


def run_call(cli, call: Call) -> Result:
    """Run one call in-process; an exception escaping ``main`` is a crash,
    recorded with its type and message so that it is part of the digest."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stderr(err):
            code = cli.main(list(call.argv), out=out)
    except Exception as exc:  # the benchmark must keep going after a crash
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds = perf_counter() - start
    stdout = out.getvalue()
    return Result(
        classify(code, stdout, call.check),
        seconds,
        output_digest(code, stdout, err.getvalue()),
    )


@dataclass
class Row:
    """Outcomes and output digest of one input."""

    outcomes: Counter = field(default_factory=Counter)
    digest: Optional[str] = None
    mismatches: int = 0
    unexpected: int = 0


class Tally:
    """Per-input rows plus the timed calls in the order they ran.

    A call fails when its output bytes differ from the first output seen
    for the same input, or when its outcome is neither ``ok`` nor the
    defect recorded for that input in the corpus.  Untimed calls (warm-up)
    only take part in the byte comparison.
    """

    def __init__(self) -> None:
        self.rows: dict[str, Row] = {}
        # (input id, call seconds, speed-kernel seconds measured right after)
        self.timed: list[tuple[str, float, float]] = []

    def add(self, call: Call, result: Result, kernel: Optional[float] = None) -> None:
        row = self.rows.setdefault(call.id, Row())
        if row.digest is None:
            row.digest = result.digest
        row.mismatches += result.digest != row.digest
        if kernel is None:
            return
        self.timed.append((call.id, result.seconds, kernel))
        row.outcomes[result.outcome] += 1
        row.unexpected += result.outcome not in ("ok", call.seed_defect)

    def outcome_count(self, outcome: str) -> int:
        return sum(row.outcomes[outcome] for row in self.rows.values())

    @property
    def attempted(self) -> int:
        return len(self.timed)

    @property
    def failed(self) -> int:
        return sum(row.mismatches + row.unexpected for row in self.rows.values())

    def digest(self) -> str:
        """Digest of every input's output, independent of call order."""
        lines = "".join(f"{key} {row.digest}\n" for key, row in sorted(self.rows.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


# -- curve and suspension inputs ------------------------------------------------


def _report_matches(reference: dict) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        report = json.loads(stdout)["report"]
        for key, value in reference.items():
            if key == "isolated_milnor":
                if report["isolated"]["milnor"] != value:
                    return False
            elif report[key] != value:
                return False
        if "isolated_milnor" in reference:
            direct = report["direct_check"]
            return direct["mu_direct"] == reference["mu"] and direct["agrees"] is True
        return True

    return check


def corpus_call(command: str, entry: dict) -> Call:
    argv = [command]
    if command == "suspend":
        argv += ["--isolated", entry["isolated"]]
    argv += ["--factors", entry["factors"]]
    if "residual" in entry:
        argv += ["--residual", entry["residual"]]
    if "weights" in entry:
        argv += ["--weights", entry["weights"]]
    if command == "suspend":
        argv.append("--verify-direct")
    argv += ["--format", "json"]
    defect = entry.get("seed_defect")
    return Call(
        id=entry["id"],
        argv=tuple(argv),
        check=_report_matches(entry["reference"]),
        seed_defect=defect["outcome"] if defect else None,
        warmup=entry.get("warmup", False),
        cold=entry.get("cold", False),
    )


def load_corpus(workload: str) -> list[Call]:
    entries = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))[workload]
    command = "suspend" if workload == "suspend" else "invariants"
    return [corpus_call(command, entry) for entry in entries]


# -- (a,b)-module inputs --------------------------------------------------------

# 15 inputs, each run once per pass: an odd count puts p50 in the middle of
# one input's calls, and 0.9 * 15 = 13.5 puts p90 in the middle of another,
# so neither percentile sits on the gap between two inputs' timings
ABMOD_TRUNC = 12
ABMOD_RANKS = (1, 2, 3, 1, 2, 3)
ABMOD_TENSORS = ((0, 1), (1, 2), (2, 5))
ABMOD_CHECKED_PRODUCTS = ((0, 1), (1, 2), (2, 5))
ABMOD_IDENTITY_N = (6, 8)
# the selftest draws its own module ranks, so its seed stays fixed: with the
# workload seed its cost would change from one seed to the next
ABMOD_SELFTEST = (6, 0)

# a b-polynomial as {b power: coefficient}; a matrix as a list of rows
BMatrix = list[list[dict[int, Fraction]]]


def random_simple_pole(rng: random.Random, rank: int) -> BMatrix:
    """An a-matrix with zero constant terms (a E inside b E) and nonzero
    small rational coefficients on b, b^2 and b^3, so that the amount of
    work per module does not depend on the seed."""
    return [
        [
            {
                power: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for power in (1, 2, 3)
            }
            for _ in range(rank)
        ]
        for _ in range(rank)
    ]


def kronecker_sum(left: BMatrix, right: BMatrix) -> BMatrix:
    """a on e_i (x) f_j is (a e_i) (x) f_j + e_i (x) (a f_j), left factor major."""
    r1, r2 = len(left), len(right)
    out: BMatrix = [[{} for _ in range(r1 * r2)] for _ in range(r1 * r2)]
    for i in range(r1):
        for j in range(r2):
            for k in range(r1):
                for power, c in left[k][i].items():
                    cell = out[k * r2 + j][i * r2 + j]
                    cell[power] = cell.get(power, Fraction(0)) + c
            for l in range(r2):
                for power, c in right[l][j].items():
                    cell = out[i * r2 + l][i * r2 + j]
                    cell[power] = cell.get(power, Fraction(0)) + c
    return [[{p: c for p, c in cell.items() if c} for cell in row] for row in out]


def module_record(matrix: BMatrix, label: str) -> dict:
    return {
        "rank": len(matrix),
        "trunc_order": ABMOD_TRUNC,
        "label": label,
        "a_matrix": [
            [[[p, str(c)] for p, c in sorted(cell.items())] for cell in row]
            for row in matrix
        ],
    }


def _record_matches(matrix: BMatrix) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        record = json.loads(stdout)
        got = [
            [{p: Fraction(c) for p, c in cell} for cell in row]
            for row in record["a_matrix"]
        ]
        return (
            record["rank"] == len(matrix)
            and record["trunc_order"] == ABMOD_TRUNC
            and got == matrix
        )

    return check


def _flags_match(rank: int) -> Callable[[str], bool]:
    # ab - ba = b^2 holds for every a-matrix (a b^t e = b^t a e + t b^(t+1) e);
    # a simple pole (a E in b E) gives a^k E in sum_j b^(k-j) a^j E, so regular
    expected = {
        "rank": rank,
        "trunc_order": ABMOD_TRUNC,
        "commutation": True,
        "simple_pole": True,
        "regular_k1": True,
        "regular_k2": True,
    }
    return lambda stdout: json.loads(stdout) == expected


def _text_is(expected: str) -> Callable[[str], bool]:
    return lambda stdout: stdout == expected


def abmod_calls(seed: int, workdir: Path) -> list[Call]:
    """Write the seeded modules and their products to ``workdir`` and return
    the tensor, check, selftest and identity calls on them."""
    rng = random.Random(f"abmod-{seed}")
    modules = [random_simple_pole(rng, rank) for rank in ABMOD_RANKS]
    paths = []
    for index, matrix in enumerate(modules):
        path = workdir / f"m{index}.json"
        path.write_text(json.dumps(module_record(matrix, f"m{index}")), encoding="utf-8")
        paths.append(str(path))
    calls = [
        Call(
            f"tensor-m{i}-m{j}",
            ("abmod", "tensor", paths[i], paths[j]),
            _record_matches(kronecker_sum(modules[i], modules[j])),
        )
        for i, j in ABMOD_TENSORS
    ]
    calls += [
        Call(
            f"check-m{index}",
            ("abmod", "check", path, "--k", "1", "--k", "2"),
            _flags_match(len(modules[index])),
        )
        for index, path in enumerate(paths)
    ]
    for i, j in ABMOD_CHECKED_PRODUCTS:
        product = kronecker_sum(modules[i], modules[j])
        path = workdir / f"m{i}xm{j}.json"
        path.write_text(json.dumps(module_record(product, f"m{i}xm{j}")), encoding="utf-8")
        calls.append(
            Call(
                f"check-m{i}xm{j}",
                ("abmod", "check", str(path), "--k", "1", "--k", "2"),
                _flags_match(len(product)),
                # the rank-9 check: enough work that start-up is not all
                # that the cold run measures
                cold=(i, j) == ABMOD_CHECKED_PRODUCTS[-1],
            )
        )
    count, selftest_seed = ABMOD_SELFTEST
    calls.append(
        Call(
            "selftest",
            ("abmod", "selftest", "--count", str(count), "--seed", str(selftest_seed)),
            # a tensor of simple-pole modules is simple-pole of the product rank
            _text_is(
                f"selftest: {count}/{count} randomized tensor checks passed "
                f"(seed {selftest_seed})\n"
            ),
            warmup=True,
        )
    )
    calls += [
        Call(
            f"identity-{n}",
            ("abmod", "identity", "--n", str(n)),
            # n! b^(2n) = sum_j (-1)^j C(n,j) b^j a^n b^(n-j) when ab - ba = b^2
            _text_is("OK\n"),
            warmup=n == 6,
        )
        for n in ABMOD_IDENTITY_N
    ]
    return calls


def workload_calls(workload: str, seed: int, workdir: Path) -> list[Call]:
    if workload == "abmod":
        return abmod_calls(seed, workdir)
    return load_corpus(workload)
