"""Outside-in layer trace of the brieskorn package.

The tracer wraps public functions where their callers look them up (for
example ``brieskorn.curve.mu``, the name ``curve.invariants`` calls, or the
class attribute ``Span.insert``) and restores every original afterwards.
Nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent span, call id) in
flat arrays kept in memory; when tracing ends the spans are reduced to
per-layer metrics and written out as one gzip'd TSV file.  A span's self
time is its duration minus the durations of its child spans, so the self
times of one call add up to the call's time.
Counters (``Fraction`` constructions, ``Poly`` products, ...) only count
while a traced call is running.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

# canonical span name -> the (module, attribute) sites its callers use;
# "module:Class" names a class whose attribute is replaced
SPAN_SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("brieskorn.cli", "main"),),
    "poly.parse_polynomial": (("brieskorn.cli", "parse_polynomial"),),
    "curve.invariants": (("brieskorn.cli", "invariants"),),
    "curve.check_hypotheses": (("brieskorn.curve", "check_hypotheses"),),
    "curve.annihilator_field": (("brieskorn.curve", "annihilator_field"),),
    "curve.a_action": (("brieskorn.curve", "a_action"),),
    "curve.verify_a_action": (("brieskorn.curve", "verify_a_action"),),
    "local_algebra.mu": (("brieskorn.curve", "mu"), ("brieskorn.suspension", "mu")),
    "local_algebra.saturate_at_origin": (
        ("brieskorn.local_algebra", "saturate_at_origin"),
        ("brieskorn.curve", "saturate_at_origin"),
    ),
    "local_algebra.twisted_quotient_dim": (("brieskorn.curve", "twisted_quotient_dim"),),
    "local_algebra.stable_colength": (
        ("brieskorn.local_algebra", "stable_colength"),
        ("brieskorn.curve", "stable_colength"),
        ("brieskorn.suspension", "stable_colength"),
    ),
    "local_algebra.check_zero_set_is_at_most_curve": (
        ("brieskorn.local_algebra", "check_zero_set_is_at_most_curve"),
    ),
    "suspension.milnor_isolated": (("brieskorn.cli", "milnor_isolated"),),
    "suspension.suspend": (("brieskorn.cli", "suspend"),),
    "suspension.verify_suspension_direct": (("brieskorn.cli", "verify_suspension_direct"),),
    "ab_module.check_commutation": (("brieskorn.cli", "check_commutation"),),
    "ab_module.tensor": (("brieskorn.cli", "tensor"), ("brieskorn.suspension", "tensor")),
    "ab_module.is_simple_pole": (("brieskorn.cli", "is_simple_pole"),),
    "ab_module.is_regular": (("brieskorn.cli", "is_regular"),),
    "ab_module.factorial_identity_holds": (("brieskorn.cli", "factorial_identity_holds"),),
    "linalg.kernel_relations": (
        ("brieskorn.local_algebra", "kernel_relations"),
        ("brieskorn.curve", "kernel_relations"),
        ("brieskorn.ab_module", "kernel_relations"),
    ),
    "linalg.Span.insert": (("brieskorn.linalg:Span", "insert"),),
    "linalg.Span.reduce": (("brieskorn.linalg:Span", "reduce"),),
}

COUNT_SITES: dict[str, tuple[str, str]] = {
    "fractions.Fraction.new_calls": ("fractions:Fraction", "__new__"),
    "poly.Poly.mul.calls": ("brieskorn.poly:Poly", "__mul__"),
    "forms.DiffForm.d.calls": ("brieskorn.forms:DiffForm", "d"),
    "forms.VectorField.apply_twisted.calls": ("brieskorn.forms:VectorField", "apply_twisted"),
}

# per-layer metrics: "ms" is self time per call, "count" is per call
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("linalg.Span.insert.calls", "count"),
    ("linalg.Span.insert.ms", "ms"),
    ("linalg.Span.insert.enlarged_frac", "ratio"),
    ("linalg.Span.reduce.calls", "count"),
    ("linalg.Span.reduce.ms", "ms"),
    ("linalg.kernel_relations.calls", "count"),
    ("linalg.kernel_relations.vectors", "count"),
    ("linalg.kernel_relations.ms", "ms"),
    ("fractions.Fraction.new_calls", "count"),
    ("local_algebra.saturate_at_origin.ms", "ms"),
    ("local_algebra.saturate_at_origin.colon_steps", "count"),
    ("local_algebra.mu.self_ms", "ms"),
    ("local_algebra.twisted_quotient_dim.ms", "ms"),
    ("local_algebra.stable_colength.calls", "count"),
    ("local_algebra.stable_colength.ms", "ms"),
    ("local_algebra.check_zero_set_is_at_most_curve.ms", "ms"),
    ("curve.invariants.self_ms", "ms"),
    ("curve.check_hypotheses.ms", "ms"),
    ("curve.annihilator_field.ms", "ms"),
    ("curve.a_action.ms", "ms"),
    ("curve.verify_a_action.calls", "count"),
    ("curve.verify_a_action.ms", "ms"),
    ("suspension.milnor_isolated.ms", "ms"),
    ("suspension.verify_suspension_direct.ms", "ms"),
    ("suspension.suspend.ms", "ms"),
    ("ab_module.check_commutation.ms", "ms"),
    ("ab_module.tensor.ms", "ms"),
    ("ab_module.is_simple_pole.ms", "ms"),
    ("ab_module.is_regular.ms", "ms"),
    ("ab_module.factorial_identity_holds.ms", "ms"),
    ("poly.parse_polynomial.ms", "ms"),
    ("poly.Poly.mul.calls", "count"),
    ("forms.DiffForm.d.calls", "count"),
    ("forms.VectorField.apply_twisted.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("src.lines", "count"),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.call_id += 1
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_call.append(self.call_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = perf_counter()
                self.span_start[index] = start
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel_relations(self, fn: Callable) -> Callable:
        counts = self.counts

        def counted(vectors):
            for item in vectors:
                counts["linalg.kernel_relations.vectors"] += 1
                yield item

        def with_count(vectors, key_order):
            return fn(counted(vectors), key_order)

        return self._span("linalg.kernel_relations", with_count)

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        if name == "linalg.kernel_relations":
            return self._kernel_relations(fn)
        if name == "linalg.Span.insert":
            def enlarged(result) -> None:
                counts["linalg.Span.insert.enlarged"] += bool(result)
            return self._span(name, fn, enlarged)
        if name == "local_algebra.saturate_at_origin":
            def colon_steps(result) -> None:
                counts["local_algebra.saturate_at_origin.colon_steps"] += result.colon_steps
            return self._span(name, fn, colon_steps)
        return self._span(name, fn)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every site that exists; restore the originals on exit.

        A site missing from the package (a later refactor may remove one) is
        skipped, and its metrics read zero.
        """
        saved: list[tuple[object, str, object]] = []
        try:
            for name, sites in SPAN_SITES.items():
                for owner_path, attr in sites:
                    owner = _owner(owner_path)
                    if attr not in vars(owner):
                        continue
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap_span(name, getattr(owner, attr)))
            for name, (owner_path, attr) in COUNT_SITES.items():
                owner = _owner(owner_path)
                if attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                wrapped = self._counter(name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapped) if attr == "__new__" else wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Total self seconds and span count per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            seconds[name] += self.span_end[i] - self.span_start[i] - child[i]
            calls[name] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        """One line per span: call id, span index, parent index, name, and
        start and end in microseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("call\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.span_call[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-call values of every traced metric in LAYER_METRICS (the
        ``trace.*`` and ``src.*`` entries are filled in by the caller)."""
        seconds, calls = self.self_times()
        per_call = max(calls["cli.main"], 1)
        values: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            if metric.startswith(("trace.", "src.")):
                continue
            base, _, kind = metric.rpartition(".")
            if kind in ("ms", "self_ms"):
                values[metric] = seconds[base] * 1000 / per_call
            elif metric in COUNT_SITES or kind in ("vectors", "colon_steps"):
                values[metric] = self.counts[metric] / per_call
            elif kind == "calls":
                values[metric] = calls[base] / per_call
            elif kind == "enlarged_frac":
                values[metric] = self.counts[base + ".enlarged"] / max(calls[base], 1)
        return values
