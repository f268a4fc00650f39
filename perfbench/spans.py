"""Spans around the benchmark's calls into stpcs, and their per-layer totals.

A span is one call of a public stpcs function (or one CLI subprocess)
made by the benchmark: name, start, end, parent span, and counts the
benchmark attaches.  In a memory pass each span also records the
tracemalloc peak reached inside it (numpy reports its buffers to
tracemalloc).  tracemalloc slows allocation-heavy Python code several
times over, so times come from timing passes without it and peaks from a
separate memory pass.  Spans stay in memory while the workload runs and
are written to a JSON-lines file when it ends; `layer_metrics` reads that
file back and folds it into the per-layer metric names of `PER_LAYER`.

Self time is a span's duration minus the durations of its child spans.
There are no spans inside the package yet, so a call's internal
cross-module work (swap matrices and `reduce_matrix` inside
`pipeline.recover_signal`, say) is charged to the function the benchmark
called.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MB = 1024.0 * 1024.0


class Tracer:
    """Records spans while `enabled`; otherwise `call` is a plain call.

    With `memory` set, spans also record their tracemalloc peak; the
    caller starts and stops tracemalloc around such a pass.
    """

    def __init__(self):
        self.enabled = False
        self.memory = False
        self.pass_index = 0
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Call fn(*args, **kwargs) inside span `name`.

        `counts` is a dict of counts known before the call, or a function
        of the result returning one (applied only on success).  Counts are
        attached to the span, so they exist only while tracing.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as span:
            if isinstance(counts, dict):
                span["attrs"].update(counts)
            out = fn(*args, **kwargs)
        if callable(counts):
            span["attrs"].update(counts(out))
        return out

    @contextmanager
    def span(self, name):
        """Context manager form of `call`; yields the span, or None when off."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, error=type(exc).__name__)
            raise
        self._close(span)

    def _open(self, name) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pass": self.pass_index,
            "memory": self.memory,
            "attrs": {},
            "error": None,
            "peak_bytes": None,
        }
        if self.memory:
            # reset_peak is global: fold the peak so far into the parent first.
            _cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1]["_seen"] = max(self._stack[-1]["_seen"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_seen"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._stack.append(span)
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span, error=None):
        span["t1"] = time.perf_counter()
        span["error"] = error
        self._stack.pop()
        if span["memory"]:
            top = max(span.pop("_seen"), tracemalloc.get_traced_memory()[1])
            span["peak_bytes"] = top - span.pop("_base")
            if self._stack:
                self._stack[-1]["_seen"] = max(self._stack[-1]["_seen"], top)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# (metric, unit, how, source).  `how` selects the fold below.  Times and
# counts are per timing pass over the workload's op list; peaks come from
# the memory pass, maxima from all passes.
PER_LAYER = [
    ("stp.mv_stp.calls", "count", "calls", "stp.mv_stp"),
    ("stp.mv_stp.self_s", "s", "self", "stp.mv_stp"),
    ("stp.mv_stp.peak_mb", "MB", "peak", "stp.mv_stp"),
    ("stp.lift_matrix.self_s", "s", "self", "stp.lift_matrix"),
    ("stp.mm_stp.self_s", "s", "self", "stp.mm_stp"),
    ("stp.sta.self_s", "s", "self", "stp.sta"),
    ("pipeline.recover_signal.calls", "count", "calls", "pipeline.recover_signal"),
    ("pipeline.recover_signal.self_s", "s", "self", "pipeline.recover_signal"),
    ("pipeline.recover_signal.peak_mb", "MB", "peak", "pipeline.recover_signal"),
    ("pipeline.recover.calls", "count", "calls", "pipeline.recover"),
    ("pipeline.recover.self_s", "s", "self", "pipeline.recover"),
    ("pipeline.us_per_support", "us", "us_per", ("pipeline.", "supports")),
    ("pipeline.supports", "count", "attr", ("pipeline.", "supports")),
    ("pipeline.failed", "count", "failed", "pipeline."),
    ("metrics.spark.self_s", "s", "self", "metrics.spark"),
    ("metrics.rip_check.self_s", "s", "self", "metrics.rip_check"),
    ("metrics.coherence.self_s", "s", "self", "metrics.coherence"),
    ("metrics.subsets", "count", "attr", ("metrics.", "subsets")),
    ("metrics.us_per_subset", "us", "us_per", ("metrics.", "subsets")),
    ("bibd.self_s", "s", "self", "bibd."),
    ("bibd.vertical_expand.self_s", "s", "self", "bibd.vertical_expand"),
    ("bibd.horizontal_expand.self_s", "s", "self", "bibd.horizontal_expand"),
    ("io.save_matrix.self_s", "s", "self", "io.save_matrix"),
    ("io.load_matrix.self_s", "s", "self", "io.load_matrix"),
    ("io.bytes", "B", "attr", ("io.", "bytes")),
    ("cli.import.wall_s", "s", "wall", "cli.import"),
    ("cli.gen.wall_s", "s", "wall", "cli.gen"),
    ("cli.expand.wall_s", "s", "wall", "cli.expand"),
    ("cli.metrics.wall_s", "s", "wall", "cli.metrics"),
    ("cli.compress.wall_s", "s", "wall", "cli.compress"),
    ("cli.recover.wall_s", "s", "wall", "cli.recover"),
    ("signal_space.reduce_matrix.self_s", "s", "self", "signal_space.reduce_matrix"),
    ("signal_space.inner_v.self_s", "s", "self", "signal_space.inner_v"),
    ("signal_space.dist_v.self_s", "s", "self", "signal_space.dist_v"),
    ("signal_space.angle_v.self_s", "s", "self", "signal_space.angle_v"),
    ("signal_space.project.self_s", "s", "self", "signal_space.project"),
    ("signal_space.equivalent.self_s", "s", "self", "signal_space.equivalent"),
    ("signal_space.project.peak_mb", "MB", "peak", "signal_space.project"),
    ("basis.orthonormal_basis.calls", "count", "calls", "basis.orthonormal_basis"),
    ("basis.orthonormal_basis.self_s", "s", "self", "basis.orthonormal_basis"),
    ("basis.orthonormal_basis.peak_mb", "MB", "peak", "basis.orthonormal_basis"),
    ("basis.coordinates.self_s", "s", "self", "basis.coordinates"),
    ("basis.max_atom_dim", "count", "attr_max", ("basis.", "atom_dim")),
    ("basis.failed", "count", "failed", "basis."),
    ("trace.overhead_s", "s", "overhead", None),
]


def _matches(name: str, source: str) -> bool:
    # A source ending in "." selects a whole module; otherwise one function.
    return name.startswith(source) if source.endswith(".") else name == source


def layer_metrics(spans: list[dict], passes: int, overhead_s: float) -> dict:
    """Fold spans into {metric: {"value", "unit"}} for every PER_LAYER name.

    `passes` is the number of timing passes, `overhead_s` the median extra
    wall time of a timing pass over the untraced pass before it.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["t1"] - sp["t0"]
    for sp in spans:
        sp["wall"] = sp["t1"] - sp["t0"]
        sp["self"] = sp["wall"] - child_time[sp["id"]]
    memory = [sp for sp in spans if sp["memory"]]
    timing = [sp for sp in spans if not sp["memory"]]

    def pick(source, among=timing):
        return [sp for sp in among if _matches(sp["name"], source)]

    def attr_sum(prefix, key):
        return sum(sp["attrs"].get(key, 0) for sp in pick(prefix))

    out = {}
    for metric, unit, how, source in PER_LAYER:
        if how == "calls":
            value = len(pick(source)) / passes
        elif how == "self":
            value = sum(sp["self"] for sp in pick(source)) / passes
        elif how == "wall":
            value = sum(sp["wall"] for sp in pick(source)) / passes
        elif how == "peak":
            value = max((sp["peak_bytes"] for sp in pick(source, memory)), default=0) / MB
        elif how == "attr":
            value = attr_sum(*source) / passes
        elif how == "attr_max":
            prefix, key = source
            value = max((sp["attrs"].get(key, 0) for sp in pick(prefix, spans)), default=0)
        elif how == "us_per":
            prefix, key = source
            count = attr_sum(prefix, key)
            busy = sum(sp["self"] for sp in pick(prefix))
            value = 1e6 * busy / count if count else 0.0
        elif how == "failed":
            value = sum(1 for sp in pick(source) if sp["error"]) / passes
        elif how == "overhead":
            value = overhead_s
        else:
            raise ValueError(f"unknown fold {how!r}")
        out[metric] = {"value": value, "unit": unit}
    return out
