"""Per-layer metrics from the spans of a traced run.

Each layer metric is computed per *pass* (one unit of the workload's
work: a grid, a block of requests) and reported as the median
over the traced passes, so a faster commit that fits more passes into
the same window reports the same per-pass work.  A span belongs to the
pass during which it started.

Busy time is self time: a span's duration minus the durations of the
spans it directly caused in the same process.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from benchlib.stats import median
from benchlib.tracing import LIGHTWEIGHT

__all__ = ["PER_LAYER", "per_layer"]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("graph.from_edges.calls", "count", "lower"),
    ("graph.from_edges.busy_s", "s", "lower"),
    ("graph.relabel.calls", "count", "lower"),
    ("graph.relabel.busy_s", "s", "lower"),
    ("reorder.gorder.calls", "count", "lower"),
    ("reorder.gorder.busy_s", "s", "lower"),
    ("reorder.lightweight.calls", "count", "lower"),
    ("reorder.lightweight.busy_s", "s", "lower"),
    ("apps.plan.calls", "count", "lower"),
    ("apps.plan.unique", "count", "lower"),
    ("apps.plan.busy_s", "s", "lower"),
    ("apps.trace.calls", "count", "lower"),
    ("apps.trace.busy_s", "s", "lower"),
    ("apps.trace.accesses", "count", "lower"),
    ("cachesim.simulate.calls", "count", "lower"),
    ("cachesim.simulate.busy_s", "s", "lower"),
    ("cachesim.simulate.accesses", "count", "lower"),
    ("cachesim.simulate.ns_per_access", "ns", "lower"),
    ("perfmodel.calls", "count", "lower"),
    ("perfmodel.busy_s", "s", "lower"),
    ("pipeline.store.get.calls", "count", "lower"),
    ("pipeline.store.get.busy_s", "s", "lower"),
    ("pipeline.store.get.bytes", "B", "lower"),
    ("pipeline.store.put.calls", "count", "lower"),
    ("pipeline.store.put.busy_s", "s", "lower"),
    ("pipeline.store.put.bytes", "B", "lower"),
    ("pipeline.store.hit_ratio", "fraction", "higher"),
    ("pipeline.worker_idle_s", "s", "lower"),
    ("pipeline.manifest_gap_s", "s", "lower"),
    ("serve.read_request.busy_s", "s", "lower"),
    ("serve.queue.p90_ms", "ms", "lower"),
    ("serve.compute.p90_ms", "ms", "lower"),
    ("serve.compute.gorder_share", "fraction", "lower"),
    ("serve.latency.warm.p50_ms", "ms", "lower"),
    ("serve.latency.cold.p50_ms", "ms", "lower"),
    ("serve.latency.p99_ms", "ms", "lower"),
    ("serve.rps", "1/s", "higher"),
    ("serve.coalesced_ratio", "fraction", "higher"),
    ("serve.warm_ratio", "fraction", "higher"),
    ("mem.apps.trace.peak_pss_mb", "MB", "lower"),
    ("mem.cachesim.simulate.peak_pss_mb", "MB", "lower"),
    ("mem.graph.from_edges.peak_pss_mb", "MB", "lower"),
    ("mem.pipeline.store.put.peak_pss_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.passes", "count", "higher"),
]

_LIGHT = {f"reorder.{name}" for name in LIGHTWEIGHT}

#: Layer -> predicate on a span name.
_LAYERS = {
    "graph.from_edges": lambda n: n == "graph.from_edges",
    "graph.relabel": lambda n: n == "graph.relabel",
    "reorder.gorder": lambda n: n == "reorder.Gorder",
    "reorder.lightweight": lambda n: n in _LIGHT,
    "apps.plan": lambda n: n == "apps.plan",
    "apps.trace": lambda n: n == "apps.trace",
    "cachesim.simulate": lambda n: n == "cachesim.simulate",
    "perfmodel": lambda n: n.startswith("perfmodel."),
    "pipeline.store.get": lambda n: n == "pipeline.store.get",
    "pipeline.store.put": lambda n: n == "pipeline.store.put",
    "serve.read_request": lambda n: n == "serve.read_request",
}

_MEMORY_LAYERS = ("apps.trace", "cachesim.simulate", "graph.from_edges", "pipeline.store.put")


def _self_times(spans) -> dict[int, float]:
    """``id(span) -> self time``; async spans report their stepped busy time."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[(span.pid, span.parent)] += span.wall
    return {
        id(span): span.extra.get("busy", span.wall - child_time[(span.pid, span.idx)])
        for span in spans
    }


def _by_pass(spans, passes) -> list[list]:
    starts = [p.start for p in passes]
    buckets: list[list] = [[] for _ in passes]
    for span in spans:
        i = bisect.bisect_right(starts, span.start) - 1
        if i >= 0 and span.start <= passes[i].end:
            buckets[i].append(span)
    return buckets


def _memory_peaks(spans, samples) -> dict[str, float]:
    """Peak PSS of a span's own process among samples taken while it was open."""
    times = [t for t, _, _ in samples]
    peaks = {layer: 0.0 for layer in _MEMORY_LAYERS}
    for span in spans:
        layer = next((l for l in _MEMORY_LAYERS if _LAYERS[l](span.name)), None)
        if layer is None:
            continue
        lo = bisect.bisect_left(times, span.start)
        hi = bisect.bisect_right(times, span.end)
        for _, _, per_pid in samples[lo:hi]:
            kb = per_pid.get(span.pid)
            if kb is not None:
                peaks[layer] = max(peaks[layer], kb / 1024.0)
    return peaks


def per_layer(spans, passes, main_pid: int, samples, extras: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers a workload never reaches read 0.

    ``passes`` are the traced passes (objects with ``start``/``end``/
    ``wall_s``), ``main_pid`` the process that is not a pool worker,
    ``samples`` the memory sampler's samples, and ``extras`` the metrics
    the workload measured itself (serve latencies, manifest gap, ...).
    """
    window = [s for s in spans if passes[0].start <= s.start and s.end <= passes[-1].end]
    self_time = _self_times(window)
    buckets = _by_pass(window, passes)
    out: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def per_pass(fn) -> float:
        return median(fn(bucket) for bucket in buckets)

    for layer, match in _LAYERS.items():
        calls = f"{layer}.calls"
        busy = f"{layer}.busy_s"
        if calls in out:
            out[calls] = per_pass(lambda b: sum(1 for s in b if match(s.name)))
        if busy in out:
            out[busy] = per_pass(
                lambda b: sum(self_time[id(s)] for s in b if match(s.name))
            )
    out["apps.plan.unique"] = per_pass(
        lambda b: len({s.extra["plan"] for s in b if s.name == "apps.plan"})
    )
    for layer in ("apps.trace", "cachesim.simulate"):
        out[f"{layer}.accesses"] = per_pass(
            lambda b: sum(s.extra.get("accesses", 0) for s in b if s.name == layer)
        )
    sims = [s for s in window if s.name == "cachesim.simulate"]
    sim_accesses = sum(s.extra.get("accesses", 0) for s in sims)
    if sim_accesses:
        out["cachesim.simulate.ns_per_access"] = (
            1e9 * sum(self_time[id(s)] for s in sims) / sim_accesses
        )
    for op in ("get", "put"):
        name = f"pipeline.store.{op}"
        out[f"{name}.bytes"] = per_pass(
            lambda b: sum(s.extra.get("bytes", 0) for s in b if s.name == name)
        )
    gets = [s for s in window if s.name == "pipeline.store.get"]
    if gets:
        out["pipeline.store.hit_ratio"] = sum(s.extra.get("hit", 0) for s in gets) / len(gets)

    def idle(bucket, run) -> float:
        busy: dict[int, float] = defaultdict(float)
        for span in bucket:
            if span.pid != main_pid and span.parent < 0:
                busy[span.pid] += span.wall
        return sum(max(0.0, run.wall_s - b) for b in busy.values())

    out["pipeline.worker_idle_s"] = median(
        idle(bucket, run) for bucket, run in zip(buckets, passes)
    )
    for layer, peak in _memory_peaks(window, samples).items():
        out[f"mem.{layer}.peak_pss_mb"] = peak
    out["trace.passes"] = float(len(passes))
    unknown = set(extras) - set(out)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    out.update(extras)
    return out
