"""Paper-scale smoke — emits ``BENCH_scale.json``.

**fused_scale_smoke** — a 1M-vertex PageRank super-step taken through the
fused streaming trace→simulate path and through the materialized
two-stage path, each in its own subprocess.  The parent builds the graph
and its plan once and saves them; each child maps the saved graph
(``Graph.load(..., mmap=True)``), reads every array once so its pages are
resident, unpickles the plan and loads the kernels.  Nothing before the
trace phase then peaks above the current RSS, so the child checks that
``VmHWM`` is within 1 MB of ``VmRSS`` (a read of ``/proc/self/status``;
nothing under ``/proc`` is written) and reports ``VmHWM`` after the path
minus ``VmRSS`` at the phase start: the trace phase's own growth.
Asserts the two paths produce identical cache counters and that the
fused path's trace-phase growth stays under ``RSS_TARGET_FRACTION`` of
the materialized path's.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cachesim import fast_available
from repro.framework import fasttrace

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_scale.json"

#: Acceptance: fused trace-phase RSS growth vs materialized.
RSS_TARGET_FRACTION = 0.25

#: Smoke scale: 1M vertices, 4M edges, an estimated 128 MB trace.  The
#: pipeline would materialize it (fused routing starts above the 1 GiB
#: default, at 33.5M edges); the smoke forces the fused path at a size
#: CI runs in seconds.
SMOKE_VERTICES = 1_000_000
SMOKE_DEGREE = 4
SMOKE_CHUNK_EDGES = 1 << 18

needs_kernels = pytest.mark.skipif(
    not fast_available() or not fasttrace.fast_available(),
    reason="no C compiler for the compiled kernels",
)


def _store_bench(payload: dict) -> None:
    bench = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "fast_available": fast_available(),
        },
        "fused_scale_smoke": payload,
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


def _save_smoke_inputs(directory: Path) -> None:
    """The smoke graph (seeded uniform random edges) and its PR plan."""
    from repro.apps import make_app
    from repro.graph import from_edges

    rng = np.random.default_rng(42)
    m = SMOKE_VERTICES * SMOKE_DEGREE
    edges = np.stack(
        [rng.integers(0, SMOKE_VERTICES, size=m), rng.integers(0, SMOKE_VERTICES, size=m)],
        axis=1,
    )
    graph = from_edges(SMOKE_VERTICES, edges)
    graph.save(directory / "graph")
    with open(directory / "plan.pkl", "wb") as handle:
        pickle.dump(make_app("PR").plan(graph), handle)


#: Child program: one path (fused | materialized) of the smoke cell in a
#: fresh process, reporting counters and the trace-phase RSS growth.
_SMOKE_CHILD = textwrap.dedent(
    """
    import json, pickle, sys
    from pathlib import Path
    from repro import engines
    from repro.apps import make_app
    from repro.cachesim import DEFAULT_HIERARCHY, simulate_trace
    from repro.graph import Graph

    mode, inputs, chunk = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    graph = Graph.load(inputs / "graph", mmap=True)
    # Fault every mapped page in now, so the trace phase starts with the
    # graph resident and its growth is its own.
    for name in ("out_offsets", "out_targets", "in_offsets", "in_sources"):
        getattr(graph, name).sum()
    with open(inputs / "plan.pkl", "rb") as f:
        plan = pickle.load(f)
    app = make_app("PR")
    for domain in engines.DOMAINS:
        engines.fast_available(domain)  # loads the kernel before the base reading

    def status_kb():
        with open("/proc/self/status") as f:
            fields = dict(line.split(":", 1) for line in f)
        return {k: int(fields[k].split()[0]) for k in ("VmRSS", "VmHWM")}

    start = status_kb()
    if start["VmHWM"] > start["VmRSS"] + 1024:
        sys.exit(f"VmHWM already above VmRSS at the trace phase: {start}")
    base_kb = start["VmRSS"]
    if mode == "fused":
        app_trace = app.trace_streaming(graph, plan, chunk_edges=chunk)
        stats = simulate_trace(app_trace.trace, DEFAULT_HIERARCHY)
        runs = app_trace.trace.runs_streamed
    else:
        app_trace = app.trace(graph, plan)
        stats = simulate_trace(app_trace.trace, DEFAULT_HIERARCHY)
        runs = len(app_trace.trace)
    peak_kb = status_kb()["VmHWM"]
    print(json.dumps({
        "mode": mode,
        "runs": int(runs),
        "instructions": int(app_trace.instructions),
        "accesses": int(stats.accesses),
        "l1_misses": int(stats.l1_misses),
        "l2_misses": int(stats.l2_misses),
        "l3_misses": int(stats.l3_misses),
        "l2_breakdown": dict(stats.l2_miss_breakdown),
        "base_rss_kb": int(base_kb),
        "peak_rss_kb": int(peak_kb),
        "trace_phase_rss_kb": int(peak_kb - base_kb),
    }))
    """
)


def _run_smoke_child(mode: str, inputs: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SMOKE_CHILD, mode, str(inputs), str(SMOKE_CHUNK_EDGES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode == 0, f"{mode} child failed:\n{proc.stderr[-4000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_kernels
def test_fused_scale_smoke(tmp_path):
    _save_smoke_inputs(tmp_path)
    fused = _run_smoke_child("fused", tmp_path)
    materialized = _run_smoke_child("materialized", tmp_path)

    counters = (
        "runs", "instructions", "accesses",
        "l1_misses", "l2_misses", "l3_misses", "l2_breakdown",
    )
    for name in counters:
        assert fused[name] == materialized[name], (
            f"fused {name} diverged: {fused[name]} != {materialized[name]}"
        )

    fused_growth = fused["trace_phase_rss_kb"]
    mat_growth = materialized["trace_phase_rss_kb"]
    ratio = fused_growth / mat_growth if mat_growth > 0 else 0.0
    payload = {
        "vertices": SMOKE_VERTICES,
        "edges": SMOKE_VERTICES * SMOKE_DEGREE,
        "chunk_edges": SMOKE_CHUNK_EDGES,
        "rss_target_fraction": RSS_TARGET_FRACTION,
        "rss_ratio_fused_over_materialized": ratio,
        "fused": fused,
        "materialized": materialized,
    }
    _store_bench(payload)
    print(
        f"\nfused smoke ({SMOKE_VERTICES:,} vertices): trace-phase RSS "
        f"fused {fused_growth / 1024:.0f} MiB vs materialized "
        f"{mat_growth / 1024:.0f} MiB -> {ratio:.1%}"
    )
    assert mat_growth > 0, "materialized path recorded no trace-phase RSS growth"
    assert ratio < RSS_TARGET_FRACTION, (
        f"fused trace-phase RSS is {ratio:.1%} of materialized "
        f"(target < {RSS_TARGET_FRACTION:.0%})"
    )
