"""Paper-scale benchmarks — emit ``BENCH_scale.json``.

Two measurements back the scaling claims of the threaded-kernel /
fused-streaming work:

* **threaded_kernels** — the pthread-chunked trace-build and simulate
  kernels vs their serial siblings on large single-machine workloads.
  The >=4x acceptance gate applies only on machines with >= 8 cores
  (the kernels are memory-bandwidth-bound; below that the gate would
  measure the CI shard, not the code) — elsewhere the numbers are
  recorded ungated.  Bit-identity is asserted inside the timers either
  way, on every machine.
* **fused_scale_smoke** — a 1M-vertex PageRank super-step taken through
  the fused streaming trace→simulate path and through the materialized
  two-stage path, each in its own subprocess.  Once the graph and plan
  are built, the child resets its peak RSS (``5`` to
  ``/proc/self/clear_refs``) and reports ``VmHWM`` after the path minus
  ``VmRSS`` at the reset: the trace phase's own growth, which a
  process-lifetime ``ru_maxrss`` hides under the graph-build peak.
  Asserts the two paths produce identical cache counters and that the
  fused path's trace-phase growth stays under ``RSS_TARGET_FRACTION`` of
  the materialized path's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cachesim import DEFAULT_HIERARCHY, fast_available
from repro.framework import fasttrace
from repro.tools.simbench_tool import (
    make_microbench_trace,
    time_engines,
    time_trace_build,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_scale.json"

#: Acceptance: threaded kernels over their serial siblings, gated on
#: machines with at least this many cores.
THREAD_TARGET_SPEEDUP = 4.0
THREAD_GATE_CORES = 8

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


def _store_bench(section: str, payload: dict) -> None:
    bench = {}
    if BENCH_PATH.exists():
        try:
            bench = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            bench = {}
    bench[section] = payload
    bench["environment"] = {
        "cpu_count": os.cpu_count(),
        "fast_available": fast_available(),
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


@needs_kernels
def test_threaded_kernel_speedup():
    threads = os.cpu_count() or 1
    gated = threads >= THREAD_GATE_CORES

    build = time_trace_build(1 << 21, seed=0, kind="shuffled",
                             repeats=3, threads=max(threads, 2))
    # The scaled hierarchy has 256 L1 sets, so the per-partition replay
    # is not capped below the worker count (the tiny default hierarchy
    # folds everything into 4 partitions).
    sim = time_engines(
        make_microbench_trace(1_000_000, seed=0),
        DEFAULT_HIERARCHY.scaled(64),
        ["fast", "fast-threaded"],
        repeats=3,
        threads=max(threads, 2),
    )
    payload = {
        "cpu_count": threads,
        "gated": gated,
        "target_speedup": THREAD_TARGET_SPEEDUP,
        "trace_build": build,
        "simulate": sim,
    }
    _store_bench("threaded_kernels", payload)
    build_speedup = build.get("speedup_threaded_over_fast", 0.0)
    sim_speedup = sim.get("speedup_threaded_over_fast", 0.0)
    print(
        f"\nthreaded kernels ({threads} cores): trace build "
        f"{build_speedup:.2f}x, simulate {sim_speedup:.2f}x over serial"
    )
    if not gated:
        pytest.skip(
            f"{threads} cores < {THREAD_GATE_CORES}: speedups recorded, gate skipped"
        )
    assert build_speedup >= THREAD_TARGET_SPEEDUP, (
        f"threaded trace build only {build_speedup:.2f}x over serial "
        f"(target {THREAD_TARGET_SPEEDUP}x on {threads} cores)"
    )
    assert sim_speedup >= THREAD_TARGET_SPEEDUP, (
        f"threaded simulate only {sim_speedup:.2f}x over serial "
        f"(target {THREAD_TARGET_SPEEDUP}x on {threads} cores)"
    )


#: Child program: one path (fused | materialized) of the smoke cell in a
#: fresh process, reporting counters and the trace-phase RSS growth.
_SMOKE_CHILD = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.apps import make_app
    from repro.cachesim import DEFAULT_HIERARCHY, simulate_trace
    from repro.graph import from_edges

    mode, n, deg, chunk = (
        sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    )
    rng = np.random.default_rng(42)
    m = n * deg
    edges = np.stack(
        [rng.integers(0, n, size=m), rng.integers(0, n, size=m)], axis=1
    )
    graph = from_edges(n, edges)
    del edges
    app = make_app("PR")
    plan = app.plan(graph)

    def status_kb():
        with open("/proc/self/status") as f:
            fields = dict(line.split(":", 1) for line in f)
        return {k: int(fields[k].split()[0]) for k in ("VmRSS", "VmHWM")}

    # Reset the peak to the current RSS; an error here fails the test.
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    reset = status_kb()
    if reset["VmHWM"] > reset["VmRSS"] + 1024:
        sys.exit(f"clear_refs did not reset VmHWM: {reset}")
    base_kb = reset["VmRSS"]
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


def _run_smoke_child(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, "-c", _SMOKE_CHILD, mode,
            str(SMOKE_VERTICES), str(SMOKE_DEGREE), str(SMOKE_CHUNK_EDGES),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode == 0, f"{mode} child failed:\n{proc.stderr[-4000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_kernels
def test_fused_scale_smoke():
    fused = _run_smoke_child("fused")
    materialized = _run_smoke_child("materialized")

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
    _store_bench("fused_scale_smoke", payload)
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
