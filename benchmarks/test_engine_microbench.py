"""Compiled-engine micro-benchmarks — emit ``BENCH_cachesim.json``.

Measurements:

* **engines** — accesses/second for the reference loop vs the compiled
  fast engine on the synthetic graph-shaped microbench trace (the >=10x
  acceptance gate for the fast engine lives here);
* **superstep_trace** — whole ``GraphApp.trace`` calls, the compiled
  super-step generator vs the numpy streams + ``argsort`` reference, for
  PR (pull) and SSSP (weighted push) on the ``tw`` analog (>=1.4x
  acceptance gate each, byte-identical traces asserted on every timed
  call);
* **gorder** — the compiled Gorder placement loop vs the Python heap
  loop on an R-MAT graph (>=5x acceptance gate);
* **relabel** / **csr_build** — the O(E) graph-structure kernels vs the
  dual-argsort numpy references on a dataset analog (>=5x acceptance
  gates each, bit-identical dual CSRs asserted inside the timers);
* **plan** — one round of each plan kernel (PageRank pull sum, Radii
  pull OR, PageRank-Delta push sum) vs its numpy scatter reference on
  the scale-4 ``sd`` analog (>=3x acceptance gate each, identical output
  bytes asserted inside the timer);
* **grid_stages** — per-stage breakdown (the stage fold of the traced
  spans, shaped by ``grid_cache_check.grid_stages``) of the demo grid with
  every engine forced reference vs forced fast; asserts the fast engines
  beat reference overall and that the relabel share sits below both the
  trace and simulate shares;
* **grid_runner** — cells/second for :func:`repro.pipeline.run_grid` serial
  vs process-parallel against cold artifact stores (recorded, not asserted:
  the win depends on available cores, which the JSON also records).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid
from repro.observability import TRACER, fold_stage_events, format_stage_table
from repro.cachesim import DEFAULT_HIERARCHY, fast_available
from repro.framework import fasttrace
from repro.graph import fastgraph
from repro.graph.generators.datasets import _load_cached
from repro.tools.simbench_tool import (
    make_microbench_trace,
    time_csr_build,
    time_engines,
    time_gorder,
    time_plan_kernels,
    time_relabel,
)

from grid_cache_check import grid_stages

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cachesim.json"

#: Acceptance target: fast engine vs reference on the microbench trace.
TARGET_SPEEDUP = 10.0
#: Acceptance target: compiled super-step generator vs the numpy streams.
SUPERSTEP_TARGET_SPEEDUP = 1.4
#: Acceptance target: Gorder kernel vs the Python heap loop.
GORDER_TARGET_SPEEDUP = 5.0
#: Acceptance target: graph relabel/build kernels vs the numpy argsorts.
GRAPH_TARGET_SPEEDUP = 5.0
#: Acceptance target: each plan round kernel vs its numpy scatter.
PLAN_TARGET_SPEEDUP = 3.0

GRID = (["PR", "PRD"], ["lj"], ["Original", "DBG"])
GRID_CELLS = len(GRID[0]) * len(GRID[1]) * len(GRID[2])

needs_trace_kernel = pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)
needs_graph_kernel = pytest.mark.skipif(
    not fastgraph.fast_available(), reason="no C compiler for the graph kernels"
)


def _load_bench() -> dict:
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            pass
    return {}


def _store_bench(section: str, payload: dict) -> None:
    bench = _load_bench()
    bench[section] = payload
    bench["environment"] = {
        "cpu_count": os.cpu_count(),
        "fast_available": fast_available(),
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


@pytest.mark.skipif(not fast_available(), reason="no C compiler for the fast engine")
def test_engine_throughput_target():
    trace = make_microbench_trace(600_000, seed=0)
    results = time_engines(
        trace, DEFAULT_HIERARCHY, ["reference", "fast"], repeats=2
    )
    speedup = results["speedup_fast_over_reference"]
    _store_bench("engines", results)
    ref = results["engines"]["reference"]["accesses_per_second"]
    fast = results["engines"]["fast"]["accesses_per_second"]
    print(
        f"\nmicrobench trace ({len(trace):,} runs): reference "
        f"{ref / 1e6:.1f} M acc/s, fast {fast / 1e6:.1f} M acc/s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"fast engine only {speedup:.1f}x over reference "
        f"(target {TARGET_SPEEDUP}x)"
    )


def time_superstep_trace(app_name: str, dataset: str, repeats: int) -> dict:
    """Best-of-``repeats`` ``GraphApp.trace`` time per engine, alternating.

    Every timed fast trace is checked byte-for-byte against the reference.
    """
    from repro.apps import make_app
    from repro.graph.generators import load_dataset

    graph = load_dataset(dataset, weighted=app_name == "SSSP")
    app = make_app(app_name)
    plan = app.plan(graph)
    best = {"reference": float("inf"), "fast": float("inf")}
    expected = None
    for _ in range(repeats):
        for engine in best:
            start = time.perf_counter()
            trace = app.trace(graph, plan, engine=engine).trace
            best[engine] = min(best[engine], time.perf_counter() - start)
            arrays = [trace.blocks, trace.writes, trace.cores]
            if expected is None:
                expected = arrays, trace.accesses
            for got, want in zip(arrays, expected[0]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert trace.accesses == expected[1]
    accesses = trace.total_accesses
    return {
        "app": app_name,
        "dataset": dataset,
        "direction": plan.traced.direction,
        "weighted": graph.is_weighted,
        "accesses": accesses,
        "runs": len(trace),
        "engines": {
            engine: {"seconds": seconds, "accesses_per_second": accesses / seconds}
            for engine, seconds in best.items()
        },
        "speedup_fast_over_reference": best["reference"] / best["fast"],
    }


@needs_trace_kernel
def test_superstep_trace_throughput_target():
    payload = {}
    for app_name in ("PR", "SSSP"):
        results = time_superstep_trace(app_name, "tw", repeats=7)
        payload[app_name] = results
        print(
            f"\nsuperstep trace [{app_name}/tw] ({results['accesses']:,} accesses): "
            f"reference {results['engines']['reference']['seconds'] * 1e3:.1f}ms, "
            f"fast {results['engines']['fast']['seconds'] * 1e3:.1f}ms "
            f"-> {results['speedup_fast_over_reference']:.2f}x"
        )
    _store_bench("superstep_trace", payload)
    for app_name, results in payload.items():
        speedup = results["speedup_fast_over_reference"]
        assert speedup >= SUPERSTEP_TARGET_SPEEDUP, (
            f"super-step generator only {speedup:.2f}x over the numpy streams "
            f"for {app_name} (target {SUPERSTEP_TARGET_SPEEDUP}x)"
        )


@needs_trace_kernel
def test_gorder_throughput_target():
    results = time_gorder(scale=13, avg_degree=16, window=5, repeats=3)
    _store_bench("gorder", results)
    speedup = results["speedup_fast_over_reference"]
    print(
        f"\ngorder ({results['vertices']:,} vertices): "
        f"reference {results['engines']['reference']['seconds'] * 1e3:.0f}ms, "
        f"fast {results['engines']['fast']['seconds'] * 1e3:.0f}ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= GORDER_TARGET_SPEEDUP, (
        f"gorder kernel only {speedup:.1f}x over the Python heap loop "
        f"(target {GORDER_TARGET_SPEEDUP}x)"
    )


@needs_graph_kernel
def test_relabel_throughput_target():
    results = time_relabel("sd", seed=0, repeats=5)
    _store_bench("relabel", results)
    speedup = results["speedup_fast_over_reference"]
    print(
        f"\nrelabel [sd] ({results['edges']:,} edges): "
        f"reference {results['engines']['reference']['seconds'] * 1e3:.1f}ms, "
        f"fast {results['engines']['fast']['seconds'] * 1e3:.1f}ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= GRAPH_TARGET_SPEEDUP, (
        f"relabel kernel only {speedup:.1f}x over the numpy reference "
        f"(target {GRAPH_TARGET_SPEEDUP}x)"
    )


@needs_graph_kernel
def test_csr_build_throughput_target():
    results = time_csr_build("sd", seed=0, repeats=5)
    _store_bench("csr_build", results)
    speedup = results["speedup_fast_over_reference"]
    print(
        f"\ncsr build [sd] ({results['edges']:,} edges): "
        f"reference {results['engines']['reference']['seconds'] * 1e3:.1f}ms, "
        f"fast {results['engines']['fast']['seconds'] * 1e3:.1f}ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= GRAPH_TARGET_SPEEDUP, (
        f"CSR-build kernel only {speedup:.1f}x over the numpy reference "
        f"(target {GRAPH_TARGET_SPEEDUP}x)"
    )


@needs_graph_kernel
def test_plan_kernel_throughput_target():
    results = time_plan_kernels("sd", scale=4.0, seed=0, repeats=5)
    _store_bench("plan", results)
    for name, row in results["kernels"].items():
        speedup = row["speedup_fast_over_reference"]
        print(
            f"\n{name} [sd x4] ({results['edges']:,} edges): "
            f"reference {row['engines']['reference']['seconds'] * 1e3:.1f}ms, "
            f"fast {row['engines']['fast']['seconds'] * 1e3:.1f}ms "
            f"-> {speedup:.1f}x"
        )
        assert speedup >= PLAN_TARGET_SPEEDUP, (
            f"{name} kernel only {speedup:.1f}x over the numpy reference "
            f"(target {PLAN_TARGET_SPEEDUP}x)"
        )


@needs_trace_kernel
@needs_graph_kernel
def test_grid_stage_profile(tmp_path, monkeypatch):
    """Per-stage breakdown of the demo grid under both engine settings.

    PR 1 made simulation compiled-fast (moving the bottleneck into trace
    construction), PR 2 compiled the trace kernels (moving it into
    relabel), and the graph kernels retire relabel in turn.  Each PR
    shrinks the staged-time denominator, so absolute share thresholds on
    the surviving stages go stale; the durable invariants are relative:
    the fast engines must beat reference on total staged time, and the
    relabel share must sit below both the trace and simulate shares.
    """
    payload = {}
    for engine in ("reference", "fast"):
        # Each pass starts cold: without this the fast pass would reuse the
        # graphs the reference pass generated and record generate at 0 s.
        _load_cached.cache_clear()
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        monkeypatch.setenv("REPRO_TRACE_ENGINE", engine)
        monkeypatch.setenv("REPRO_GRAPH_ENGINE", engine)
        pipeline = CellPipeline(
            ExperimentConfig(scale=8.0), store=ArtifactStore(tmp_path / engine)
        )
        TRACER.reset()
        run_grid(pipeline, *GRID)
        stages = fold_stage_events(TRACER.snapshot())
        payload[engine] = grid_stages(stages)
        print(f"\n[{engine}]\n{format_stage_table(stages)}")
    _store_bench("grid_stages", payload)
    fast_total = payload["fast"]["staged_seconds"]
    ref_total = payload["reference"]["staged_seconds"]
    assert fast_total < ref_total, (
        f"fast engines slower than reference on the demo grid "
        f"({fast_total:.2f}s vs {ref_total:.2f}s staged)"
    )
    trace_share = payload["fast"]["stages"]["trace"]["share"]
    relabel_share = payload["fast"]["stages"]["relabel"]["share"]
    assert relabel_share < trace_share, (
        f"relabel ({relabel_share:.0%}) still above trace "
        f"({trace_share:.0%}) on the fast engines"
    )
    simulate_share = payload["fast"]["stages"]["simulate"]["share"]
    assert relabel_share < simulate_share, (
        f"relabel ({relabel_share:.0%}) still above simulate "
        f"({simulate_share:.0%}) on the fast engines"
    )


def test_grid_runner_throughput(tmp_path):
    config = ExperimentConfig()
    pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "serial"))
    start = time.perf_counter()
    serial = run_grid(pipeline, *GRID)
    serial_s = time.perf_counter() - start

    workers = min(4, os.cpu_count() or 1)
    pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "parallel"))
    start = time.perf_counter()
    parallel = run_grid(pipeline, *GRID, workers=workers)
    parallel_s = time.perf_counter() - start

    assert serial == parallel  # cold-cache parity, through real processes
    payload = {
        "cells": GRID_CELLS,
        "workers": workers,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "serial_cells_per_second": GRID_CELLS / serial_s,
        "parallel_cells_per_second": GRID_CELLS / parallel_s,
    }
    _store_bench("grid_runner", payload)
    print(
        f"\ngrid ({GRID_CELLS} cells): serial {serial_s:.2f}s, "
        f"parallel[{workers}] {parallel_s:.2f}s"
    )
