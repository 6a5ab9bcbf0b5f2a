"""``repro-simbench`` — measure compiled-engine throughput.

Benchmark families, selectable with ``--bench``:

* ``sim`` — cache-simulation engines on a reproducible graph-shaped
  trace (zipf-popular property blocks with streaming vertex/edge runs,
  multi-core, mixed reads/writes);
* ``gorder`` — the compiled Gorder placement loop vs the Python heap
  loop on an R-MAT graph;
* ``relabel`` — CSR regeneration under a permutation: the O(E)
  counting-placement graph kernel vs the dual-argsort numpy reference
  on a dataset analog;
* ``build`` — dual-CSR construction from a shuffled edge list: the
  counting-sort graph kernel vs the stable-argsort numpy reference;
* ``plan`` — one round of each plan kernel (PageRank's pull sum,
  Radii's pull OR, PageRank-Delta's push sum) vs its numpy scatter
  reference, on a dataset analog at scale 4 (the ``scale-cell``
  benchmark's graph size);
* ``stream`` — the fused streaming trace→simulate path vs materializing
  the whole trace first, on a dataset analog (asserts identical miss
  counters, reports chunk statistics and process peak RSS).

Every timed pair is asserted bit-identical before speedups are printed.
``--json`` archives the numbers in the ``BENCH_cachesim.json`` format
the benchmark harness also emits, including the streaming chunk size
and peak RSS.

Examples::

    repro-simbench --runs 500000
    repro-simbench --policy lip --engines fast
    repro-simbench --bench relabel --graph-dataset sd
    repro-simbench --bench plan --graph-dataset kr
    repro-simbench --bench stream --graph-dataset sd --chunk-edges 65536
    repro-simbench --bench all --json BENCH_cachesim.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.cachesim import (
    DEFAULT_HIERARCHY,
    HierarchyConfig,
    fast_available,
    get_policy,
    policy_names,
    simulate_trace,
)
from repro.framework import fasttrace
from repro.framework.trace import MemoryTrace

__all__ = [
    "main",
    "make_microbench_trace",
    "time_engines",
    "time_gorder",
    "time_relabel",
    "time_csr_build",
    "time_plan_kernels",
    "time_stream",
    "peak_rss_kb",
]


def peak_rss_kb() -> int | None:
    """This process's peak resident set size in KiB (None off-Linux).

    ``ru_maxrss`` is a high-water mark — it never decreases within a
    process — so it bounds every path timed so far rather than isolating
    one; per-path isolation needs subprocesses (the scale benchmark
    harness does that).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def make_microbench_trace(runs: int, seed: int = 0, write_fraction: float = 0.05,
                          num_cores: int = 40) -> MemoryTrace:
    """A synthetic trace with graph-workload reuse structure.

    Mirrors what app traces look like after run-length compression: a
    zipf-skewed irregular property stream (temporal reuse concentrated on
    hot blocks) interleaved with sequentially streamed vertex/edge-array
    runs of 8 accesses each (counted in the trace's access total).
    """
    rng = np.random.default_rng(seed)
    irregular = (rng.zipf(1.2, size=runs) % 4096).astype(np.int64)
    # Every 8th run is a streamed block from a disjoint region, visited
    # once with 8 packed accesses (64B block / 8B elements).
    stream_positions = np.arange(0, runs, 8)
    blocks = irregular.copy()
    blocks[stream_positions] = 1 << 20  # disjoint region base
    blocks[stream_positions] += np.arange(stream_positions.size)
    accesses = runs + 7 * stream_positions.size
    writes = rng.random(runs) < write_fraction
    cores = rng.integers(0, num_cores, size=runs, dtype=np.uint8)
    return MemoryTrace(blocks, writes, cores, accesses)


def time_gorder(
    scale: int = 13, avg_degree: int = 16, window: int = 5, repeats: int = 3
) -> dict:
    """Best-of-``repeats`` Gorder placement time, kernel vs Python loop.

    Asserts both engines compute the identical permutation.
    """
    from repro.graph.generators.rmat import rmat_graph
    from repro.reorder.gorder import Gorder

    graph = rmat_graph(scale, avg_degree=avg_degree, seed=1)
    technique = Gorder(window=window)
    saved = os.environ.get("REPRO_TRACE_ENGINE")
    try:
        os.environ["REPRO_TRACE_ENGINE"] = "reference"
        best_ref = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            ref = technique.compute_mapping(graph)
            best_ref = min(best_ref, time.perf_counter() - start)
    finally:
        if saved is None:
            os.environ.pop("REPRO_TRACE_ENGINE", None)
        else:
            os.environ["REPRO_TRACE_ENGINE"] = saved
    results: dict = {
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "window": window,
        "engines": {
            "reference": {
                "seconds": best_ref,
                "vertices_per_second": graph.num_vertices / best_ref,
            }
        },
    }
    if fasttrace.fast_available():
        try:
            os.environ["REPRO_TRACE_ENGINE"] = "fast"
            best_fast = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fast = technique.compute_mapping(graph)
                best_fast = min(best_fast, time.perf_counter() - start)
        finally:
            if saved is None:
                os.environ.pop("REPRO_TRACE_ENGINE", None)
            else:
                os.environ["REPRO_TRACE_ENGINE"] = saved
        if not np.array_equal(ref, fast):
            raise AssertionError("fast Gorder mapping diverged from reference")
        results["engines"]["fast"] = {
            "seconds": best_fast,
            "vertices_per_second": graph.num_vertices / best_fast,
        }
        results["speedup_fast_over_reference"] = best_ref / best_fast
    return results


def _assert_same_graph(ref, fast, label: str) -> None:
    if ref != fast:
        raise AssertionError(f"fast {label} diverged from reference")
    if ref.is_weighted and not (
        np.array_equal(ref.out_weights, fast.out_weights)
        and np.array_equal(ref.in_weights, fast.in_weights)
    ):
        raise AssertionError(f"fast {label} weights diverged from reference")


def time_relabel(
    dataset: str = "sd",
    seed: int = 0,
    weighted: bool = False,
    repeats: int = 5,
) -> dict:
    """Best-of-``repeats`` CSR relabel time, graph kernel vs numpy.

    Relabels a dataset analog under a seeded random permutation (the
    worst-case scatter pattern, and what RandomVertex produces) and
    asserts both engines emit bit-identical dual CSRs.
    """
    from repro.graph.fastgraph import fast_available as graph_fast_available
    from repro.graph.generators import load_dataset

    graph = load_dataset(dataset, weighted=weighted)
    mapping = np.random.default_rng(seed).permutation(graph.num_vertices)
    best_ref = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ref = graph.relabel(mapping, engine="reference")
        best_ref = min(best_ref, time.perf_counter() - start)
    results: dict = {
        "dataset": dataset,
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "weighted": weighted,
        "engines": {
            "reference": {
                "seconds": best_ref,
                "edges_per_second": graph.num_edges / best_ref,
            }
        },
    }
    if graph_fast_available():
        best_fast = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fast = graph.relabel(mapping, engine="fast")
            best_fast = min(best_fast, time.perf_counter() - start)
        _assert_same_graph(ref, fast, "relabel")
        results["engines"]["fast"] = {
            "seconds": best_fast,
            "edges_per_second": graph.num_edges / best_fast,
        }
        results["speedup_fast_over_reference"] = best_ref / best_fast
    return results


def time_csr_build(
    dataset: str = "sd",
    seed: int = 0,
    weighted: bool = False,
    repeats: int = 5,
) -> dict:
    """Best-of-``repeats`` dual-CSR build time, graph kernel vs numpy.

    Rebuilds a dataset analog from its own edge list in shuffled order
    (what generators and ``from_edges`` callers feed the builder) and
    asserts both engines emit bit-identical dual CSRs.
    """
    from repro.graph.csr import _build_dual_csr
    from repro.graph.fastgraph import fast_available as graph_fast_available
    from repro.graph.generators import load_dataset

    graph = load_dataset(dataset, weighted=weighted)
    src, dst = graph.edge_array()
    order = np.random.default_rng(seed).permutation(graph.num_edges)
    src = src[order].astype(np.int64)
    dst = dst[order].astype(np.int64)
    weights = graph.out_weights[order] if weighted else None
    best_ref = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ref = _build_dual_csr(
            graph.num_vertices, src, dst, weights, stable=True, engine="reference"
        )
        best_ref = min(best_ref, time.perf_counter() - start)
    results: dict = {
        "dataset": dataset,
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "weighted": weighted,
        "engines": {
            "reference": {
                "seconds": best_ref,
                "edges_per_second": graph.num_edges / best_ref,
            }
        },
    }
    if graph_fast_available():
        best_fast = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fast = _build_dual_csr(
                graph.num_vertices, src, dst, weights, stable=True, engine="fast"
            )
            best_fast = min(best_fast, time.perf_counter() - start)
        _assert_same_graph(ref, fast, "CSR build")
        results["engines"]["fast"] = {
            "seconds": best_fast,
            "edges_per_second": graph.num_edges / best_fast,
        }
        results["speedup_fast_over_reference"] = best_ref / best_fast
    return results


def time_plan_kernels(
    dataset: str = "sd",
    scale: float = 4.0,
    seed: int = 0,
    repeats: int = 5,
) -> dict:
    """Best-of-``repeats`` time of one round per plan kernel, C vs numpy.

    Times the :mod:`repro.graph.fastgraph` wrappers as an application
    round calls them, over a :class:`~repro.graph.fastgraph.CheckedCSR`
    built once (per-round value checks included), on seeded per-vertex
    values: ``pull_sum`` and ``pull_or``
    over the in-CSR, ``push_sum`` over the out-CSR with every vertex
    active (PageRank-Delta's first round, every edge pushed).  Asserts
    both engines return the same bytes.
    """
    from repro.graph import fastgraph
    from repro.graph.generators import load_dataset

    graph = load_dataset(dataset, scale=scale)
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    sums = rng.random(n) / np.maximum(graph.out_degrees(), 1)
    masks = rng.integers(0, 2**63, size=n, dtype=np.uint64)
    active = np.arange(n, dtype=np.int64)
    in_csr = fastgraph.CheckedCSR(graph.in_offsets, graph.in_sources)
    out_csr = fastgraph.CheckedCSR(graph.out_offsets, graph.out_targets)
    calls = {
        "pull_sum": lambda engine: fastgraph.pull_sum(in_csr, sums, engine=engine),
        "pull_or": lambda engine: fastgraph.pull_or(in_csr, masks, engine=engine),
        "push_sum": lambda engine: fastgraph.push_sum(
            out_csr, sums, active, engine=engine
        ),
    }
    engines = ["reference"] + (["fast"] if fastgraph.fast_available() else [])
    results: dict = {
        "dataset": dataset,
        "scale": scale,
        "vertices": int(n),
        "edges": int(graph.num_edges),
        "kernels": {},
    }
    for name, call in calls.items():
        row: dict = {"engines": {}}
        outputs = {}
        for engine in engines:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                outputs[engine] = call(engine)
                best = min(best, time.perf_counter() - start)
            row["engines"][engine] = {
                "seconds": best,
                "edges_per_second": graph.num_edges / best,
            }
        if "fast" in outputs:
            if outputs["fast"].tobytes() != outputs["reference"].tobytes():
                raise AssertionError(f"{name}: fast and reference outputs differ")
            row["speedup_fast_over_reference"] = (
                row["engines"]["reference"]["seconds"]
                / row["engines"]["fast"]["seconds"]
            )
        results["kernels"][name] = row
    return results


def time_stream(
    dataset: str = "sd",
    app_name: str = "PR",
    chunk_edges: int | None = None,
    repeats: int = 2,
) -> dict:
    """Fused streaming trace→simulate vs the materialized two-stage path.

    Builds one app's super-step trace both ways on a dataset analog,
    asserts the cache counters are identical, and reports wall time,
    chunk statistics (count, peak runs held at once) and the process
    peak RSS.  ``ru_maxrss`` is process-monotonic, so the recorded value
    bounds *both* paths; the scale benchmark isolates them in
    subprocesses for the RSS-reduction acceptance number.
    """
    from repro.apps import make_app
    from repro.graph.generators import load_dataset

    graph = load_dataset(dataset, weighted=app_name == "SSSP")
    app = make_app(app_name)
    plan = app.plan(graph)
    config = DEFAULT_HIERARCHY

    best_mat = float("inf")
    mat_stats = None
    trace_runs = 0
    for _ in range(repeats):
        start = time.perf_counter()
        app_trace = app.trace(graph, plan)
        mat_stats = simulate_trace(app_trace.trace, config)
        best_mat = min(best_mat, time.perf_counter() - start)
        trace_runs = len(app_trace.trace)

    best_fused = float("inf")
    fused_stats = None
    streaming = None
    for _ in range(repeats):
        start = time.perf_counter()
        fused = app.trace_streaming(graph, plan, chunk_edges=chunk_edges)
        fused_stats = simulate_trace(fused.trace, config)
        best_fused = min(best_fused, time.perf_counter() - start)
        streaming = fused.trace

    if (
        mat_stats.l1_misses,
        mat_stats.l2_misses,
        mat_stats.l3_misses,
        mat_stats.accesses,
        mat_stats.l2_miss_breakdown,
    ) != (
        fused_stats.l1_misses,
        fused_stats.l2_misses,
        fused_stats.l3_misses,
        fused_stats.accesses,
        fused_stats.l2_miss_breakdown,
    ):
        raise AssertionError("fused streaming path diverged from materialized")
    if streaming.runs_streamed != trace_runs:
        raise AssertionError(
            "streamed run sequence differs in length from the materialized trace"
        )
    return {
        "dataset": dataset,
        "app": app_name,
        "vertices": int(graph.num_vertices),
        "edges": int(graph.num_edges),
        "chunk_edges": streaming.detail.get("chunk_edges"),
        "trace_runs": trace_runs,
        "chunks_streamed": streaming.chunks_streamed,
        "peak_chunk_runs": streaming.peak_chunk_runs,
        "accesses": int(fused_stats.accesses),
        "peak_rss_kb": peak_rss_kb(),
        "paths": {
            "materialized": {
                "seconds": best_mat,
                "accesses_per_second": mat_stats.accesses / best_mat,
            },
            "fused": {
                "seconds": best_fused,
                "accesses_per_second": fused_stats.accesses / best_fused,
            },
        },
        "fused_over_materialized_time": best_fused / best_mat,
    }


def time_engines(
    trace: MemoryTrace,
    config: HierarchyConfig,
    engines: list[str],
    repeats: int = 1,
    hot_blocks: np.ndarray | None = None,
) -> dict:
    """Best-of-``repeats`` wall time per engine; asserts identical counters.

    ``hot_blocks`` feeds skew-aware policies (``grasp``) the hot-block classification; it is passed to
    every engine so the bit-identity assertion covers protection too.
    """
    results: dict = {"engines": {}}
    reference_stats = None
    for engine in engines:
        best = float("inf")
        stats = None
        for _ in range(repeats):
            start = time.perf_counter()
            stats = simulate_trace(trace, config, engine=engine, hot_blocks=hot_blocks)
            best = min(best, time.perf_counter() - start)
        if reference_stats is None:
            reference_stats = stats
        elif (stats.l1_misses, stats.l2_misses, stats.l3_misses, stats.l2_miss_breakdown) != (
            reference_stats.l1_misses,
            reference_stats.l2_misses,
            reference_stats.l3_misses,
            reference_stats.l2_miss_breakdown,
        ):
            raise AssertionError(f"engine {engine!r} diverged from {engines[0]!r}")
        results["engines"][engine] = {
            "seconds": best,
            "accesses": stats.accesses,
            "runs": len(trace),
            "accesses_per_second": stats.accesses / best if best > 0 else 0.0,
            "ns_per_run": best * 1e9 / len(trace) if len(trace) else 0.0,
        }
    engine_times = results["engines"]
    if "reference" in engine_times and "fast" in engine_times:
        results["speedup_fast_over_reference"] = (
            engine_times["reference"]["seconds"] / engine_times["fast"]["seconds"]
        )
    return results


def _print_speedup(results: dict) -> None:
    if "speedup_fast_over_reference" in results:
        print(f"  speedup: {results['speedup_fast_over_reference']:.1f}x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the compiled engines (cachesim, Gorder, graph, plans)."
    )
    parser.add_argument(
        "--bench",
        choices=[
            "sim", "gorder", "relabel", "build", "plan", "stream", "all",
        ],
        default="sim",
        help="which benchmark family to run",
    )
    parser.add_argument("--chunk-edges", type=int, default=None,
                        help="streaming chunk size in edges for the stream bench")
    parser.add_argument("--stream-app", type=str, default="PR",
                        help="application for the stream bench")
    parser.add_argument("--runs", type=int, default=500_000,
                        help="compressed trace runs to simulate (sim bench)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", choices=list(policy_names()), default="lru",
                        help="replacement policy for the sim bench (skew-aware "
                             "policies get the zipf head as hot blocks)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats per engine (best is kept)")
    parser.add_argument("--engines", nargs="+", default=None,
                        choices=["reference", "fast"],
                        help="sim engines to time (default: all available)")
    parser.add_argument("--gorder-scale", type=int, default=13,
                        help="R-MAT scale exponent for the Gorder bench")
    parser.add_argument("--graph-dataset", type=str, default="sd",
                        help="dataset analog for the relabel/build/plan benches")
    parser.add_argument("--json", type=str, default=None,
                        help="also write results as JSON to this path")
    args = parser.parse_args(argv)

    output: dict = {
        "config": {
            "chunk_edges": args.chunk_edges,
            "seed": args.seed,
        }
    }
    if args.bench in ("sim", "all"):
        engines = args.engines
        if engines is None:
            engines = ["reference"] + (["fast"] if fast_available() else [])
        if any(e != "reference" for e in engines) and not fast_available():
            parser.error("fast engine unavailable (no C compiler?)")
        config = HierarchyConfig(
            l1=DEFAULT_HIERARCHY.l1,
            l2=DEFAULT_HIERARCHY.l2,
            l3=DEFAULT_HIERARCHY.l3,
            replacement=args.policy,
        )
        trace = make_microbench_trace(args.runs, seed=args.seed)
        hot_blocks = None
        if get_policy(args.policy, context="--policy").needs_hot_blocks:
            # The zipf(1.2) % 4096 irregular stream concentrates reuse on
            # low block IDs, so the low-ID head is the natural hot set.
            hot_blocks = np.arange(64, dtype=np.int64)
        print(
            f"sim trace: {len(trace):,} runs / {trace.total_accesses:,} accesses, "
            f"policy={args.policy}"
            + (f" ({hot_blocks.size} hot blocks)" if hot_blocks is not None else "")
        )
        results = time_engines(
            trace, config, engines, repeats=args.repeats, hot_blocks=hot_blocks
        )
        for engine, row in results["engines"].items():
            print(
                f"{engine:>9s}: {row['seconds']:8.3f}s  "
                f"{row['accesses_per_second'] / 1e6:8.2f} M accesses/s"
            )
        _print_speedup(results)
        output["engines"] = results

    if args.bench in ("gorder", "all"):
        results = time_gorder(scale=args.gorder_scale, repeats=max(args.repeats, 3))
        print(
            f"gorder: {results['vertices']:,} vertices / "
            f"{results['edges']:,} edges, window={results['window']}"
        )
        for engine, row in results["engines"].items():
            print(
                f"{engine:>9s}: {row['seconds'] * 1e3:8.1f}ms  "
                f"{row['vertices_per_second'] / 1e6:8.2f} M vertices/s"
            )
        _print_speedup(results)
        output["gorder"] = results

    if args.bench in ("relabel", "all"):
        results = time_relabel(
            args.graph_dataset, seed=args.seed, repeats=max(args.repeats, 3)
        )
        print(
            f"relabel [{results['dataset']}]: {results['vertices']:,} vertices / "
            f"{results['edges']:,} edges"
        )
        for engine, row in results["engines"].items():
            print(
                f"{engine:>9s}: {row['seconds'] * 1e3:8.1f}ms  "
                f"{row['edges_per_second'] / 1e6:8.2f} M edges/s"
            )
        _print_speedup(results)
        output["relabel"] = results

    if args.bench in ("build", "all"):
        results = time_csr_build(
            args.graph_dataset, seed=args.seed, repeats=max(args.repeats, 3)
        )
        print(
            f"csr build [{results['dataset']}]: {results['vertices']:,} vertices / "
            f"{results['edges']:,} edges"
        )
        for engine, row in results["engines"].items():
            print(
                f"{engine:>9s}: {row['seconds'] * 1e3:8.1f}ms  "
                f"{row['edges_per_second'] / 1e6:8.2f} M edges/s"
            )
        _print_speedup(results)
        output["csr_build"] = results

    if args.bench in ("plan", "all"):
        results = time_plan_kernels(
            args.graph_dataset, seed=args.seed, repeats=max(args.repeats, 3)
        )
        print(
            f"plan kernels [{results['dataset']} x{results['scale']}]: "
            f"{results['vertices']:,} vertices / {results['edges']:,} edges"
        )
        for name, row in results["kernels"].items():
            for engine, timing in row["engines"].items():
                print(
                    f"{name:>8s} {engine:>9s}: {timing['seconds'] * 1e3:8.1f}ms  "
                    f"{timing['edges_per_second'] / 1e6:8.2f} M edges/s"
                )
            _print_speedup(row)
        output["plan"] = results

    if args.bench in ("stream", "all"):
        results = time_stream(
            args.graph_dataset,
            app_name=args.stream_app,
            chunk_edges=args.chunk_edges,
            repeats=args.repeats,
        )
        print(
            f"stream [{results['dataset']}/{results['app']}]: "
            f"{results['trace_runs']:,} runs in {results['chunks_streamed']} "
            f"chunks (peak {results['peak_chunk_runs']:,} runs held)"
        )
        for path, row in results["paths"].items():
            print(
                f"{path:>12s}: {row['seconds']:8.3f}s  "
                f"{row['accesses_per_second'] / 1e6:8.2f} M accesses/s"
            )
        print(
            f"  fused/materialized time: "
            f"{results['fused_over_materialized_time']:.2f}x"
        )
        output["stream"] = results

    output["config"]["peak_rss_kb"] = peak_rss_kb()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(output, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
