"""CI gate: the technique x replacement-policy frontier is sound.

Runs a small reordering-technique x cache-policy grid through
``run_grid``'s policy axis and checks the contracts the frontier rests
on:

* **cold** — one pass over {Original, DBG, BOBA} x {lru, lip, grasp};
  asserts each mapping is stored, and each trace and plan built (counted
  from the stage spans), exactly once *across the whole policy axis*
  (policies share every stage up to simulate) while each (technique,
  policy) cell lands in its own distinct content address;
* **warm** — a fresh pipeline on the same store replays every cell with
  zero store misses and zero recomputes, and reproduces the cold
  results bit-for-bit;
* **parity** — for every (technique, policy) cell the compiled kernel
  and the pure-Python reference simulator produce bit-identical
  counters (including ``grasp``'s hot-block protection path), each
  technique's trace built once and simulated under every policy;
* emits the full MPKI matrix as ``BENCH_policy.json``.

Usage::

    PYTHONPATH=src python benchmarks/policy_frontier_check.py [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.pipeline import CellPipeline, ExperimentConfig, run_grid
from repro.apps import make_app
from repro.cachesim import fast_available, simulate_trace
from repro.observability import TRACER
from repro.pipeline import ArtifactStore

from grid_cache_check import assert_built_once

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_policy.json"

APP = "PR"
TECHNIQUES = ["Original", "DBG", "BOBA"]
POLICIES = ["lru", "lip", "grasp"]


def _cell_counters(stats) -> tuple:
    return (
        stats.accesses,
        stats.l1_misses,
        stats.l2_misses,
        stats.l3_misses,
        tuple(sorted(stats.l2_miss_breakdown.items())),
    )


def assert_engine_parity(pipeline, dataset: str) -> int:
    """Reference vs compiled counters for every (technique, policy) cell."""
    if not fast_available():
        print("parity: compiled kernel unavailable; skipping (reference only)")
        return 0
    checked = 0
    app = make_app(APP)
    for technique in TECHNIQUES:
        degree_kind = pipeline.degree_kind_for(APP, technique)
        trace = pipeline.compute_trace_stage(APP, dataset, technique, None)
        for policy in POLICIES:
            view = pipeline.policy_view(policy)
            hot = view.hot_blocks_for(app, APP, dataset, technique, degree_kind)
            ref = simulate_trace(
                trace.trace, view.config.hierarchy, engine="reference",
                hot_blocks=hot,
            )
            fast = simulate_trace(
                trace.trace, view.config.hierarchy, engine="fast", hot_blocks=hot,
            )
            assert _cell_counters(ref) == _cell_counters(fast), (
                f"fast engine diverged from reference for "
                f"({technique}, {policy}) on {dataset}"
            )
            checked += 1
    return checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dataset", type=str, default="wl")
    args = parser.parse_args(argv)

    config = ExperimentConfig(scale=args.scale, num_roots=1)
    grid = ([APP], [args.dataset], TECHNIQUES)
    num_cells = len(TECHNIQUES) * len(POLICIES)

    with tempfile.TemporaryDirectory(prefix="policy-frontier-") as tmp:
        store_dir = Path(tmp)

        cold = CellPipeline(config, store=ArtifactStore(store_dir))
        TRACER.reset()
        cold_results = run_grid(
            cold, *grid, workers=args.workers, policies=POLICIES
        )
        stats = cold.store.stats.as_dict()
        print("[cold] store counters:")
        for kind, counters in stats.items():
            print(f"  {kind:<8} {counters}")
        assert stats["cell"]["stores"] == num_cells, stats
        # The policy axis must not multiply stage work: mappings, plans
        # and traces are policy-independent, so each is built exactly
        # once no matter how many policies consume it.
        assert stats["mapping"]["stores"] == len(TECHNIQUES) - 1, stats
        assert stats["mapping"]["stores"] == stats["mapping"]["misses"], (
            "a mapping was recomputed across the policy axis"
        )
        assert_built_once(
            cold, TRACER.snapshot(), [APP], [args.dataset], TECHNIQUES
        )

        # Every (technique, policy) cell must live at its own address.
        addresses = {}
        for policy in POLICIES:
            view = cold.policy_view(policy)
            for technique in TECHNIQUES:
                key = view.cell_store_key(APP, args.dataset, technique)
                addresses[(technique, policy)] = view.store.path_for(
                    "cell", key
                ).name
        assert len(set(addresses.values())) == num_cells, (
            f"cell addresses alias across the frontier: {addresses}"
        )

        warm = CellPipeline(config, store=ArtifactStore(store_dir))
        warm_results = run_grid(
            warm, *grid, workers=args.workers, policies=POLICIES
        )
        assert warm_results == cold_results, "warm replay diverged from cold"
        wstats = warm.store.stats.as_dict()
        assert wstats["cell"]["hits"] == num_cells, wstats
        for kind, counters in wstats.items():
            assert counters["misses"] == 0, f"warm pass missed on {kind}: {counters}"
            assert counters["stores"] == 0, f"warm pass recomputed {kind}: {counters}"

        parity_cells = assert_engine_parity(warm, args.dataset)

    # Results come back policy-outermost, techniques innermost.
    matrix = {}
    it = iter(cold_results)
    for policy in POLICIES:
        matrix[policy] = {}
        for technique in TECHNIQUES:
            cell = next(it)
            assert cell.technique == technique, (cell.technique, technique)
            matrix[policy][technique] = {
                level: round(value, 4) for level, value in cell.mpki.items()
            }

    BENCH_PATH.write_text(
        json.dumps(
            {
                "grid": {
                    "app": APP,
                    "dataset": args.dataset,
                    "techniques": TECHNIQUES,
                    "policies": POLICIES,
                    "cells": num_cells,
                    "workers": args.workers,
                },
                "mpki": matrix,
                "cell_addresses": {
                    f"{t}/{p}": name for (t, p), name in sorted(addresses.items())
                },
                "parity_cells_checked": parity_cells,
                "cold_store": stats,
                "warm_store": wstats,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"mpki matrix ({APP} on {args.dataset}):")
    for policy, row in matrix.items():
        cells = "  ".join(
            f"{t}={row[t]['l2']:.2f}" for t in TECHNIQUES
        )
        print(f"  {policy:<6} L2 MPKI: {cells}")
    print(
        f"ok: {num_cells} frontier cells, distinct addresses, warm zero-recompute, "
        f"{parity_cells} parity checks"
    )
    print(f"wrote {BENCH_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
