"""CI gate: a warm grid must replay entirely from the artifact store.

Runs a small experiment grid twice against one store directory, each
pass as an *observed run* (``runs/<run_id>/`` with the merged span
event log and the provenance manifest — :mod:`repro.observability`):

* **cold** — nothing persisted; asserts the store counters show each
  unique mapping stored exactly once and one stored result per cell,
  and the run's stage spans show each unique trace and plan built
  exactly once (the grid scheduler's contract; traces are never
  stored);
* **warm** — a fresh pipeline on the same store; asserts *zero* stage
  recomputations: every cell is a store hit, no kind records a miss or a
  store, and the manifest's timings block confirms no expensive stage ran.

Both passes run with ``workers=2`` so the exactly-once guarantee is
exercised across real processes, and the results of the two passes are
compared cell-for-cell.  The per-stage timings come from the run
manifest (folded live from the span stream), which must equal the same
fold re-read from the run's ``events.jsonl`` exactly.  Emits
``BENCH_grid_cache.json`` with the per-pass counts that repeat exactly
from run to run (store counters and stage calls; see
:func:`recorded_counts`); the run directories themselves (events,
manifests and the stage timings) are archived by CI.

Usage::

    PYTHONPATH=src python benchmarks/grid_cache_check.py [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro import observability
from repro.pipeline import (
    ROOT_APPS,
    ArtifactStore,
    CellPipeline,
    ExperimentConfig,
    plan_stage_jobs,
    run_grid,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_grid_cache.json"

GRID = (["PR", "SSSP"], ["lj", "wl"], ["Original", "DBG", "Sort"])

#: Stages the warm pass must not execute (cache hits are fine).
EXPENSIVE_STAGES = ("mapping", "trace", "simulate")


def grid_stages(stages: dict) -> dict:
    """The ``grid_stages`` payload: folded per-stage totals, share annotated.

    ``stages`` is the output of the stage fold — a manifest's
    ``timings.stages`` here, a folded tracer buffer in
    ``test_engine_microbench.py`` — so both payloads share one shape.
    """
    total = sum(entry["seconds"] for entry in stages.values())
    return {
        "staged_seconds": total,
        "stages": {
            stage: {**entry, "share": entry["seconds"] / total if total else 0.0}
            for stage, entry in sorted(stages.items())
        },
    }


def assert_built_once(pipeline, events, apps, datasets, techniques) -> None:
    """Gate: the grid built each unique trace and each plan exactly once.

    Folds the ``trace`` and ``plan`` stage spans of ``events`` (a cold
    run's event stream, workers included) by identity — traces by
    ``(app, dataset, technique, root)``, plans by ``(app, dataset,
    root)`` — and requires one span per unique identity of the grid.
    """
    roots = {
        (app, dataset): pipeline.roots(dataset) if app in ROOT_APPS else [None]
        for app in apps
        for dataset in datasets
    }
    want = {
        "trace": Counter(
            (app, dataset, technique, root)
            for (app, dataset), rs in roots.items()
            for technique in techniques
            for root in rs
        ),
        "plan": Counter(
            (app, dataset, root) for (app, dataset), rs in roots.items() for root in rs
        ),
    }
    fields = {
        "trace": ("app", "dataset", "technique", "root"),
        "plan": ("app", "dataset", "root"),
    }
    built = {stage: Counter() for stage in fields}
    for event in events:
        tags = event.get("tags") or {}
        if event.get("type") == "span" and tags.get("kind") == "stage":
            if event["name"] in fields:
                built[event["name"]][tuple(tags[f] for f in fields[event["name"]])] += 1
    for stage in fields:
        assert built[stage] == want[stage], (
            f"{stage} not built exactly once per unique identity: "
            f"built {dict(built[stage])}, expected {dict(want[stage])}"
        )


def recorded_counts(payload: dict) -> dict:
    """The counts of one pass that repeat exactly from run to run.

    Timings never repeat, so they stay in the run directory.  Nor do the
    mapping reads of a parallel pass: a worker reuses a mapping it
    computed itself but reads one from the store when another worker
    computed it, so the mapping ``hits`` and ``bytes_read`` and the
    mapping stage's ``cache_hits`` depend on which worker ran which job.
    The gate's assertions still see every counter.
    """
    store = {kind: dict(counters) for kind, counters in payload["store"].items()}
    stages = {
        stage: {"calls": entry["calls"], "cache_hits": entry["cache_hits"]}
        for stage, entry in payload["grid_stages"]["stages"].items()
    }
    if "mapping" in store:
        del store["mapping"]["hits"], store["mapping"]["bytes_read"]
    if "mapping" in stages:
        del stages["mapping"]["cache_hits"]
    return {"store": store, "stages": stages, "run_id": payload["run_id"]}


def run_pass(
    label: str,
    config: ExperimentConfig,
    store_dir: Path,
    runs_dir: Path,
    workers: int,
):
    pipeline = CellPipeline(config, store=ArtifactStore(store_dir))
    with observability.start_run(runs_dir, run_id=f"grid-cache-{label}") as run:
        results = run_grid(pipeline, *GRID, workers=workers)
    manifest = observability.load_manifest(run.run_dir)
    assert manifest is not None, f"{label} pass wrote no manifest"
    assert manifest["status"] == "ok", manifest["failures"]
    assert (run.run_dir / "events.jsonl").exists(), "no event log written"
    assert manifest["timings"]["stages"] == observability.stage_totals(run.run_dir), (
        f"{label}: manifest timings differ from the fold of events.jsonl"
    )
    payload = {
        "store": pipeline.store.stats.as_dict(),
        "grid_stages": grid_stages(manifest["timings"]["stages"]),
        "run_id": manifest["run_id"],
    }
    print(f"[{label}] store counters:")
    for kind, counters in payload["store"].items():
        print(f"  {kind:<8} {counters}")
    return pipeline, results, payload, run.run_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--runs-dir",
        type=Path,
        default=Path("runs"),
        help="where the cold/warm run directories (events + manifests) land",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig(scale=args.scale, num_roots=1)
    cells = [(a, d, t) for a in GRID[0] for d in GRID[1] for t in GRID[2]]

    with tempfile.TemporaryDirectory(prefix="grid-cache-check-") as tmp:
        store_dir = Path(tmp)

        cold_pipeline, cold_results, cold, cold_dir = run_pass(
            "cold", config, store_dir, args.runs_dir, args.workers
        )
        missing, mapping_jobs = plan_stage_jobs(
            CellPipeline(config, store=ArtifactStore(store_dir)), cells
        )
        assert not missing and not mapping_jobs, "cold pass left gaps in the store"
        stats = cold["store"]
        assert stats["cell"]["stores"] == len(cells), stats
        assert stats["mapping"]["stores"] == stats["mapping"]["misses"], (
            "a mapping was recomputed after another worker stored it"
        )
        assert set(stats) == {"mapping", "cell"}, f"unexpected artifact kinds: {stats}"
        assert_built_once(
            cold_pipeline, observability.iter_events(cold_dir), *GRID
        )

        _, warm_results, warm, _ = run_pass(
            "warm", config, store_dir, args.runs_dir, args.workers
        )
        assert warm_results == cold_results, "warm replay diverged from cold results"
        wstats = warm["store"]
        assert wstats["cell"]["hits"] == len(cells), wstats
        for kind, counters in wstats.items():
            assert counters["misses"] == 0, f"warm pass missed on {kind}: {counters}"
            assert counters["stores"] == 0, f"warm pass recomputed {kind}: {counters}"
        warm_calls = {
            stage: entry["calls"]
            for stage, entry in warm["grid_stages"]["stages"].items()
            if stage in EXPENSIVE_STAGES
        }
        assert not any(warm_calls.values()), (
            f"warm pass executed expensive stages: {warm_calls}"
        )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "grid": {"cells": len(cells), "workers": args.workers},
                "cold": recorded_counts(cold),
                "warm": recorded_counts(warm),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"ok: warm grid replayed {len(cells)} cells with zero stage recomputes")
    print(f"wrote {BENCH_PATH.name}; run dirs under {args.runs_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
