"""The one grid execution path: per-(app, dataset) group jobs.

Serial and parallel grids run the same :meth:`CellPipeline.group`: each
plan and each trace is built exactly once (counted from the folded
stage spans), every policy's cell comes from the one trace, results
equal cells computed one at a time, and no trace ever reaches the store.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.observability import TRACER
from repro.pipeline import ArtifactStore, run_grid
from repro.pipeline.cells import CellPipeline, ExperimentConfig

APPS = ["PR", "SSSP"]
DATASETS = ["lj"]
TECHNIQUES = ["Original", "DBG"]
POLICIES = ["lru", "grasp"]
CONFIG = ExperimentConfig(scale=0.2, num_roots=1)


def _built(events, stage: str, fields: tuple[str, ...]) -> Counter:
    return Counter(
        tuple(event["tags"][field] for field in fields)
        for event in events
        if event.get("type") == "span"
        and event["name"] == stage
        and event["tags"].get("kind") == "stage"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_cold_grid_builds_each_trace_once_and_stores_none(tmp_path, workers):
    pipeline = CellPipeline(CONFIG, store=ArtifactStore(tmp_path / "grid"))
    TRACER.reset()
    results = run_grid(
        pipeline, APPS, DATASETS, TECHNIQUES, workers=workers, policies=POLICIES
    )
    events = TRACER.snapshot()
    assert not [info for info in pipeline.store.ls() if info.kind == "trace"]
    assert "trace" not in pipeline.store.stats.as_dict()

    roots = {app: pipeline.roots("lj") if app == "SSSP" else [None] for app in APPS}
    plans = {(app, "lj", root) for app in APPS for root in roots[app]}
    traces = {
        (app, "lj", technique, root)
        for app in APPS
        for technique in TECHNIQUES
        for root in roots[app]
    }
    assert _built(events, "plan", ("app", "dataset", "root")) == Counter(plans)
    assert _built(events, "trace", ("app", "dataset", "technique", "root")) == (
        Counter(traces)
    )
    # Every trace is simulated under both policies.
    assert _built(events, "simulate", ())[()] == len(traces) * len(POLICIES)

    reference = CellPipeline(CONFIG, store=ArtifactStore(tmp_path / "cells"))
    expected = [
        reference.policy_view(policy).cell(app, dataset, technique)
        for policy in POLICIES
        for app in APPS
        for dataset in DATASETS
        for technique in TECHNIQUES
    ]
    assert results == expected


def test_group_returns_stored_cells_as_hits(tmp_path):
    pipeline = CellPipeline(CONFIG, store=ArtifactStore(tmp_path / "store"))
    (dbg,) = pipeline.group("PR", "lj", ["DBG"], ["grasp"])
    TRACER.reset()
    cells = pipeline.group("PR", "lj", ["Original", "DBG"], ["grasp"])
    assert cells[1] == dbg
    # Only the missing Original cell is traced; DBG is a cell hit.
    events = TRACER.snapshot()
    assert _built(events, "trace", ("technique",)) == Counter({("Original",): 1})
    hits = [e for e in events if e["tags"].get("kind") == "cache_hit"]
    assert [(e["name"], e["tags"]["technique"]) for e in hits] == [("cell", "DBG")]
