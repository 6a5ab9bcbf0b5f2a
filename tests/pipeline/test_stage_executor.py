"""The incremental submit API of :class:`StageExecutor`.

The experiment grid drives the executor phase-by-phase; the serving
layer drives it one job at a time.  These tests pin the shared contract:
results come back on futures, worker deltas (store stats, engine
counters, trace events) merge into the parent, per-job submits against
a warm store are hits, not recomputes, and every future resolves even
when the deltas cannot be merged.
"""

from __future__ import annotations

import pytest

from repro.observability import TRACER, fold_stage_events
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline import grid
from repro.pipeline.grid import StageExecutor, _worker_group, _worker_mapping
from repro.pipeline.store import ArtifactStore
from repro.serve.jobs import run_job
from repro.serve.pipeline import ServePipeline

CONFIG = ExperimentConfig(scale=0.05, num_roots=1)


@pytest.fixture
def pipeline(tmp_path):
    TRACER.reset()
    return CellPipeline(CONFIG, store=ArtifactStore(tmp_path / "store"))


def test_incremental_mapping_then_cell_submits(pipeline):
    with StageExecutor(pipeline, workers=2) as executor:
        mapping_futures = [
            executor.submit_mapping("uni", "DBG", "out"),
            executor.submit_mapping("uni", "Sort", "out"),
        ]
        for future in mapping_futures:
            assert future.result(timeout=120) is None
        (cell,) = executor.submit_group("PR", "uni", ["DBG"]).result(timeout=120)
        assert cell.app == "PR"
        assert cell.technique == "DBG"

    # Deltas from worker processes merged into the parent accumulators.
    stats = pipeline.store.stats.as_dict()
    assert stats["mapping"]["stores"] == 2
    assert stats["cell"]["stores"] == 1
    # With no run observed, worker spans land in the parent's tracer.
    assert fold_stage_events(TRACER.snapshot())["mapping"]["calls"] == 2
    # And the artifacts are really on disk under the parent's store.
    assert pipeline.store.get(
        "mapping", pipeline.mapping_store_key("uni", "DBG", "out")
    ) is not None


def test_warm_submits_hit_the_store(pipeline):
    with StageExecutor(pipeline, workers=1) as executor:
        executor.submit_group("PR", "uni", ["DBG"]).result(timeout=120)
        before = pipeline.store.stats.as_dict()["cell"]["stores"]
        executor.submit_group("PR", "uni", ["DBG"]).result(timeout=120)
    after = pipeline.store.stats.as_dict()["cell"]
    assert after["stores"] == before
    assert after["hits"] >= 1


def test_generic_submit_runs_serve_jobs(pipeline):
    serve_pipeline = ServePipeline(CONFIG, store=pipeline.store)
    with StageExecutor(serve_pipeline, workers=1) as executor:
        payload = executor.submit(
            run_job,
            {"op": "mapping", "graph": "uni", "technique": "DBG",
             "degree_kind": "out", "app": None, "namespace": None,
             "config": None},
        ).result(timeout=120)
    assert payload["num_vertices"] > 0
    assert len(payload["mapping_sha256"]) == 64
    assert serve_pipeline.store.stats.as_dict()["mapping"]["stores"] == 1


def test_worker_errors_surface_on_the_future(pipeline):
    with StageExecutor(pipeline, workers=1) as executor:
        future = executor.submit_mapping("nosuch", "DBG", "out")
        with pytest.raises(KeyError, match="nosuch"):
            future.result(timeout=120)


def test_submit_functions_are_module_level():
    # The pool pickles submitted callables by reference; keep them
    # importable top-level functions.
    assert _worker_mapping.__module__ == "repro.pipeline.grid"
    assert _worker_group.__qualname__ == _worker_group.__name__


def test_merge_failure_resolves_the_future(pipeline, monkeypatch):
    # A delta merge that raises (say, an OSError writing the run's
    # event log) must fail the job's future, not leave it pending.
    def broken_merge(pipeline, deltas):
        raise OSError("event log unwritable")

    monkeypatch.setattr(grid, "_merge_deltas", broken_merge)
    with StageExecutor(pipeline, workers=1) as executor:
        future = executor.submit_mapping("uni", "DBG", "out")
        with pytest.raises(OSError, match="event log unwritable"):
            future.result(timeout=20)
