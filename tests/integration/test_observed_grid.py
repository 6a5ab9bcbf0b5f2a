"""Acceptance: an observed parallel grid's span stream is trustworthy.

The headline guarantees of the observability layer, exercised end to end
on a real 3x3 grid with four worker processes:

* the manifest's timings block equals the stage fold of the merged
  ``events.jsonl`` exactly — stage spans are the only clock;
* every span of an engine-dispatching stage, workers' included, names
  the engine that ran;
* a warm replay of the same grid against the same store produces zero
  recompute-stage spans, and ``repro-status diff`` says so.
"""

from __future__ import annotations

import pytest

from repro import observability
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid
from repro.observability import recompute_spans
from repro.tools.status_tool import main as status_main

GRID = (["PR"], ["wl", "sd"], ["Original", "DBG", "Sort"])  # 6 cells
WORKERS = 4


@pytest.fixture(scope="module")
def observed_passes(tmp_path_factory):
    """Cold + warm observed grid passes sharing one artifact store."""
    base = tmp_path_factory.mktemp("observed-grid")
    store_dir, runs_dir = base / "store", base / "runs"
    passes = {}
    for label in ("cold", "warm"):
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.2, num_roots=1),
            store=ArtifactStore(store_dir),
        )
        with observability.start_run(runs_dir, run_id=label) as run:
            results = run_grid(pipeline, *GRID, workers=WORKERS)
        passes[label] = {
            "run_dir": run.run_dir,
            "results": results,
            "manifest": observability.load_manifest(run.run_dir),
        }
    return {"runs_dir": runs_dir, **passes}


class TestReconciliation:
    def test_manifest_written_and_ok(self, observed_passes):
        for label in ("cold", "warm"):
            manifest = observed_passes[label]["manifest"]
            assert manifest is not None
            assert manifest["status"] == "ok"
            assert manifest["grids"][0]["workers"] == WORKERS
            assert (observed_passes[label]["run_dir"] / "events.jsonl").exists()

    def test_manifest_timings_equal_raw_event_totals(self, observed_passes):
        for label in ("cold", "warm"):
            side = observed_passes[label]
            assert (
                observability.stage_totals(side["run_dir"])
                == side["manifest"]["timings"]["stages"]
            )

    def test_worker_events_carry_distinct_pids(self, observed_passes):
        """The merged log really contains the forked workers' spans."""
        pids = {
            event["pid"]
            for event in observability.iter_events(
                observed_passes["cold"]["run_dir"]
            )
            if event.get("tags", {}).get("kind") == "stage"
        }
        assert len(pids) > 1


class TestWarmReplay:
    def test_results_identical(self, observed_passes):
        assert observed_passes["cold"]["results"] == observed_passes["warm"]["results"]

    def test_zero_recompute_spans_when_warm(self, observed_passes):
        cold = observed_passes["cold"]["manifest"]["timings"]["stages"]
        warm = observed_passes["warm"]["manifest"]["timings"]["stages"]
        assert recompute_spans(cold) > 0
        assert recompute_spans(warm) == 0, f"warm pass recomputed stages: {warm}"
        # Every cell was a store hit instead.
        assert warm.get("cell", {}).get("cache_hits", 0) == 6

    def test_status_diff_reports_full_replay(self, observed_passes, capsys):
        assert status_main(
            ["--runs-dir", str(observed_passes["runs_dir"]), "diff", "cold", "warm"]
        ) == 0
        out = capsys.readouterr().out
        assert "recompute spans:" in out
        assert "-> 0" in out
        assert "replayed entirely from the store" in out


#: The tag naming the engine each engine-dispatching stage ran.
ENGINE_TAGS = {
    "plan": ("graph_engine",),
    "trace": ("trace_engine",),
    "simulate": ("sim_engine",),
    "trace+simulate": ("trace_engine", "sim_engine"),
}


class TestEngineTags:
    def test_every_engine_span_tagged(self, observed_passes):
        seen = set()
        for event in observability.iter_events(observed_passes["cold"]["run_dir"]):
            tags = event.get("tags", {})
            if tags.get("kind") != "stage" or event["name"] not in ENGINE_TAGS:
                continue
            seen.add(event["name"])
            for tag in ENGINE_TAGS[event["name"]]:
                assert tags[tag] in ("fast", "reference"), event
        assert seen == {"plan", "trace", "simulate"}
