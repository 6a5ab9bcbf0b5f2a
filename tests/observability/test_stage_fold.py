"""The one stage fold and the one stage table.

:func:`fold_stage_event` turns the tracer's stage spans and cache-hit
events into per-stage totals for the manifest, :func:`stage_totals`,
``repro-experiments --profile`` and the ``grid_stages`` benchmarks;
:func:`format_stage_table` prints them for ``repro-status`` and
``--profile``.
"""

from __future__ import annotations

import pytest

from repro import observability
from repro.observability import (
    fold_stage_event,
    fold_stage_events,
    format_stage_table,
)
from repro.observability.tracing import Tracer
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid


@pytest.fixture
def tracer():
    return Tracer()


def _span(name, wall_s=0.0, cpu_s=0.0, kind="stage"):
    return {
        "type": "span",
        "name": name,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "tags": {"kind": kind},
    }


class TestFold:
    def test_stage_spans_accumulate(self, tracer):
        with tracer.span("trace", kind="stage"):
            pass
        with tracer.span("trace", kind="stage"):
            pass
        entry = fold_stage_events(tracer.snapshot())["trace"]
        assert entry["calls"] == 2
        assert entry["seconds"] >= 0.0

    def test_error_span_still_counts_as_call(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("mapping", kind="stage"):
                raise RuntimeError("boom")
        (event,) = tracer.snapshot()
        assert event["tags"]["error"] == "RuntimeError"
        assert fold_stage_events([event])["mapping"]["calls"] == 1

    def test_cache_hits_add_no_time(self, tracer):
        totals: dict = {}
        fold_stage_event(totals, _span("simulate", wall_s=1.5, cpu_s=1.25))
        tracer.event("simulate", kind="cache_hit")
        (hit,) = tracer.snapshot()
        fold_stage_event(totals, hit)
        assert totals["simulate"] == {
            "calls": 1,
            "seconds": pytest.approx(1.5),
            "cpu_seconds": pytest.approx(1.25),
            "cache_hits": 1,
        }

    def test_non_stage_events_are_ignored(self, tracer):
        with tracer.span("grid", kind="grid"):
            with tracer.span("cell", kind="cell"):
                pass
        tracer.event("failure", kind="failure")
        assert fold_stage_events(tracer.snapshot()) == {}

    def test_batches_fold_additively(self):
        """Worker batches folded into the same totals just add up."""
        totals: dict = {}
        for event in [_span("trace", 1.0), _span("trace", 3.0), _span("model", 0.5)]:
            fold_stage_event(totals, event)
        assert totals["trace"]["calls"] == 2
        assert totals["trace"]["seconds"] == pytest.approx(4.0)
        assert totals["model"]["calls"] == 1


class TestFormat:
    def test_format_orders_known_stages_first(self):
        stages = fold_stage_events(
            [_span("model", 1.0), _span("custom", 0.5), _span("generate", 2.0)]
        )
        text = format_stage_table(stages)
        lines = text.splitlines()
        assert [line.split(":")[0].strip() for line in lines] == [
            "generate",
            "model",
            "custom",
        ]
        assert "57.1%" in lines[0]  # 2.0 of 3.5 staged seconds
        assert "(1 calls)" in lines[0]

    def test_format_reports_cache_hits(self):
        stages = {"trace": {"calls": 0, "seconds": 0.0, "cache_hits": 3}}
        assert "(0 calls, 3 cached)" in format_stage_table(stages)

    def test_format_empty(self):
        assert format_stage_table({}) == "  (no stage spans recorded)"


class TestRecomputeSpans:
    @pytest.mark.parametrize("fused_bytes", ["0", "1"])
    def test_every_stage_call_is_a_recompute(self, tmp_path, monkeypatch, fused_bytes):
        """Cold, each stage span is recomputed work; on both the two-stage
        and the fused path, ``plan`` and ``trace+simulate`` included."""
        monkeypatch.setenv("REPRO_FUSED_TRACE_BYTES", fused_bytes)
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.05, num_roots=1),
            store=ArtifactStore(tmp_path / "store"),
        )
        with observability.start_run(tmp_path / "runs", run_id="cold") as run:
            run_grid(pipeline, ["PR"], ["uni"], ["Original", "DBG"])
        stages = observability.load_manifest(run.run_dir)["timings"]["stages"]
        calls = sum(entry["calls"] for entry in stages.values())
        assert "plan" in stages
        assert ("trace+simulate" in stages) == (fused_bytes == "1")
        assert observability.recompute_spans(stages) == calls > 0
        assert observability.manifest_recompute_spans(run.run_dir) == calls
