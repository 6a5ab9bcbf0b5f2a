"""Tests for the stage order, the fused-trace routing and the key builders."""

import pytest

from repro import engines
from repro.observability import STAGES, TRACER
from repro.pipeline import stages
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.grid import run_grid
from repro.pipeline.store import ArtifactStore


def _cold_cell(tmp_path):
    """Stage spans and stored kinds of one cold DBG cell at scale 0.05."""
    TRACER.reset()
    store = ArtifactStore(tmp_path / "store")
    CellPipeline(ExperimentConfig(scale=0.05, num_roots=1), store=store).cell(
        "PR", "uni", "DBG"
    )
    spans = [
        e for e in TRACER.snapshot()
        if e["type"] == "span" and e["tags"].get("kind") == "stage"
    ]
    return spans, {info.kind for info in store.ls()}


class TestPipelineShape:
    def test_stage_order(self):
        assert STAGES == (
            "generate", "mapping", "relabel", "plan", "trace", "simulate",
            "trace+simulate", "model",
        )

    def test_persisted_stages_and_kinds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "0")
        spans, kinds = _cold_cell(tmp_path)
        # Traces live inside the group that simulates them.
        assert kinds == {"mapping", "cell"}
        assert {s["name"] for s in spans} == set(STAGES) - {"trace+simulate"}

    def test_deps_reference_earlier_stages_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "0")
        spans, _ = _cold_cell(tmp_path)
        first = {}
        for span in sorted(spans, key=lambda s: s["ts"]):
            first.setdefault(span["name"], span["ts"])
        assert list(first) == [name for name in STAGES if name in first]

    def test_required_engine_domains(self, tmp_path, monkeypatch):
        """run_grid validates the variable of every engine domain."""
        assert set(engines.DOMAINS) == {"graph", "trace", "sim"}
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.05, num_roots=1),
            store=ArtifactStore(tmp_path / "store"),
        )
        for domain in engines.DOMAINS.values():
            with monkeypatch.context() as env:
                env.setenv(domain.env_var, "sloppy")
                with pytest.raises(ValueError, match=domain.env_var):
                    run_grid(pipeline, ["PR"], ["uni"], ["Original"])

    def test_validate_engines_resolves_each_domain(self, monkeypatch):
        for var in ("REPRO_SIM_ENGINE", "REPRO_TRACE_ENGINE", "REPRO_GRAPH_ENGINE"):
            monkeypatch.delenv(var, raising=False)
        resolved = engines.validate_env()
        assert set(resolved) == {"graph", "trace", "sim"}

    def test_validate_engines_propagates_bad_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ENGINE", "sloppy")
        TRACER.reset()
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.05, num_roots=1),
            store=ArtifactStore(tmp_path / "store"),
        )
        with pytest.raises(ValueError, match="REPRO_TRACE_ENGINE"):
            run_grid(pipeline, ["PR"], ["uni"], ["DBG"])
        assert not [e for e in TRACER.snapshot() if e["name"] == "generate"]


class TestFusedRouting:
    def test_fused_stage_is_memory_resident(self, tmp_path, monkeypatch):
        monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "1")
        spans, kinds = _cold_cell(tmp_path)
        assert kinds == {"mapping", "cell"}
        (fused,) = [s for s in spans if s["name"] == "trace+simulate"]
        assert {"trace_engine", "sim_engine"} <= set(fused["tags"])
        assert not {"trace", "simulate"} & {s["name"] for s in spans}

    def test_budget_default(self, monkeypatch):
        monkeypatch.delenv(stages.FUSED_TRACE_BYTES_ENV, raising=False)
        assert stages.fused_trace_budget() == stages.DEFAULT_FUSED_TRACE_BYTES

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "4096")
        assert stages.fused_trace_budget() == 4096

    def test_budget_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "huge")
        with pytest.raises(ValueError, match=stages.FUSED_TRACE_BYTES_ENV):
            stages.fused_trace_budget()

    def test_use_fused_trace_threshold(self):
        budget = stages.estimated_trace_bytes(1000)
        assert not stages.use_fused_trace(1000, budget)
        assert stages.use_fused_trace(1001, budget)

    def test_zero_budget_disables_fusing(self):
        assert not stages.use_fused_trace(10**12, 0)
        assert not stages.use_fused_trace(10**12, -5)


class TestKeyBuilders:
    def test_mapping_key_excludes_config_knobs(self):
        assert stages.mapping_key(1.0, "lj", ("DBG", "out")) == (
            1.0, "lj", ("DBG", "out")
        )

    def test_cell_key_carries_config(self):
        a = stages.cell_key(("cfg-a",), "PR", "lj", "DBG")
        b = stages.cell_key(("cfg-b",), "PR", "lj", "DBG")
        assert a != b
