"""Tests for the declarative stage graph and its key builders."""

import pytest

from repro.pipeline import stages
from repro.pipeline.stages import PIPELINE, StageGraph, StageSpec


class TestPipelineShape:
    def test_stage_order(self):
        assert PIPELINE.names == (
            "generate", "mapping", "relabel", "trace", "simulate",
            "trace+simulate", "model",
        )

    def test_persisted_stages_and_kinds(self):
        kinds = {name: PIPELINE.spec(name).artifact_kind for name in PIPELINE.names}
        assert {name: kind for name, kind in kinds.items() if kind} == {
            "mapping": "mapping", "model": "cell"
        }
        # Traces live inside the group that simulates them.
        assert kinds["trace"] is None

    def test_deps_reference_earlier_stages_only(self):
        seen = set()
        for spec in PIPELINE:
            assert set(spec.deps) <= seen
            seen.add(spec.name)

    def test_spec_lookup(self):
        assert PIPELINE.spec("mapping").artifact_kind == "mapping"
        with pytest.raises(KeyError, match="unknown pipeline stage"):
            PIPELINE.spec("teleport")

    def test_required_engine_domains(self):
        assert set(PIPELINE.required_engine_domains()) == {"graph", "trace", "sim"}

    def test_validate_engines_resolves_each_domain(self, monkeypatch):
        for var in ("REPRO_SIM_ENGINE", "REPRO_TRACE_ENGINE", "REPRO_GRAPH_ENGINE"):
            monkeypatch.delenv(var, raising=False)
        resolved = PIPELINE.validate_engines()
        assert set(resolved) == {"graph", "trace", "sim"}

    def test_validate_engines_propagates_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ENGINE", "sloppy")
        with pytest.raises(ValueError, match="REPRO_TRACE_ENGINE"):
            PIPELINE.validate_engines()


class TestFusedRouting:
    def test_fused_stage_is_memory_resident(self):
        spec = PIPELINE.spec("trace+simulate")
        assert spec.artifact_kind is None
        assert set(spec.engine_domains) == {"trace", "sim"}
        assert set(spec.deps) == {"generate", "mapping", "relabel"}

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


class TestGraphValidation:
    def test_duplicate_names_rejected(self):
        spec = StageSpec("a", (), None, ())
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph((spec, spec))

    def test_forward_dependency_rejected(self):
        with pytest.raises(ValueError, match="topological"):
            StageGraph((
                StageSpec("a", ("b",), None, ()),
                StageSpec("b", (), None, ()),
            ))

    def test_unknown_engine_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown engine domains"):
            StageGraph((StageSpec("a", (), None, ("quantum",)),))


class TestKeyBuilders:
    def test_mapping_key_excludes_config_knobs(self):
        assert stages.mapping_key(1.0, "lj", ("DBG", "out")) == (
            1.0, "lj", ("DBG", "out")
        )

    def test_cell_key_carries_config(self):
        a = stages.cell_key(("cfg-a",), "PR", "lj", "DBG")
        b = stages.cell_key(("cfg-b",), "PR", "lj", "DBG")
        assert a != b
