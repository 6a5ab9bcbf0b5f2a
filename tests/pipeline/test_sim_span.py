"""The ``simulate`` and fused ``trace+simulate`` spans say which simulator
ran, and the tag matches the simulator that really ran."""

from __future__ import annotations

import pytest

from repro.cachesim import KernelUnavailable, fast, fast_available, hierarchy
from repro.observability import TRACER
from repro.pipeline import stages
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.store import ArtifactStore


def sim_engine_tag(tmp_path, monkeypatch, span_name: str = "simulate") -> str:
    """The ``sim_engine`` tag of one cold cell's ``span_name`` span; the
    fused span is forced with a 1-byte trace budget."""
    fused = span_name == "trace+simulate"
    monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "1" if fused else "0")
    ran_reference = []
    real = hierarchy.simulate_trace_reference

    def spy(*args, **kwargs):
        ran_reference.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "simulate_trace_reference", spy)
    TRACER.reset()
    pipeline = CellPipeline(
        ExperimentConfig(scale=0.05, num_roots=1),
        store=ArtifactStore(tmp_path / "store"),
    )
    pipeline.cell("PR", "uni", "Original")
    (span,) = [e for e in TRACER.snapshot() if e["name"] == span_name]
    tag = span["tags"]["sim_engine"]
    assert (tag == "reference") == bool(ran_reference)
    return tag


@pytest.fixture(params=["simulate", "trace+simulate"])
def span_name(request):
    return request.param


def test_reference_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    assert sim_engine_tag(tmp_path, monkeypatch, span_name) == "reference"


@pytest.mark.skipif(not fast_available(), reason="no C compiler for the fast engine")
def test_compiled_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
    assert sim_engine_tag(tmp_path, monkeypatch, span_name) == "fast"


def test_auto_without_compiler_tagged_reference(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
    monkeypatch.setattr(fast._KERNEL, "_state", KernelUnavailable("forced off"))
    assert sim_engine_tag(tmp_path, monkeypatch, span_name) == "reference"
