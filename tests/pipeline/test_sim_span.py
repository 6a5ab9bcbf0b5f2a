"""The ``simulate`` and fused ``trace+simulate`` spans say which simulator ran."""

from __future__ import annotations

import pytest

from repro.cachesim import KernelUnavailable, fast, fast_available
from repro.observability import TRACER
from repro.pipeline import stages
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.store import ArtifactStore


def _sim_engine(tmp_path, span_name: str) -> str:
    TRACER.reset()
    pipeline = CellPipeline(
        ExperimentConfig(scale=0.05, num_roots=1),
        store=ArtifactStore(tmp_path / "store"),
    )
    pipeline.cell("PR", "uni", "Original")
    (span,) = [e for e in TRACER.snapshot() if e["name"] == span_name]
    return span["tags"]["sim_engine"]


@pytest.fixture(params=["simulate", "trace+simulate"])
def span_name(request, monkeypatch):
    """Each span under test: the fused one with a 1-byte trace budget."""
    fused = request.param == "trace+simulate"
    monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "1" if fused else "0")
    return request.param


def test_reference_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    assert _sim_engine(tmp_path, span_name) == "reference"


@pytest.mark.skipif(not fast_available(), reason="no C compiler for the fast engine")
def test_compiled_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
    assert _sim_engine(tmp_path, span_name) == "fast"


def test_auto_without_compiler_tagged_reference(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
    monkeypatch.setattr(fast._KERNEL, "_state", KernelUnavailable("forced off"))
    assert _sim_engine(tmp_path, span_name) == "reference"
