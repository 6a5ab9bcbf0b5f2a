"""The ``trace`` and fused ``trace+simulate`` spans say which trace
generator ran, and the tag matches the generator that really ran."""

from __future__ import annotations

import pytest

from repro.apps.base import GraphApp
from repro.framework import fasttrace
from repro.framework.fasttrace import KernelUnavailable
from repro.observability import TRACER
from repro.pipeline import stages
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.store import ArtifactStore


def _trace_engine(tmp_path, monkeypatch, span_name: str) -> str:
    ran = []
    for method, engine in (("_kernel_windows", "fast"), ("_trace_reference", "reference")):
        real = getattr(GraphApp, method)

        def spy(self, *args, _real=real, _engine=engine, **kwargs):
            ran.append(_engine)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(GraphApp, method, spy)
    TRACER.reset()
    pipeline = CellPipeline(
        ExperimentConfig(scale=0.05, num_roots=1),
        store=ArtifactStore(tmp_path / "store"),
    )
    pipeline.cell("PR", "uni", "DBG")
    (span,) = [e for e in TRACER.snapshot() if e["name"] == span_name]
    assert ran == [span["tags"]["trace_engine"]]
    return span["tags"]["trace_engine"]


@pytest.fixture(params=["trace", "trace+simulate"])
def span_name(request, monkeypatch):
    """Each span under test: the fused one with a 1-byte trace budget."""
    fused = request.param == "trace+simulate"
    monkeypatch.setenv(stages.FUSED_TRACE_BYTES_ENV, "1" if fused else "0")
    return request.param


def test_reference_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
    assert _trace_engine(tmp_path, monkeypatch, span_name) == "reference"


@pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)
def test_compiled_engine_tagged(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_TRACE_ENGINE", "auto")
    assert _trace_engine(tmp_path, monkeypatch, span_name) == "fast"


def test_auto_without_compiler_tagged_reference(tmp_path, monkeypatch, span_name):
    monkeypatch.setenv("REPRO_TRACE_ENGINE", "auto")
    monkeypatch.setattr(fasttrace._KERNEL, "_state", KernelUnavailable("forced off"))
    assert _trace_engine(tmp_path, monkeypatch, span_name) == "reference"
