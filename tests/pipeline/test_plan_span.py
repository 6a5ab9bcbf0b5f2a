"""The ``plan`` stage span says which graph engine built the plan."""

from __future__ import annotations

import pytest

from repro.graph import fastgraph
from repro.graph.fastgraph import KernelUnavailable
from repro.observability import TRACER
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.store import ArtifactStore


def _plan_engine(tmp_path) -> str:
    TRACER.reset()
    pipeline = CellPipeline(
        ExperimentConfig(scale=0.05, num_roots=1),
        store=ArtifactStore(tmp_path / "store"),
    )
    pipeline.plan("PR", "uni")
    (span,) = [e for e in TRACER.snapshot() if e["name"] == "plan"]
    return span["tags"]["graph_engine"]


def test_reference_engine_tagged(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_ENGINE", "reference")
    assert _plan_engine(tmp_path) == "reference"


@pytest.mark.skipif(
    not fastgraph.fast_available(), reason="no C compiler for the graph kernels"
)
def test_compiled_engine_tagged(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_ENGINE", "auto")
    assert _plan_engine(tmp_path) == "fast"


def test_auto_without_compiler_tagged_reference(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_ENGINE", "auto")
    monkeypatch.setattr(fastgraph._KERNEL, "_state", KernelUnavailable("forced off"))
    assert _plan_engine(tmp_path) == "reference"
