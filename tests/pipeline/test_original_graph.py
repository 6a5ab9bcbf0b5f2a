"""``Original`` cells run on the generated graph itself, with no relabel.

The identity relabel reproduces every CSR array byte for byte, so the
pipeline hands ``Original`` cells the generate-stage graph.  Their
results must equal those of a pipeline that still relabels by the
identity, and no ``relabel`` span may be emitted for them.
"""

from __future__ import annotations

import numpy as np

from repro.observability import TRACER
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.grid import run_grid
from repro.pipeline.store import ArtifactStore
from repro.reorder.base import identity_mapping

APPS = ["PR", "SSSP"]  # SSSP traces the weighted graph
DATASETS = ["uni", "kr"]
TECHNIQUES = ["Original", "DBG"]


class IdentityRelabelPipeline(CellPipeline):
    """Relabels ``Original`` cells by the identity permutation."""

    def reordered_graph(self, dataset, technique_name, degree_kind, weighted):
        if technique_name != "Original":
            return super().reordered_graph(
                dataset, technique_name, degree_kind, weighted
            )
        graph = self.graph(dataset, weighted)
        return graph.relabel(identity_mapping(graph.num_vertices))


def _grid(pipeline_cls, store_dir):
    pipeline = pipeline_cls(
        ExperimentConfig(scale=0.05, num_roots=1), store=ArtifactStore(store_dir)
    )
    TRACER.reset()
    cells = run_grid(pipeline, APPS, DATASETS, TECHNIQUES, workers=1)
    relabels = [e for e in TRACER.snapshot() if e["name"] == "relabel"]
    return pipeline, cells, relabels


def test_original_cells_unchanged_without_relabel(tmp_path):
    pipeline, cells, relabels = _grid(CellPipeline, tmp_path / "shared")
    _, expected, _ = _grid(IdentityRelabelPipeline, tmp_path / "relabelled")
    assert cells == expected
    assert {span["tags"]["technique"] for span in relabels} == {"DBG"}
    for dataset in DATASETS:
        for weighted in (False, True):
            graph = pipeline.graph(dataset, weighted)
            shared = pipeline.reordered_graph(dataset, "Original", "out", weighted)
            assert shared is graph


def test_identity_relabel_reproduces_the_csr():
    pipeline = CellPipeline(ExperimentConfig(scale=0.05))
    for weighted in (False, True):
        graph = pipeline.graph("kr", weighted)
        same = graph.relabel(identity_mapping(graph.num_vertices))
        for name in ("out_offsets", "out_targets", "in_offsets", "in_sources"):
            assert np.asarray(getattr(same, name)).tobytes() == np.asarray(
                getattr(graph, name)
            ).tobytes(), name
        if weighted:
            assert same.out_weights.tobytes() == graph.out_weights.tobytes()
            assert same.in_weights.tobytes() == graph.in_weights.tobytes()
