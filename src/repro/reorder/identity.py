"""The baseline: keep the original ordering."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique, identity_mapping

__all__ = ["Original"]


class Original(ReorderingTechnique):
    """No reordering — the paper's baseline in every comparison."""

    name = "Original"
    reads_degree_kind = False

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        return identity_mapping(graph.num_vertices)
