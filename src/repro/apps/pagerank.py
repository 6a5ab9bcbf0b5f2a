"""PageRank (pull-based), as in Ligra's PageRank example.

Every iteration pulls the previous ranks of all in-neighbours of every
vertex — the canonical all-active, pull-only workload of the paper's cache
study (Fig. 8 uses PR as the representative application).  Each round's
pull is :func:`repro.graph.fastgraph.pull_sum`, a per-vertex loop over the
in-CSR (``REPRO_GRAPH_ENGINE`` picks the C kernel or its numpy
``bincount`` reference; both add in the same order, so the ranks are
bit-identical).
"""

from __future__ import annotations

import numpy as np

from repro.graph import fastgraph
from repro.graph.csr import Graph
from repro.apps.base import GraphApp, SuperStep, TracePlan

__all__ = ["PageRank"]


class PageRank(GraphApp):
    """Iterative PageRank with a damping factor, until L1 convergence."""

    name = "PR"
    computation = "pull"
    # Per in-edge, PR reads the source's rank contribution and its
    # out-degree: 12 bytes of irregularly-accessed state (paper Table VIII).
    irregular_property_bytes = 12
    total_property_bytes = 20
    reorder_degree_kind = "out"

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_iterations: int = 100,
    ) -> None:
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations

    def run(self, graph: Graph, **kwargs) -> dict:
        """Compute ranks; returns ``{"ranks", "iterations", "plan"}``."""
        n = graph.num_vertices
        if n == 0:
            plan = TracePlan(self.name, (SuperStep("pull", None, 0),), 0, 0)
            return {"ranks": np.empty(0), "iterations": 0, "plan": plan}
        out_deg = graph.out_degrees().astype(np.float64)
        safe_out = np.maximum(out_deg, 1.0)
        ranks = np.full(n, 1.0 / n)
        in_csr = fastgraph.CheckedCSR(graph.in_offsets, graph.in_sources)
        iterations = 0
        for _ in range(self.max_iterations):
            contrib = ranks / safe_out
            pulled = fastgraph.pull_sum(in_csr, contrib)
            # Dangling mass keeps the ranks a distribution.
            dangling = ranks[out_deg == 0].sum()
            new_ranks = (1.0 - self.damping) / n + self.damping * (
                pulled + dangling / n
            )
            iterations += 1
            delta = np.abs(new_ranks - ranks).sum()
            ranks = new_ranks
            if delta < self.tolerance:
                break
        step = SuperStep("pull", None, graph.num_edges)
        plan = TracePlan(
            app=self.name,
            supersteps=(step,),
            representative=0,
            total_edges=graph.num_edges * iterations,
            detail={"iterations": iterations},
        )
        return {"ranks": ranks, "iterations": iterations, "plan": plan}
