"""PageRank-Delta (push-only), after Ligra's PageRankDelta example.

Only vertices whose rank changed by more than a threshold stay active, and
active vertices *push* their rank delta to all out-neighbours.  The paper
singles PRD out as the workload where reordering helps least: every push
is an unconditional irregular write, so most of the off-chip misses that
reordering removes come back as on-chip coherence snoops (Section VI-C,
Fig. 9).  Each round's push is :func:`repro.graph.fastgraph.push_sum`,
which walks only the active sources' out-edges in ascending id order
(C kernel or its numpy masked-``bincount`` reference, per
``REPRO_GRAPH_ENGINE``; both add in the same order).
"""

from __future__ import annotations

import numpy as np

from repro.graph import fastgraph
from repro.graph.csr import Graph
from repro.framework.vertex_subset import VertexSubset
from repro.apps.base import GraphApp, SuperStep, TracePlan

__all__ = ["PageRankDelta"]


class PageRankDelta(GraphApp):
    """Delta-based PageRank: active set shrinks as ranks converge."""

    name = "PRD"
    computation = "push"
    irregular_property_bytes = 8
    total_property_bytes = 20
    reorder_degree_kind = "in"

    def __init__(
        self,
        damping: float = 0.85,
        epsilon: float = 1e-2,
        max_iterations: int = 50,
    ) -> None:
        self.damping = damping
        self.epsilon = epsilon
        self.max_iterations = max_iterations

    def run(self, graph: Graph, **kwargs) -> dict:
        """Compute ranks; returns ``{"ranks", "iterations", "plan"}``."""
        n = graph.num_vertices
        if n == 0:
            plan = TracePlan(self.name, (SuperStep("push", None, 0),), 0, 0)
            return {"ranks": np.empty(0), "iterations": 0, "plan": plan}
        out_deg = graph.out_degrees().astype(np.float64)
        safe_out = np.maximum(out_deg, 1.0)
        # Geometric-series PageRank: rank = sum_t d^t M^t base, pushed
        # incrementally.  delta_0 is the base rank everyone starts from.
        delta = np.full(n, (1.0 - self.damping) / n)
        ranks = delta.copy()
        frontier = VertexSubset.full(n)

        out_csr = fastgraph.CheckedCSR(graph.out_offsets, graph.out_targets)
        supersteps: list[SuperStep] = []
        total_edges = 0
        iterations = 0
        for iteration in range(self.max_iterations):
            active = frontier.ids()
            if active.size == 0:
                break
            edges = int(np.diff(graph.out_offsets)[active].sum())
            supersteps.append(SuperStep("push", active, edges))
            total_edges += edges
            iterations += 1

            pushed = fastgraph.push_sum(out_csr, delta / safe_out, active)
            new_delta = self.damping * pushed
            ranks = ranks + new_delta
            # A vertex stays active while its accumulated change is still a
            # meaningful fraction of its rank (Ligra's epsilon rule).
            threshold = self.epsilon * np.maximum(ranks, 1e-12)
            next_mask = np.abs(new_delta) > threshold
            delta = new_delta
            frontier = VertexSubset(n, mask=next_mask)

        if not supersteps:
            supersteps.append(SuperStep("push", np.arange(n), graph.num_edges))
        # Representative super-step: the first iteration where the active set
        # has started to shrink (steady-state behaviour), else the largest.
        sizes = [s.edges for s in supersteps]
        representative = 1 if len(supersteps) > 1 else 0
        if sizes[representative] == 0:
            representative = int(np.argmax(sizes))
        plan = TracePlan(
            app=self.name,
            supersteps=tuple(supersteps),
            representative=representative,
            total_edges=max(total_edges, 1),
            detail={"iterations": iterations},
        )
        return {"ranks": ranks, "iterations": iterations, "plan": plan}
