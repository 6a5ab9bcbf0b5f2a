"""Radii estimation via simultaneous multi-BFS, after Ligra's Radii example.

Runs BFS from a sample of up to 64 source vertices at once, carrying one
bit per source in a 64-bit visited mask per vertex (Magnien et al.'s
technique, cited by the paper's Table VII).  A vertex's estimated radius is
the last round in which its mask grew — i.e. the distance to the farthest
sampled source that reaches it.  Each round's pull is
:func:`repro.graph.fastgraph.pull_or`, a per-vertex OR over the in-CSR
(C kernel or its numpy ``bitwise_or.at`` reference, per
``REPRO_GRAPH_ENGINE``).
"""

from __future__ import annotations

import numpy as np

from repro.graph import fastgraph
from repro.graph.csr import Graph
from repro.apps.base import GraphApp, SuperStep, TracePlan

__all__ = ["Radii"]


class Radii(GraphApp):
    """Parallel multi-BFS radius estimation with 64-bit visit masks."""

    name = "Radii"
    computation = "pull-push"
    irregular_property_bytes = 8
    total_property_bytes = 20
    reorder_degree_kind = "out"

    def __init__(self, num_samples: int = 64, seed: int = 7) -> None:
        if not 1 <= num_samples <= 64:
            raise ValueError("num_samples must be in [1, 64]")
        self.num_samples = num_samples
        self.seed = seed

    def run(self, graph: Graph, **kwargs) -> dict:
        """Estimate radii; returns ``{"radii", "rounds", "plan"}``.

        ``radii[v]`` is the max distance from any sampled source to ``v``
        (−1 if no sampled source reaches ``v``).
        """
        n = graph.num_vertices
        rng = np.random.default_rng(self.seed)
        k = min(self.num_samples, n)
        samples = rng.choice(n, size=k, replace=False)

        visited = np.zeros(n, dtype=np.uint64)
        visited[samples] |= np.uint64(1) << np.arange(k, dtype=np.uint64)
        radii = np.full(n, -1, dtype=np.int64)
        radii[samples] = 0

        in_csr = fastgraph.CheckedCSR(graph.in_offsets, graph.in_sources)
        supersteps: list[SuperStep] = []
        total_edges = 0
        rounds = 0
        while True:
            # Dense pull: every vertex ORs in the masks of its in-neighbours.
            pulled = fastgraph.pull_or(in_csr, visited)
            new_visited = visited | pulled
            changed = new_visited != visited
            if not changed.any():
                break
            rounds += 1
            radii[changed] = rounds
            visited = new_visited
            supersteps.append(SuperStep("pull", None, graph.num_edges))
            total_edges += graph.num_edges

        if not supersteps:
            supersteps.append(SuperStep("pull", None, graph.num_edges))
            total_edges = graph.num_edges
        plan = TracePlan(
            app=self.name,
            supersteps=tuple(supersteps),
            representative=0,
            total_edges=max(total_edges, 1),
            detail={"rounds": rounds, "samples": samples},
        )
        return {"radii": radii, "rounds": rounds, "plan": plan}
