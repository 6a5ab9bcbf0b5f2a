"""Random reordering at configurable granularity (paper Section III-B).

The paper uses random reordering to *quantify the value of the original
graph structure*: shuffling all vertices (RV) both destroys structure and
scatters hot vertices, while shuffling whole cache blocks (RCB-n) keeps the
hot-vertex footprint intact so any slowdown is attributable purely to
structure loss.  Coarser granularity (larger n) preserves more structure
and shrinks the slowdown — the observation DBG's coarse-grain groups build
on.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique

__all__ = ["RandomVertex", "RandomCacheBlock", "VERTICES_PER_BLOCK"]

#: 64-byte cache blocks over 8-byte properties: 8 vertices per block
#: (paper Section II-D).
VERTICES_PER_BLOCK = 8


class RandomVertex(ReorderingTechnique):
    """RV: shuffle every vertex independently."""

    name = "RandomVertex"
    reads_degree_kind = False

    def __init__(self, degree_kind: str = "out", seed: int = 0) -> None:
        super().__init__(degree_kind)
        self.seed = seed

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.permutation(graph.num_vertices).astype(np.int64)


class RandomCacheBlock(ReorderingTechnique):
    """RCB-n: shuffle groups of ``n`` cache blocks, keeping each group intact.

    Vertices are partitioned into runs of ``n * VERTICES_PER_BLOCK``
    consecutive IDs; runs are randomly permuted but the vertices inside a
    run move together, so the number of cache blocks occupied by hot
    vertices is unchanged.
    """

    name = "RandomCacheBlock"
    reads_degree_kind = False

    def __init__(
        self, num_blocks: int = 1, degree_kind: str = "out", seed: int = 0
    ) -> None:
        super().__init__(degree_kind)
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        self.num_blocks = num_blocks
        self.seed = seed
        self.name = f"RCB-{num_blocks}"

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        run = self.num_blocks * VERTICES_PER_BLOCK
        num_runs = (n + run - 1) // run
        rng = np.random.default_rng(self.seed)
        run_order = rng.permutation(num_runs)
        # new position of run r is run_position[r]
        run_position = np.empty(num_runs, dtype=np.int64)
        run_position[run_order] = np.arange(num_runs, dtype=np.int64)

        ids = np.arange(n, dtype=np.int64)
        run_of = ids // run
        offset_in_run = ids % run
        # Runs may have unequal length only at the tail; keep it simple by
        # computing destination starts from the permuted run sizes.
        run_sizes = np.full(num_runs, run, dtype=np.int64)
        run_sizes[-1] = n - (num_runs - 1) * run
        starts_in_new_order = np.zeros(num_runs, dtype=np.int64)
        sizes_in_new_order = run_sizes[run_order]
        np.cumsum(sizes_in_new_order[:-1], out=starts_in_new_order[1:])
        run_start = starts_in_new_order[run_position[run_of]]
        return run_start + offset_in_run
