"""Gorder (Wei et al., SIGMOD'16) — structure-aware greedy reordering.

Gorder places vertices one at a time, always choosing the unplaced vertex
with the highest affinity to the ``window`` most recently placed vertices,
where affinity counts direct edges plus shared in-neighbours (the
"sibling" score).  It achieves the best cache locality of the techniques
the paper studies but its analysis cost is orders of magnitude above the
skew-aware techniques — the paper reports reordering times that dwarf
application runtime (Section VI-D), and this implementation reproduces
that story faithfully.

Implementation notes
--------------------
* A lazy max-heap keyed by affinity score.  When a vertex enters the
  placement window, the scores of every vertex it is adjacent to or shares
  an in-neighbour with are incremented (vectorised ragged gather over the
  CSR); when a vertex slides out of the window the contributions are
  subtracted.  A ``queued_key`` array suppresses redundant heap entries and
  stale entries are re-validated on pop — the standard approach for heaps
  without decrease-key.
* Sibling scores are not propagated through in-neighbours whose out-degree
  exceeds ``hub_cap_factor * average_degree``.  Production Gorder
  implementations apply the same kind of hub cut-off: a vertex with tens of
  thousands of out-neighbours makes *everything* a sibling of everything,
  which adds quadratic work while carrying almost no locality signal.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique

__all__ = ["Gorder"]


class Gorder(ReorderingTechnique):
    """Greedy window-based reordering maximizing neighbourhood overlap."""

    name = "Gorder"
    skew_aware = False
    reads_degree_kind = False

    def __init__(
        self,
        degree_kind: str = "out",
        window: int = 5,
        hub_cap_factor: float = 32.0,
    ) -> None:
        super().__init__(degree_kind)
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.hub_cap_factor = hub_cap_factor

    def _affinity_counts(
        self, graph: Graph, v: int, hub_cap: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vertices whose score changes when ``v`` joins the window.

        A vertex ``u`` gains ``(direct edges between u and v) + (number of
        common in-neighbour paths x->u with x->v)``, with hub in-neighbours
        excluded from the sibling term (see module docs).
        """
        in_nbrs = graph.in_neighbors(v)
        parts = [graph.out_neighbors(v), in_nbrs]
        if in_nbrs.size:
            starts = graph.out_offsets[in_nbrs]
            lengths = (graph.out_offsets[in_nbrs + 1] - starts).astype(np.int64)
            lengths = np.where(lengths > hub_cap, 0, lengths)
            total = int(lengths.sum())
            if total:
                seg_starts = np.cumsum(lengths) - lengths
                idx = np.repeat(starts - seg_starts, lengths) + np.arange(total)
                parts.append(graph.out_targets[idx].astype(np.int64))
        affected = np.concatenate([p.astype(np.int64) for p in parts])
        if affected.size == 0:
            return affected, affected
        return np.unique(affected, return_counts=True)

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        hub_cap = max(self.hub_cap_factor * graph.average_degree(), 16.0)

        # The compiled placement kernel produces an identical permutation
        # (verified by the equivalence suite); REPRO_TRACE_ENGINE=reference
        # forces the Python loop below.  An explicit fast engine without a
        # kernel raises KernelUnavailable from use_fast().
        from repro.framework import fasttrace

        if fasttrace.use_fast():
            start = int(np.argmax(graph.degrees("both")))
            order = fasttrace.gorder_place_fast(graph, self.window, hub_cap, start)
            mapping = np.empty(n, dtype=np.int64)
            mapping[order] = np.arange(n, dtype=np.int64)
            return mapping
        placed = np.zeros(n, dtype=bool)
        score = np.zeros(n, dtype=np.int64)
        queued_key = np.full(n, -1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        heap: list[tuple[int, int]] = []
        window: deque[tuple[np.ndarray, np.ndarray]] = deque()

        # Start from the max-degree vertex, as Wei et al. do.
        current = int(np.argmax(graph.degrees("both")))
        next_unplaced = 0  # cursor for refilling when the heap runs dry

        for position in range(n):
            placed[current] = True
            order[position] = current

            affected, counts = self._affinity_counts(graph, current, hub_cap)
            if affected.size:
                np.add.at(score, affected, counts)
                fresh_mask = ~placed[affected] & (score[affected] > queued_key[affected])
                fresh = affected[fresh_mask]
                fresh_scores = score[fresh]
                queued_key[fresh] = fresh_scores
                for u, s in zip(fresh.tolist(), fresh_scores.tolist()):
                    heapq.heappush(heap, (-s, u))
            window.append((affected, counts))
            if len(window) > self.window:
                old_affected, old_counts = window.popleft()
                if old_affected.size:
                    np.subtract.at(score, old_affected, old_counts)

            if position == n - 1:
                break

            current = -1
            while heap:
                neg_key, u = heapq.heappop(heap)
                if placed[u]:
                    continue
                if -neg_key != score[u]:
                    # Score decayed since queueing; requeue at today's value.
                    heapq.heappush(heap, (-int(score[u]), u))
                    queued_key[u] = score[u]
                    continue
                current = u
                break
            if current < 0:
                while placed[next_unplaced]:
                    next_unplaced += 1
                current = next_unplaced

        mapping = np.empty(n, dtype=np.int64)
        mapping[order] = np.arange(n, dtype=np.int64)
        return mapping
