"""Hub Sorting (Zhang et al., "frequency-based clustering").

HubSort classifies vertices as hot (degree >= average) or cold, fully sorts
the hot vertices by descending degree, and preserves the original relative
order of the cold vertices.  It reduces the hot-vertex footprint as well as
Sort does but still destroys structure *among* hot vertices — which matter
most, since they are attached to 80–94% of all edges (paper Section III-C).

Two implementations are provided, mirroring the paper's Figure 5 / Table XI
comparison:

* :class:`HubSort` — the paper's own DBG-framework implementation
  (Table V): stable group layout, sequential order preserved.
* :class:`HubSortOriginal` — a faithful stand-in for the original authors'
  parallel implementation ("HubSort-O").  The original partitions the vertex
  range into per-thread chunks and builds each chunk's hot list
  independently before merging, so hot vertices are sorted only *within*
  chunks and the merge interleaves chunks; it also materializes and sorts
  (degree, id) pairs for the whole vertex set, which is why Table XI shows
  its reordering time slightly *above* Sort's.  We reproduce both the
  chunked ordering semantics and the extra full-sort work.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique, group_order_mapping

__all__ = ["HubSort", "HubSortOriginal"]


class HubSort(ReorderingTechnique):
    """DBG-framework HubSort: sort hot vertices, keep cold order (Table V)."""

    name = "HubSort"

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        degrees = self._degrees(graph)
        avg = graph.average_degree()
        hot = degrees >= avg
        # Group IDs: hot vertices get one group per unique degree (hotter
        # first, ties in original order via stable sort); cold vertices share
        # one trailing group that preserves their original order.
        group_ids = np.where(hot, -degrees.astype(np.int64), 1)
        return group_order_mapping(group_ids)


class HubSortOriginal(ReorderingTechnique):
    """The "-O" variant: per-thread chunked hub sorting (see module docs)."""

    name = "HubSort-O"

    def __init__(self, degree_kind: str = "out", num_chunks: int = 40) -> None:
        super().__init__(degree_kind)
        if num_chunks < 1:
            raise ValueError("num_chunks must be positive")
        self.num_chunks = num_chunks

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        degrees = self._degrees(graph)
        n = graph.num_vertices
        avg = graph.average_degree()
        hot = degrees >= avg

        neg_degrees = -degrees.astype(np.int64)
        ids = np.arange(n, dtype=np.int64)

        # Extra work the original implementation pays: a full (degree, id)
        # pair sort over all vertices (its result is only used for the hot
        # prefix, but the cost is paid in full).  Plain integer keys, so
        # the cost is the sort's, not numpy's structured-array compare.
        np.lexsort((ids, neg_degrees))

        # Chunked semantics: each chunk sorts its own hot vertices and the
        # chunks are concatenated, so the global hot region is only sorted
        # piecewise.  Round-robin assignment models the original's
        # dynamically scheduled threads completing out of order.
        chunk_of = ids % self.num_chunks
        # Layout: all hot vertices first (chunk-major, degree-sorted inside a
        # chunk), then all cold vertices in original order: a stable sort
        # on (cold?, chunk, -degree), primary key last.
        order = np.lexsort(
            (np.where(hot, neg_degrees, 0), np.where(hot, chunk_of, 0), ~hot)
        )
        mapping = np.empty(n, dtype=np.int64)
        mapping[order] = ids
        return mapping
