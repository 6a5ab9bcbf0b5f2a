"""Community-clustering reordering (Rabbit Order's lightweight cousin).

The paper's related work cites Rabbit Order (Arai et al., IPDPS'16):
detect communities cheaply and lay each out contiguously, recovering
locality without Gorder's per-vertex greedy search.  This implementation
uses synchronous label propagation — a few vectorized rounds over the
edges — followed by a community-contiguous layout:

* communities are placed in descending size order (big communities first,
  like Rabbit Order's dendrogram flattening);
* within a community the original relative order is preserved.

Structure-aware but degree-blind: it restores community locality on
shuffled inputs yet never packs hot vertices, making it the natural
midpoint between the traversal orderings and the skew-aware family in the
extended comparison.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique, group_order_mapping

__all__ = ["CommunityOrder", "label_propagation_communities"]


def label_propagation_communities(
    graph: Graph, rounds: int = 8, seed: int = 0
) -> np.ndarray:
    """Community labels via synchronous min-label propagation with degree
    weighting.

    Each round, every vertex adopts the most *strongly connected* label
    among its (undirected) neighbourhood, ties broken toward the smaller
    label; a few rounds suffice for the coarse communities reordering
    needs.  Returns one label per vertex (not necessarily contiguous).
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    src, dst = graph.edge_array()
    # Undirected view of the connectivity, plus a self-vote per vertex —
    # without it, symmetric pairs swap labels forever (the classic
    # synchronous label-propagation oscillation).
    own = np.arange(n, dtype=np.int64)
    u = np.concatenate([src, dst, own])
    v = np.concatenate([dst, src, own])
    labels = own.copy()
    for _ in range(rounds):
        # Count (vertex, neighbour-label) strengths via a composite key.
        neighbour_labels = labels[v]
        keys = u * np.int64(n) + neighbour_labels
        unique_keys, counts = np.unique(keys, return_counts=True)
        vertices = unique_keys // n
        candidate = unique_keys % n
        # For each vertex pick the label with the max count; ties to the
        # smallest label.  Sort by (vertex, -count, label) and take firsts.
        order = np.lexsort((candidate, -counts, vertices))
        vertices_sorted = vertices[order]
        first = np.empty(vertices_sorted.size, dtype=bool)
        if first.size:
            first[0] = True
            first[1:] = vertices_sorted[1:] != vertices_sorted[:-1]
        best = labels.copy()
        best[vertices_sorted[first]] = candidate[order][first]
        # Monotone adoption: take the strongest label only when it is
        # smaller than the current one.  Labels never increase, so the
        # synchronous sweep cannot oscillate (mutual pairs would otherwise
        # swap labels forever) and convergence is guaranteed.
        new_labels = np.minimum(best, labels)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


class CommunityOrder(ReorderingTechnique):
    """Contiguous layout of label-propagation communities."""

    name = "Community"
    skew_aware = False
    reads_degree_kind = False

    def __init__(self, degree_kind: str = "out", rounds: int = 8) -> None:
        super().__init__(degree_kind)
        if rounds < 1:
            raise ValueError("rounds must be positive")
        self.rounds = rounds

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        labels = label_propagation_communities(graph, self.rounds)
        if labels.size == 0:
            return np.empty(0, dtype=np.int64)
        # Rank communities by descending size (stable), then lay vertices
        # out community-major, preserving original order inside each.
        unique, inverse, counts = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        size_rank = np.empty(unique.size, dtype=np.int64)
        size_rank[np.argsort(-counts, kind="stable")] = np.arange(unique.size)
        return group_order_mapping(size_rank[inverse])
