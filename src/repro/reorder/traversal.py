"""Traversal-based reordering baselines (paper Section VII related work).

The paper's related-work section situates skew-aware reordering against
classic traversal/bandwidth orderings; these are the standard
representatives, included for the extended comparison benches:

* :class:`BFSOrder` / :class:`DFSOrder` — label vertices in traversal
  discovery order.  Cheap, and effective when the traversal follows
  community structure.
* :class:`ReverseCuthillMcKee` — the bandwidth-minimizing ordering of
  Cuthill & McKee (the paper's reference [23]), excellent for mesh-like
  graphs such as road networks, indifferent to degree skew.

All of them analyze structure rather than skew, so like Gorder they are
*structure-aware*; unlike Gorder their analysis is a single traversal.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import Graph
from repro.reorder.base import ReorderingTechnique

__all__ = ["BFSOrder", "DFSOrder", "ReverseCuthillMcKee"]


def _order_to_mapping(order: list[int], n: int) -> np.ndarray:
    mapping = np.empty(n, dtype=np.int64)
    mapping[np.array(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return mapping


def _undirected_neighbors(graph: Graph, v: int) -> np.ndarray:
    return np.concatenate([graph.out_neighbors(v), graph.in_neighbors(v)])


class BFSOrder(ReorderingTechnique):
    """Breadth-first discovery order from the max-degree vertex.

    Unvisited components are seeded from the smallest unvisited ID, so the
    result is always a complete permutation.
    """

    name = "BFS"
    skew_aware = False
    reads_degree_kind = False

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        order: list[int] = []
        seeds = iter(np.argsort(-graph.degrees("both"), kind="stable").tolist())
        queue: deque[int] = deque()
        while len(order) < n:
            if not queue:
                seed = next(s for s in seeds if not visited[s])
                visited[seed] = True
                queue.append(seed)
                order.append(seed)
            v = queue.popleft()
            for u in np.unique(_undirected_neighbors(graph, v)).tolist():
                if not visited[u]:
                    visited[u] = True
                    order.append(u)
                    queue.append(u)
        return _order_to_mapping(order, n)


class DFSOrder(ReorderingTechnique):
    """Depth-first discovery order (iterative, from the max-degree vertex)."""

    name = "DFS"
    skew_aware = False
    reads_degree_kind = False

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        order: list[int] = []
        seeds = iter(np.argsort(-graph.degrees("both"), kind="stable").tolist())
        stack: list[int] = []
        while len(order) < n:
            if not stack:
                seed = next(s for s in seeds if not visited[s])
                stack.append(seed)
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order.append(v)
            neighbors = np.unique(_undirected_neighbors(graph, v))
            # Reverse so the smallest-ID neighbour is explored first.
            for u in neighbors[::-1].tolist():
                if not visited[u]:
                    stack.append(u)
        return _order_to_mapping(order, n)


class ReverseCuthillMcKee(ReorderingTechnique):
    """Reverse Cuthill–McKee bandwidth-reducing ordering.

    BFS from a minimum-degree peripheral vertex, visiting each vertex's
    neighbours in ascending-degree order, then reversing the order.
    Operates on the undirected structure, as RCM classically does.
    """

    name = "RCM"
    skew_aware = False
    reads_degree_kind = False

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        degrees = graph.degrees("both")
        visited = np.zeros(n, dtype=bool)
        order: list[int] = []
        seeds = iter(np.argsort(degrees, kind="stable").tolist())
        queue: deque[int] = deque()
        while len(order) < n:
            if not queue:
                seed = next(s for s in seeds if not visited[s])
                visited[seed] = True
                queue.append(seed)
                order.append(seed)
            v = queue.popleft()
            neighbors = np.unique(_undirected_neighbors(graph, v))
            fresh = neighbors[~visited[neighbors]]
            for u in fresh[np.argsort(degrees[fresh], kind="stable")].tolist():
                visited[u] = True
                order.append(u)
                queue.append(u)
        order.reverse()
        return _order_to_mapping(order, n)
