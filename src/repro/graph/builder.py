"""Builders converting edge lists and networkx graphs into :class:`Graph`."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph, _build_dual_csr

__all__ = ["from_edges", "from_networkx", "to_networkx"]


def from_edges(
    num_vertices: int,
    edges: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    dedup: bool = False,
    symmetrize: bool = False,
    drop_self_loops: bool = False,
) -> Graph:
    """Build a :class:`Graph` from an ``(E, 2)`` array of directed edges.

    Parameters
    ----------
    num_vertices:
        Number of vertices; all endpoints must be in ``[0, num_vertices)``.
    edges:
        Array-like of shape ``(E, 2)`` with ``edges[i] = (src, dst)``.
    weights:
        Optional per-edge weights, aligned with ``edges``.
    dedup:
        Remove duplicate ``(src, dst)`` pairs (keeping the first weight).
    symmetrize:
        Add the reverse of every edge, turning the graph into the
        undirected-as-directed form used by e.g. the Friendster analog.
    drop_self_loops:
        Remove ``(v, v)`` edges.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (E, 2)")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (edges.shape[0],):
            raise ValueError("weights must align with edges")

    # Views: the CSR build range-checks the endpoints ("edge endpoint out
    # of range") and reads the columns in place.
    src = edges[:, 0]
    dst = edges[:, 1]

    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]

    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])

    if dedup and src.size:
        keys = src * num_vertices + dst
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx.sort()
        src, dst = src[unique_idx], dst[unique_idx]
        if weights is not None:
            weights = weights[unique_idx]

    return _build_dual_csr(num_vertices, src, dst, weights, stable=True)


def from_networkx(nx_graph, weight: str | None = None) -> Graph:
    """Convert a networkx (Di)Graph with integer nodes ``0..n-1`` to CSR.

    Undirected graphs are symmetrized (each undirected edge becomes two
    directed edges), matching how shared-memory graph frameworks ingest
    undirected datasets.
    """
    import networkx as nx

    n = nx_graph.number_of_nodes()
    if set(nx_graph.nodes()) != set(range(n)):
        raise ValueError("nodes must be the integers 0..n-1")
    edge_list = list(nx_graph.edges(data=True))
    edges = np.array([(u, v) for u, v, _ in edge_list], dtype=np.int64).reshape(-1, 2)
    weights = None
    if weight is not None:
        weights = np.array([data.get(weight, 1.0) for _, _, data in edge_list])
    symmetrize = not nx_graph.is_directed()
    return from_edges(n, edges, weights, symmetrize=symmetrize)


def to_networkx(graph: Graph):
    """Convert a :class:`Graph` to a ``networkx.DiGraph`` (for validation)."""
    import networkx as nx

    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    if graph.is_weighted:
        # out_weights is aligned with out-CSR order, which edge_array follows.
        weights = graph.out_weights
        nxg.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), weights.tolist()))
    else:
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
    return nxg
