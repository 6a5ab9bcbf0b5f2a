"""Common machinery for reordering techniques.

A technique implements :meth:`ReorderingTechnique.compute_mapping`; the base
class provides :meth:`ReorderingTechnique.apply`, which times the analysis
(mapping computation) and the CSR regeneration separately — the split the
paper's reordering-cost discussion (Sections V-C, VI-D) relies on, since CSR
regeneration dominates and is common to all techniques.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "ReorderingTechnique",
    "ReorderResult",
    "group_order_mapping",
    "identity_mapping",
]


def identity_mapping(num_vertices: int) -> np.ndarray:
    """The no-op mapping (baseline / original ordering)."""
    return np.arange(num_vertices, dtype=np.int64)


def group_order_mapping(group_ids: np.ndarray) -> np.ndarray:
    """Mapping that lays groups out in ascending group-ID order.

    ``group_ids[v]`` is the group of vertex ``v``; lower group IDs are placed
    first.  Within each group the *original relative order of vertices is
    preserved* (stable sort) — the invariant at the heart of DBG and of the
    DBG-framework implementations of HubSort/HubCluster/Sort (paper
    Table V).
    """
    group_ids = np.asarray(group_ids)
    order = np.argsort(group_ids, kind="stable")  # old IDs in new order
    mapping = np.empty(group_ids.size, dtype=np.int64)
    mapping[order] = np.arange(group_ids.size, dtype=np.int64)
    return mapping


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of applying a technique to a graph."""

    technique: str
    graph: Graph  #: the relabelled graph
    mapping: np.ndarray  #: mapping[old_id] = new_id
    analysis_seconds: float  #: time to compute the mapping
    relabel_seconds: float  #: time to regenerate the CSR

    @property
    def total_seconds(self) -> float:
        """End-to-end reordering time (analysis + CSR regeneration)."""
        return self.analysis_seconds + self.relabel_seconds


class ReorderingTechnique:
    """Base class for vertex reordering techniques.

    Parameters
    ----------
    degree_kind:
        Which degrees drive the reordering: ``"out"``, ``"in"`` or
        ``"both"``.  The paper reorders by out-degree for pull-dominated
        applications and by in-degree for push-dominated ones (Table VIII).
    """

    #: Short display name; subclasses override.
    name: str = "base"
    #: True for techniques that use only the degree distribution (paper's
    #: "skew-aware" class), False for structure-aware ones like Gorder.
    skew_aware: bool = True
    #: Whether :meth:`compute_mapping` reads ``degree_kind``.  Techniques
    #: that ignore it (Gorder, the traversal orders, random shuffles)
    #: leave it out of :meth:`cache_token`, so push and pull applications
    #: share one mapping instead of computing identical permutations twice.
    reads_degree_kind: bool = True

    def __init__(self, degree_kind: str = "out") -> None:
        if degree_kind not in ("out", "in", "both"):
            raise ValueError(f"bad degree_kind: {degree_kind!r}")
        self.degree_kind = degree_kind

    def compute_mapping(self, graph: Graph) -> np.ndarray:
        """Return the permutation ``mapping[old_id] = new_id``."""
        raise NotImplementedError

    def cache_token(self) -> tuple:
        """Stable identity for disk-cache keys: class name + parameters.

        Two instances that can produce different mappings must have
        different tokens, and two that always produce the same mapping
        should share one.  The token folds in every scalar attribute
        (window sizes, thresholds, seeds, ...) and ``degree_kind`` only
        when :attr:`reads_degree_kind` is set: ``DBG('in')`` and
        ``DBG('out')`` get different slots, while ``Gorder('in')`` and
        ``Gorder('out')`` share one.
        """
        params = tuple(
            sorted(
                (k, v)
                for k, v in vars(self).items()
                if isinstance(v, (bool, int, float, str, type(None)))
                and (self.reads_degree_kind or k != "degree_kind")
            )
        )
        return (type(self).__name__, params)

    def apply(self, graph: Graph) -> ReorderResult:
        """Compute the mapping and rebuild the graph, timing both phases."""
        t0 = time.perf_counter()
        mapping = self.compute_mapping(graph)
        t1 = time.perf_counter()
        relabelled = graph.relabel(mapping)
        t2 = time.perf_counter()
        return ReorderResult(
            technique=self.name,
            graph=relabelled,
            mapping=mapping,
            analysis_seconds=t1 - t0,
            relabel_seconds=t2 - t1,
        )

    def _degrees(self, graph: Graph) -> np.ndarray:
        return graph.degrees(self.degree_kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(degree_kind={self.degree_kind!r})"
