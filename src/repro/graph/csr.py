"""Compressed Sparse Row graph representation.

A :class:`Graph` stores a directed graph twice, exactly as the Ligra-style
frameworks the paper evaluates do:

* an **out-CSR** (``out_offsets`` / ``out_targets``) grouping edges by source
  vertex, used by push-based computations, and
* an **in-CSR** (``in_offsets`` / ``in_sources``) grouping edges by
  destination vertex, used by pull-based computations.

Vertex IDs are dense integers in ``[0, num_vertices)``.  Per the paper
(Table VIII), frameworks use 4 bytes per vertex ID and 8 bytes per edge; we
use ``int64`` offsets and ``int32`` endpoints which matches that budget.

Graphs are immutable once constructed.  Reordering techniques produce a *new*
``Graph`` via :meth:`Graph.relabel`, mirroring the preprocessing pass the
paper describes (Section II-E): relabelling does not alter the graph itself,
only the assignment of IDs (and hence the memory placement of per-vertex
state).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.graph import fastgraph

__all__ = ["Graph"]

_ID_DTYPE = np.int32
_OFFSET_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64

#: Array fields persisted by :meth:`Graph.save`, in file order.
_SAVE_FIELDS = ("out_offsets", "out_targets", "in_offsets", "in_sources")
_SAVE_WEIGHT_FIELDS = ("out_weights", "in_weights")


def _as_offsets(offsets: np.ndarray, num_edges: int, name: str) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=_OFFSET_DTYPE)
    if offsets.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if offsets[0] != 0 or offsets[-1] != num_edges:
        raise ValueError(f"{name} must start at 0 and end at num_edges")
    if np.any(np.diff(offsets) < 0):
        raise ValueError(f"{name} must be non-decreasing")
    return offsets


class Graph:
    """An immutable directed graph in dual-CSR form.

    Most users should build instances through
    :func:`repro.graph.builder.from_edges` or one of the generators in
    :mod:`repro.graph.generators` rather than calling this constructor
    directly.

    Parameters
    ----------
    out_offsets, out_targets:
        Out-CSR arrays: ``out_targets[out_offsets[v]:out_offsets[v + 1]]``
        are the destinations of ``v``'s out-edges.
    in_offsets, in_sources:
        In-CSR arrays: ``in_sources[in_offsets[v]:in_offsets[v + 1]]`` are
        the sources of ``v``'s in-edges.
    out_weights, in_weights:
        Optional edge weights aligned with ``out_targets`` / ``in_sources``.
        Either both or neither must be given.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "out_weights",
        "in_weights",
        "_out_degrees",
        "_in_degrees",
    )

    def __init__(
        self,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        out_weights: np.ndarray | None = None,
        in_weights: np.ndarray | None = None,
    ) -> None:
        out_targets = np.asarray(out_targets, dtype=_ID_DTYPE)
        in_sources = np.asarray(in_sources, dtype=_ID_DTYPE)
        if out_targets.size != in_sources.size:
            raise ValueError("out-CSR and in-CSR must encode the same edges")
        self.num_edges = int(out_targets.size)
        self.num_vertices = int(len(out_offsets) - 1)
        if len(in_offsets) - 1 != self.num_vertices:
            raise ValueError("in/out offset arrays disagree on vertex count")
        self.out_offsets = _as_offsets(out_offsets, self.num_edges, "out_offsets")
        self.in_offsets = _as_offsets(in_offsets, self.num_edges, "in_offsets")
        self.out_targets = out_targets
        self.in_sources = in_sources
        if (out_weights is None) != (in_weights is None):
            raise ValueError("either both or neither weight array must be given")
        if out_weights is not None:
            out_weights = np.asarray(out_weights, dtype=_WEIGHT_DTYPE)
            in_weights = np.asarray(in_weights, dtype=_WEIGHT_DTYPE)
            if out_weights.size != self.num_edges or in_weights.size != self.num_edges:
                raise ValueError("weight arrays must have one entry per edge")
        self.out_weights = out_weights
        self.in_weights = in_weights
        self._out_degrees = None
        self._in_degrees = None
        for arr in (self.out_targets, self.in_sources):
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_vertices):
                raise ValueError("edge endpoint out of range")

    @classmethod
    def _from_kernel_arrays(
        cls,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        out_weights: np.ndarray | None = None,
        in_weights: np.ndarray | None = None,
    ) -> "Graph":
        """Construct without re-validating the CSR invariants.

        Only for arrays whose invariants hold by construction — the
        compiled kernels' outputs and memory-mapped reloads of graphs
        validated when they were built.  Everything else goes through
        ``__init__``.
        """
        graph = object.__new__(cls)
        graph.num_edges = int(out_targets.size)
        graph.num_vertices = int(out_offsets.size - 1)
        graph.out_offsets = out_offsets
        graph.out_targets = out_targets
        graph.in_offsets = in_offsets
        graph.in_sources = in_sources
        graph.out_weights = out_weights
        graph.in_weights = in_weights
        graph._out_degrees = None
        graph._in_degrees = None
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries per-edge weights."""
        return self.out_weights is not None

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (length ``num_vertices``).

        Computed once and cached (read-only): degrees sit on the
        relabel, trace-construction and reorder-analysis hot paths, and
        the graph is immutable so the answer never changes.
        """
        if self._out_degrees is None:
            degrees = np.diff(self.out_offsets)
            degrees.setflags(write=False)
            self._out_degrees = degrees
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (length ``num_vertices``, cached)."""
        if self._in_degrees is None:
            degrees = np.diff(self.in_offsets)
            degrees.setflags(write=False)
            self._in_degrees = degrees
        return self._in_degrees

    def degrees(self, kind: str = "out") -> np.ndarray:
        """Degree array by kind: ``"out"``, ``"in"`` or ``"both"`` (sum)."""
        if kind == "out":
            return self.out_degrees()
        if kind == "in":
            return self.in_degrees()
        if kind == "both":
            return self.out_degrees() + self.in_degrees()
        raise ValueError(f"unknown degree kind: {kind!r}")

    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of ``v``'s out-edges."""
        return self.out_targets[self.out_offsets[v] : self.out_offsets[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of ``v``'s in-edges."""
        return self.in_sources[self.in_offsets[v] : self.in_offsets[v + 1]]

    def average_degree(self) -> float:
        """Average degree ``num_edges / num_vertices`` (the paper's ``A``)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` of every edge, in out-CSR order."""
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=_ID_DTYPE), self.out_degrees()
        )
        return sources, self.out_targets.copy()

    # ------------------------------------------------------------------
    # Disk persistence — per-field .npy files, mmap-loadable
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total bytes of the CSR arrays (offsets, endpoints, weights)."""
        total = (
            self.out_offsets.nbytes
            + self.out_targets.nbytes
            + self.in_offsets.nbytes
            + self.in_sources.nbytes
        )
        if self.is_weighted:
            total += self.out_weights.nbytes + self.in_weights.nbytes
        return total

    def save(self, directory: str | Path) -> Path:
        """Persist the graph as one ``.npy`` file per CSR array.

        Per-field files (rather than one ``.npz`` bundle) are what makes
        :meth:`load`'s mmap mode possible: ``np.load(..., mmap_mode="r")``
        maps a plain ``.npy`` in place, but has to decompress an archive
        member into the heap.  ``meta.json`` is written last (atomically)
        so a directory with metadata is always a complete save.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fields = list(_SAVE_FIELDS)
        if self.is_weighted:
            fields += list(_SAVE_WEIGHT_FIELDS)
        for name in fields:
            np.save(directory / f"{name}.npy", np.ascontiguousarray(getattr(self, name)))
        meta = {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "weighted": self.is_weighted,
        }
        tmp = directory / "meta.json.tmp"
        tmp.write_text(json.dumps(meta))
        tmp.replace(directory / "meta.json")
        return directory

    @classmethod
    def load(cls, directory: str | Path, mmap: bool = False) -> "Graph":
        """Reload a :meth:`save`'d graph, eagerly or memory-mapped.

        ``mmap=False`` reads the arrays into the heap and re-validates
        them; ``mmap=True`` maps them read-only through the trusted
        constructor — the arrays were validated when the graph was
        built, and eager re-validation would fault in every page,
        defeating the laziness that is the point of mapping.
        """
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text())
        fields = list(_SAVE_FIELDS)
        if meta["weighted"]:
            fields += list(_SAVE_WEIGHT_FIELDS)
        mode = "r" if mmap else None
        # Field order is the constructors' positional order.
        arrays = [np.load(directory / f"{name}.npy", mmap_mode=mode) for name in fields]
        graph = (cls._from_kernel_arrays if mmap else cls)(*arrays)
        if (graph.num_vertices, graph.num_edges) != (
            meta["num_vertices"],
            meta["num_edges"],
        ):
            raise ValueError(
                f"saved graph in {directory} is inconsistent with its metadata"
            )
        return graph

    # ------------------------------------------------------------------
    # Relabelling — the primitive every reordering technique uses
    # ------------------------------------------------------------------
    def relabel(self, mapping: np.ndarray, engine: str | None = None) -> "Graph":
        """Return a new graph where old vertex ``v`` becomes ``mapping[v]``.

        ``mapping`` must be a permutation of ``[0, num_vertices)``.  This
        is the CSR regeneration step the paper notes dominates reordering
        cost (Section II-E, Table XI).  Both engines produce bit-identical
        results: the vectorised numpy reference below and the O(E)
        counting-placement kernel in :mod:`repro.graph.fastgraph`,
        selected by ``engine`` / ``REPRO_GRAPH_ENGINE``; ``auto`` uses
        the kernel whenever a C compiler is available.
        """
        mapping = np.asarray(mapping)
        if mapping.shape != (self.num_vertices,):
            raise ValueError("mapping must have one entry per vertex")
        # Range-check before the dtype cast: negative labels would wrap
        # through fancy indexing (and huge ones through the int32 cast)
        # and could slip past the permutation test below.
        if mapping.size and (mapping.min() < 0 or mapping.max() >= self.num_vertices):
            raise ValueError(
                "mapping entries must be in [0, num_vertices); "
                "got values outside that range"
            )
        mapping = mapping.astype(_ID_DTYPE, copy=False)
        check = np.zeros(self.num_vertices, dtype=bool)
        check[mapping] = True
        if not check.all():
            raise ValueError("mapping is not a permutation")

        if fastgraph.use_fast(engine):
            return Graph._from_kernel_arrays(
                *fastgraph.relabel_arrays(
                    self.out_offsets, self.out_targets, self.out_weights, mapping
                )
            )
        old_src, old_dst = self.edge_array()
        new_src = mapping[old_src]
        new_dst = mapping[old_dst]
        weights = self.out_weights
        return _build_dual_csr(
            self.num_vertices, new_src, new_dst, weights, stable=True,
            engine="reference",
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: identical CSR arrays (and weights)."""
        if not isinstance(other, Graph):
            return NotImplemented
        if (self.num_vertices, self.num_edges) != (
            other.num_vertices,
            other.num_edges,
        ):
            return False
        same = (
            np.array_equal(self.out_offsets, other.out_offsets)
            and np.array_equal(self.out_targets, other.out_targets)
            and np.array_equal(self.in_offsets, other.in_offsets)
            and np.array_equal(self.in_sources, other.in_sources)
        )
        if not same:
            return False
        if self.is_weighted != other.is_weighted:
            return False
        if self.is_weighted:
            return np.array_equal(self.out_weights, other.out_weights)
        return True

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))


def _build_dual_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    stable: bool = False,
    engine: str | None = None,
) -> Graph:
    """Construct a :class:`Graph` from parallel edge-endpoint arrays.

    Shared by the public builder and :meth:`Graph.relabel`.  When ``stable``
    is true a stable sort keeps the within-vertex edge order deterministic,
    which relabelling relies on for reproducibility.  The stable path has
    two bit-identical engines: the dual-argsort numpy reference below and
    the counting-sort kernel in :mod:`repro.graph.fastgraph` (``engine`` /
    ``REPRO_GRAPH_ENGINE``); the unstable path always runs the reference
    (quicksort tie order is not reproducible by a stable counting sort).
    Either way an endpoint outside ``[0, num_vertices)`` raises
    ``ValueError`` before any array is built from it.
    """
    if stable and fastgraph.use_fast(engine):
        return Graph._from_kernel_arrays(
            *fastgraph.build_csr_arrays(num_vertices, src, dst, weights)
        )
    if src.size and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_vertices
    ):
        raise ValueError("edge endpoint out of range")
    kind = "stable" if stable else "quicksort"
    out_order = np.argsort(src, kind=kind)
    out_src = src[out_order]
    out_targets = dst[out_order]
    out_counts = np.bincount(src, minlength=num_vertices)
    out_offsets = np.zeros(num_vertices + 1, dtype=_OFFSET_DTYPE)
    np.cumsum(out_counts, out=out_offsets[1:])

    # Derive the in-CSR from the out-CSR edge order so the representation is
    # canonical: any construction path over the same (multiset, within-source
    # order) of edges yields identical arrays, making round-trips exact.
    in_order = np.argsort(out_targets, kind="stable")
    in_sources = out_src[in_order]
    in_counts = np.bincount(dst, minlength=num_vertices)
    in_offsets = np.zeros(num_vertices + 1, dtype=_OFFSET_DTYPE)
    np.cumsum(in_counts, out=in_offsets[1:])

    out_weights = in_weights = None
    if weights is not None:
        weights = np.asarray(weights, dtype=_WEIGHT_DTYPE)
        out_weights = weights[out_order]
        in_weights = out_weights[in_order]
    return Graph(
        out_offsets, out_targets, in_offsets, in_sources, out_weights, in_weights
    )
