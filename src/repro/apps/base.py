"""Shared application machinery: plans, super-step tracing, core layout.

The cache study needs, for every (application, dataset, ordering) triple,
the memory-access stream of a *representative super-step* (Section VI-B
measures steady-state MPKI).  Re-running each algorithm for every ordering
would be wasteful — the algorithm's logical behaviour (which vertices are
active when) is identical under relabelling.  So an application is run
once per graph to record a :class:`TracePlan`, and the plan is *remapped*
through each reordering's permutation before tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.graph.csr import Graph
from repro.framework import fasttrace
from repro.framework.fasttrace import ragged_gather
from repro.framework.trace import (
    AddressSpace,
    AppTrace,
    MemoryTrace,
    Region,
    StreamingTrace,
    TraceBuilder,
)

__all__ = ["TracePlan", "SuperStep", "GraphApp", "core_of_vertices"]

#: Simulated machine: 2 sockets x 20 cores (paper Section V-B).
NUM_CORES = 40

#: Bytes per CSR offset entry and per edge entry (paper Table VIII notes
#: 4 bytes to encode a vertex and 8 bytes per edge).
VERTEX_ENTRY_BYTES = 4
EDGE_ENTRY_BYTES = 8


#: Accesses a core issues before the trace switches to the next core's
#: stream.  The trace models all cores progressing at equal rates,
#: interleaved at this quantum: fine enough that write-shared blocks
#: ping-pong between cores (the paper's Fig. 9 coherence behaviour),
#: coarse enough that each core's stream stays locally sequential.
INTERLEAVE_QUANTUM = 128

#: Edges a window of :meth:`GraphApp.trace_streaming` targets (the
#: fused stage's working set).  ~1M edges keeps a window's streams and
#: trace in the tens of MB while amortizing its O(ids) walk.
DEFAULT_CHUNK_EDGES = 1 << 20


def core_of_vertices(ids: np.ndarray, num_vertices: int, num_cores: int = NUM_CORES) -> np.ndarray:
    """Static block partition of the vertex range over cores.

    Mirrors OpenMP static scheduling of the vertex loop, which is what pins
    coherence behaviour in the paper's push-mode analysis (Section VI-C).
    """
    return np.asarray(ids, dtype=np.int64) * num_cores // max(num_vertices, 1)


@dataclass(frozen=True)
class SuperStep:
    """One traced iteration: which vertices drive it and in which direction."""

    direction: str  #: "pull" or "push"
    #: Active vertex IDs; ``None`` means all vertices (dense iteration).
    active: np.ndarray | None
    #: Edges this super-step traverses (for work accounting).
    edges: int
    #: Fraction of push-mode property accesses that actually write.  PRD
    #: pushes unconditionally (1.0); SSSP writes only when it finds a
    #: shorter path (paper Section VI-C), recorded from the real run.
    write_fraction: float = 1.0


@dataclass(frozen=True)
class TracePlan:
    """Logical execution record of one application run on one graph."""

    app: str
    supersteps: tuple[SuperStep, ...]
    #: Index of the representative super-step to trace.
    representative: int
    #: Total edges traversed across the whole run (all supersteps, all
    #: traversals/roots), used to extrapolate from the traced step.
    total_edges: int
    detail: dict = field(default_factory=dict)

    @property
    def traced(self) -> SuperStep:
        return self.supersteps[self.representative]

    @property
    def multiplier(self) -> float:
        """Whole-run work relative to the traced super-step."""
        traced_edges = max(self.traced.edges, 1)
        return self.total_edges / traced_edges

    def remap(self, mapping: np.ndarray) -> "TracePlan":
        """Express the plan in the vertex IDs of a relabelled graph."""
        mapping = np.asarray(mapping)
        steps = tuple(
            replace(
                step,
                active=None if step.active is None else np.sort(mapping[step.active]),
            )
            for step in self.supersteps
        )
        return replace(self, supersteps=steps)


class GraphApp:
    """Base class for the five evaluated applications."""

    name: str = "app"
    #: "pull", "push" or "pull-push" (paper Table VIII).
    computation: str = "pull"
    #: Bytes per element of the irregularly-accessed property (Table VIII).
    irregular_property_bytes: int = 8
    #: Total per-vertex property bytes (Table VIII), for footprint accounting.
    total_property_bytes: int = 8
    #: Degree kind the paper uses when reordering for this app (Table VIII).
    reorder_degree_kind: str = "out"
    #: Instructions per traversed edge / active vertex in the traced loop.
    #: Calibrated so baseline L1 MPKI lands in the paper's >100 regime for
    #: the large datasets (Fig. 8: roughly 5-10 instructions per memory
    #: access in these tight traversal kernels).
    instructions_per_edge: float = 6.0
    instructions_per_vertex: float = 10.0

    # -- to override ------------------------------------------------------
    def run(self, graph: Graph, **kwargs) -> dict:
        """Execute the algorithm; returns results incl. a ``plan``."""
        raise NotImplementedError

    def plan(self, graph: Graph, **kwargs) -> TracePlan:
        """Run and return just the logical execution plan."""
        return self.run(graph, **kwargs)["plan"]

    # -- shared tracing ----------------------------------------------------
    def trace(
        self,
        graph: Graph,
        plan: TracePlan,
        engine: str | None = None,
    ) -> AppTrace:
        """Memory trace of the plan's representative super-step on ``graph``.

        ``engine`` (``auto``/``fast``/``reference``,
        default ``REPRO_TRACE_ENGINE``) picks who builds the trace: the
        compiled generator, which writes it straight from the CSR in
        trace order, or the numpy streams of :meth:`_trace_pull` /
        :meth:`_trace_push` through :class:`TraceBuilder`, which stay the
        oracle.  Both give identical traces.
        """
        step = plan.traced
        if fasttrace.use_fast(engine):
            sizes, trace_window = self._kernel_windows(graph, step)
            trace, edges = trace_window(0, None), int(sizes[fasttrace.SUPERSTEP_EDGES])
        else:
            trace, edges = self._trace_reference(graph, step)
        return self._app_trace(graph, plan, trace, edges)

    def trace_streaming(
        self,
        graph: Graph,
        plan: TracePlan,
        chunk_edges: int | None = None,
        engine: str | None = None,
    ) -> AppTrace:
        """:meth:`trace` as a :class:`StreamingTrace`, for the fused
        trace+simulate stage.

        The compiled generator traces windows of whole interleave quanta,
        about ``chunk_edges`` edges each (default
        :data:`DEFAULT_CHUNK_EDGES`), one at a time as the consumer asks,
        so peak memory is one window, not one trace.  Each window merges
        on its own because quanta own disjoint key ranges (the super-step
        comment in ``_fasttrace.c`` gives the argument; the kernel builds
        every trace one quantum at a time), and
        :meth:`StreamingTrace.chunks` re-merges runs split at a seam.
        Under the reference engine the oracle trace of :meth:`trace` is
        built whole and handed out in slices of ``chunk_edges`` runs.
        Either way the chunks concatenate to :meth:`trace`'s run sequence
        and access total.
        """
        chunk_edges = DEFAULT_CHUNK_EDGES if chunk_edges is None else chunk_edges
        if chunk_edges <= 0:
            raise ValueError("chunk_edges must be positive")
        step = plan.traced
        detail = {"chunk_edges": chunk_edges}
        if fasttrace.use_fast(engine):
            sizes, trace_window = self._kernel_windows(graph, step)
            edges = int(sizes[fasttrace.SUPERSTEP_EDGES])
            num_quanta = int(sizes[fasttrace.SUPERSTEP_QUANTA])
            # With ids in order each core owns one run of edges, so a
            # window this wide holds at most chunk_edges edges.
            width = max(1, chunk_edges // (INTERLEAVE_QUANTUM * NUM_CORES))
            detail.update(num_quanta=num_quanta, quanta_per_window=width)

            def chunks():
                for q0 in range(0, num_quanta, width):
                    yield trace_window(q0, q0 + width)

        else:
            whole, edges = self._trace_reference(graph, step)

            def chunks():
                # Each slice counts one access per run; the first also
                # carries the rest of the total.
                extra = whole.accesses - len(whole)
                for start in range(0, len(whole), chunk_edges):
                    part = slice(start, start + chunk_edges)
                    blocks = whole.blocks[part]
                    yield MemoryTrace(
                        blocks,
                        whole.writes[part],
                        whole.cores[part],
                        blocks.size + (extra if start == 0 else 0),
                    )

        return self._app_trace(graph, plan, StreamingTrace(chunks, detail), edges)

    def hot_property_blocks(self, graph: Graph, threshold: float | None = None) -> np.ndarray:
        """Cache blocks of the irregular property holding *hot* vertices.

        This is the static classification skew-aware replacement policies
        (``grasp``) consume: the same above-average-degree cut the
        skew-aware reordering techniques use
        (:func:`repro.graph.properties.hot_mask`, evaluated with this
        app's ``reorder_degree_kind``), projected onto the block IDs of
        the irregular property region.  Call it on the *relabelled*
        graph — block IDs are positions in the simulated address space,
        which the permutation changes.
        """
        from repro.graph.properties import hot_mask

        prop_region = self._regions(graph)[2]
        hot = hot_mask(graph, kind=self.reorder_degree_kind, threshold=threshold)
        return np.unique(prop_region.block_of(np.flatnonzero(hot)))

    # -- internals ---------------------------------------------------------
    def _regions(self, graph: Graph) -> tuple[Region, Region, Region, Region, Region | None]:
        """The traced arrays' address regions, allocated in this order:
        vertex, edge, property and output arrays, then the weights
        (``None`` when unweighted).  Every block id depends on it."""
        space = AddressSpace()
        return (
            space.region("vertex", graph.num_vertices + 1, VERTEX_ENTRY_BYTES),
            space.region("edge", graph.num_edges, EDGE_ENTRY_BYTES),
            space.region("property", graph.num_vertices, self.irregular_property_bytes),
            space.region("out_property", graph.num_vertices, 8),
            space.region("weights", graph.num_edges, 8) if graph.is_weighted else None,
        )

    def _app_trace(self, graph: Graph, plan: TracePlan, trace, edges: int) -> AppTrace:
        step = plan.traced
        active_count = (
            graph.num_vertices if step.active is None else int(step.active.size)
        )
        instructions = int(
            self.instructions_per_edge * edges
            + self.instructions_per_vertex * active_count
        )
        return AppTrace(
            app=self.name,
            trace=trace,
            instructions=instructions,
            superstep_multiplier=plan.multiplier,
            detail={"direction": step.direction, "edges": edges, "active": active_count},
        )

    def _trace_reference(self, graph, step) -> tuple[MemoryTrace, int]:
        """The oracle: the super-step's trace and edge count from the numpy
        streams of :meth:`_trace_pull` / :meth:`_trace_push`."""
        regions = self._regions(graph)
        builder = TraceBuilder()
        if step.direction == "pull":
            edges = self._trace_pull(builder, graph, step, *regions[:4])
        else:
            edges = self._trace_push(builder, graph, step, *regions)
        return builder.build(), edges

    def _kernel_windows(self, graph, step):
        """The compiled generator for ``step``: the whole super-step's
        :func:`~repro.framework.fasttrace.superstep_sizes` and a function
        ``trace_window(q0, q1)`` returning the :class:`MemoryTrace` of
        the interleave quanta ``[q0, q1)`` (``q1`` ``None``: all from
        ``q0``) of exactly the streams :meth:`_trace_pull` /
        :meth:`_trace_push` add."""
        pull = step.direction == "pull"
        offsets = graph.in_offsets if pull else graph.out_offsets
        endpoints = graph.in_sources if pull else graph.out_targets
        regions = self._regions(graph)
        if pull:
            regions = regions[:-1] + (None,)  # only a push streams weights
        geometry = [
            (0, 0) if region is None else (region.base, region.element_bytes)
            for region in regions
        ]
        shape = dict(push=not pull, num_cores=NUM_CORES, quantum=INTERLEAVE_QUANTUM)
        sizes = fasttrace.superstep_sizes(offsets, step.active, geometry, **shape)
        edges = int(sizes[fasttrace.SUPERSTEP_EDGES])
        write_mask = None if pull else self._push_write_mask(edges, step.write_fraction)

        def trace_window(q0: int, q1: int | None) -> MemoryTrace:
            window = (q0, q1)
            if window != (0, None):
                window_sizes = fasttrace.superstep_sizes(
                    offsets, step.active, geometry, window=window, **shape
                )
            else:
                window_sizes = sizes
            return MemoryTrace(
                *fasttrace.superstep_trace_fast(
                    offsets,
                    endpoints,
                    step.active,
                    geometry,
                    window_sizes,
                    write_mask=write_mask,
                    window=window,
                    **shape,
                )
            )

        return sizes, trace_window

    @staticmethod
    def _push_write_mask(edges: int, write_fraction: float) -> np.ndarray | None:
        """Which of a push's ``edges`` property accesses write: ``None``
        when all do, else a mask seeded by the edge count (reproducible)."""
        if write_fraction >= 1.0:
            return None
        rng = np.random.default_rng(edges)
        return rng.random(edges) < write_fraction

    def _gather(self, graph: Graph, active: np.ndarray | None, direction: str):
        """Edge endpoints, edge-array positions and per-edge owners for the
        super-step, as ``(ids, lengths, positions, others, repeats)``."""
        offsets = graph.in_offsets if direction == "pull" else graph.out_offsets
        endpoints = graph.in_sources if direction == "pull" else graph.out_targets
        if active is None:
            ids = np.arange(graph.num_vertices, dtype=np.int64)
        else:
            ids = np.asarray(active, dtype=np.int64)
        lengths, positions, others, repeats = ragged_gather(
            offsets, endpoints, ids, engine="reference"
        )
        return ids, lengths, positions, others, repeats

    @staticmethod
    def _interleave_offsets(cores_per_edge: np.ndarray) -> np.ndarray:
        """Time-key offsets realizing the per-core quantum interleave.

        ``cores_per_edge`` is non-decreasing (edges are gathered in vertex
        order and cores own contiguous vertex ranges).  Each core's k-th
        quantum of ``INTERLEAVE_QUANTUM`` accesses is shifted to global
        time slice k, so all cores progress in lock-step.
        """
        n = cores_per_edge.size
        if n == 0:
            return np.zeros(0)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = cores_per_edge[1:] != cores_per_edge[:-1]
        core_start = np.maximum.accumulate(np.where(change, np.arange(n), 0))
        local = np.arange(n) - core_start
        quantum = local // INTERLEAVE_QUANTUM
        return quantum.astype(np.float64) * (2.0 * n)

    @staticmethod
    def _add_stream_block_transitions(
        builder: TraceBuilder,
        region: Region,
        positions: np.ndarray,
        keys: np.ndarray,
        write=False,
        core=0,
    ) -> None:
        """Emit a sequential stream at block granularity.

        Only block transitions are recorded: the elided accesses are
        guaranteed L1 hits (the stream never leaves its current block
        between them) and are accounted for in the instruction budget
        instead.
        """
        if positions.size == 0:
            return
        blocks = region.block_of(positions)
        first = np.empty(positions.size, dtype=bool)
        first[0] = True
        first[1:] = blocks[1:] != blocks[:-1]
        idx = np.flatnonzero(first)
        core_arr = core[idx] if isinstance(core, np.ndarray) else core
        builder.add(region, positions[idx], keys[idx], write=write, core=core_arr)

    def _trace_pull(
        self,
        builder,
        graph,
        step,
        vertex_region,
        edge_region,
        prop_region,
        out_region,
    ) -> int:
        """Pull super-step: stream in-edges, read source properties, write
        one output per destination."""
        ids, lengths, positions, srcs, dst_per_edge = self._gather(graph, step.active, "pull")
        edges = int(positions.size)
        dst_core_per_edge = core_of_vertices(dst_per_edge, graph.num_vertices)
        offsets = self._interleave_offsets(dst_core_per_edge)
        edge_keys = np.arange(edges, dtype=np.float64) + offsets
        # Edge array: streamed just ahead of the property read it feeds.
        self._add_stream_block_transitions(
            builder, edge_region, positions, edge_keys - 0.5, core=dst_core_per_edge
        )
        # Property array: the irregular reads, one per in-edge.
        builder.add(prop_region, srcs, edge_keys, core=dst_core_per_edge)
        # Vertex array reads and the per-destination output writes, pinned to
        # each destination's first/last edge position in time.
        first_edge = np.zeros(ids.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=first_edge[1:])
        last_edge = first_edge + np.maximum(lengths - 1, 0)
        if edges:
            first_off = offsets[np.minimum(first_edge, edges - 1)]
            last_off = offsets[np.minimum(last_edge, edges - 1)]
        else:
            first_off = last_off = np.zeros(ids.size)
        dst_cores = core_of_vertices(ids, graph.num_vertices)
        self._add_stream_block_transitions(
            builder, vertex_region, ids, first_edge - 0.7 + first_off, core=dst_cores
        )
        self._add_stream_block_transitions(
            builder,
            out_region,
            ids,
            last_edge + 0.3 + last_off,
            write=True,
            core=dst_cores,
        )
        return edges

    def _trace_push(
        self,
        builder,
        graph,
        step,
        vertex_region,
        edge_region,
        prop_region,
        out_region,
        weight_region,
    ) -> int:
        """Push super-step: stream out-edges, write destination properties."""
        ids, lengths, positions, dsts, src_per_edge = self._gather(graph, step.active, "push")
        edges = int(positions.size)
        src_core_per_edge = core_of_vertices(src_per_edge, graph.num_vertices)
        offsets = self._interleave_offsets(src_core_per_edge)
        edge_keys = np.arange(edges, dtype=np.float64) + offsets
        self._add_stream_block_transitions(
            builder, edge_region, positions, edge_keys - 0.5, core=src_core_per_edge
        )
        if weight_region is not None:
            self._add_stream_block_transitions(
                builder, weight_region, positions, edge_keys - 0.4, core=src_core_per_edge
            )
        # The irregular accesses that generate coherence traffic (Sec. VI-C):
        # every push reads the destination property; only the successful
        # fraction writes it (always, for unconditional apps like PRD).
        write_mask = self._push_write_mask(edges, step.write_fraction)
        builder.add(
            prop_region,
            dsts,
            edge_keys,
            write=True if write_mask is None else write_mask,
            core=src_core_per_edge,
        )
        # Vertex array + source property read per active vertex.
        first_edge = np.zeros(ids.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=first_edge[1:])
        if edges:
            first_off = offsets[np.minimum(first_edge, edges - 1)]
        else:
            first_off = np.zeros(ids.size)
        src_cores = core_of_vertices(ids, graph.num_vertices)
        self._add_stream_block_transitions(
            builder, vertex_region, ids, first_edge - 0.7 + first_off, core=src_cores
        )
        self._add_stream_block_transitions(
            builder, out_region, ids, first_edge - 0.6 + first_off, core=src_cores
        )
        return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
