"""Memory-access trace construction for the cache simulator.

The paper's cache analysis (Sections II-B..II-D, VI-B, VI-C) reasons about
three address streams:

* the **Vertex Array** (CSR offsets) — streamed sequentially, no reuse;
* the **Edge Array** — streamed sequentially, no reuse;
* the **Property Array(s)** — accessed irregularly through edge endpoints;
  the only stream with temporal reuse, concentrated on hot vertices.

Applications rebuild exactly these streams for a representative super-step
(:class:`TraceBuilder`), interleaved the way the traversal interleaves them:
each access carries a fractional *time key*, and the final trace is the
key-sorted concatenation of all streams.  Consecutive accesses to the same
cache block are run-length compressed — they are guaranteed L1 hits and the
simulator only needs the block-transition sequence plus multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Region",
    "AddressSpace",
    "TraceBuilder",
    "MemoryTrace",
    "StreamingTrace",
    "AppTrace",
]

#: Cache block size in bytes, matching the paper's assumption.
BLOCK_BYTES = 64


@dataclass(frozen=True)
class Region:
    """A named, disjoint address region (one array of the workload)."""

    name: str
    base: int
    element_bytes: int

    def block_of(self, indices: np.ndarray) -> np.ndarray:
        """Cache-block IDs of the given element indices."""
        return (self.base + np.asarray(indices, dtype=np.int64) * self.element_bytes) // BLOCK_BYTES


class AddressSpace:
    """Allocates non-overlapping regions, page-aligned like a real allocator."""

    def __init__(self, page_bytes: int = 4096) -> None:
        self._next_base = page_bytes  # leave page 0 unused
        self._page = page_bytes
        self.regions: dict[str, Region] = {}

    def region(self, name: str, num_elements: int, element_bytes: int) -> Region:
        """Reserve space for ``num_elements`` items of ``element_bytes`` each."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        region = Region(name, self._next_base, element_bytes)
        size = num_elements * element_bytes
        self._next_base += (size + self._page - 1) // self._page * self._page + self._page
        self.regions[name] = region
        return region


@dataclass
class MemoryTrace:
    """A run-length-compressed block-granularity access trace."""

    blocks: np.ndarray  #: int64 cache-block IDs, one per run
    counts: np.ndarray  #: accesses per run (>= 1); repeats within a block
    writes: np.ndarray  #: bool, whether the run is a write
    cores: np.ndarray  #: int64, simulated core issuing the run

    @property
    def total_accesses(self) -> int:
        """Logical accesses represented (before compression)."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.blocks.size)

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Kernel-ready contiguous views: int64 blocks/counts/cores, uint8 writes.

        No copy is made when the stored arrays already have the target
        dtype and layout (the :class:`TraceBuilder` output does): bool
        write flags are byte-sized, so they are exported as a ``uint8``
        *view* of the same buffer.
        """
        writes = self.writes
        if writes.dtype == np.bool_ and writes.flags.c_contiguous:
            writes = writes.view(np.uint8)
        else:
            writes = np.ascontiguousarray(writes, dtype=np.uint8)
        return (
            np.ascontiguousarray(self.blocks, dtype=np.int64),
            np.ascontiguousarray(self.counts, dtype=np.int64),
            writes,
            np.ascontiguousarray(self.cores, dtype=np.int64),
        )

    def chunks(self, max_runs: int):
        """Stream the packed trace in chunks of at most ``max_runs`` runs.

        The consumer sees the same run sequence as one packed export;
        chunking only bounds peak memory and gives engines a natural
        progress/instrumentation granularity.
        """
        if max_runs <= 0:
            raise ValueError("max_runs must be positive")
        blocks, counts, writes, cores = self.packed()
        for start in range(0, blocks.size, max_runs):
            stop = start + max_runs
            yield (
                blocks[start:stop],
                counts[start:stop],
                writes[start:stop],
                cores[start:stop],
            )


class StreamingTrace:
    """A compressed trace delivered as chunks, never fully materialized.

    ``chunk_factory`` is a zero-argument callable returning an iterator of
    :class:`MemoryTrace` chunks that, concatenated, cover the whole trace
    in time order.  The producer compresses each chunk independently, so
    a run can be split across a chunk seam; :meth:`chunks` re-merges those
    seams by holding back each chunk's final run.  Per-chunk compression
    is maximal and seam merges restore the cross-chunk merges, so the
    streamed run sequence is *bit-identical* to the run sequence of the
    monolithic trace — simulating it chunk by chunk gives exactly the
    counters of the materialized path, for every replacement policy.

    Peak memory is one chunk plus producer working state, which is what
    lets the fused trace→simulate stage run paper-scale graphs whose full
    trace would not fit in RAM.
    """

    def __init__(self, chunk_factory, detail: dict | None = None) -> None:
        self._factory = chunk_factory
        self.detail = detail or {}
        #: Totals observed by the most recent :meth:`chunks` consumption.
        self.runs_streamed = 0
        self.accesses_streamed = 0
        self.chunks_streamed = 0
        self.peak_chunk_runs = 0

    def _emit(self, blocks, counts, writes, cores):
        self.runs_streamed += int(blocks.size)
        self.accesses_streamed += int(counts.sum())
        return blocks, counts, writes, cores

    def chunks(self):
        """Yield packed ``(blocks, counts, writes, cores)`` chunks.

        Same contract as :meth:`MemoryTrace.chunks`: the concatenation of
        the yielded chunks is the full run-length-compressed trace.
        """
        self.runs_streamed = 0
        self.accesses_streamed = 0
        self.chunks_streamed = 0
        self.peak_chunk_runs = 0
        pending: tuple[int, int, int, int] | None = None
        for chunk in self._factory():
            blocks, counts, writes, cores = chunk.packed()
            if blocks.size == 0:
                continue
            self.chunks_streamed += 1
            self.peak_chunk_runs = max(self.peak_chunk_runs, int(blocks.size))
            counts = counts.copy()
            if pending is not None:
                pb, pc, pw, pcore = pending
                if int(blocks[0]) == pb and int(writes[0]) == pw and int(cores[0]) == pcore:
                    counts[0] += pc
                else:
                    yield self._emit(
                        np.array([pb], dtype=np.int64),
                        np.array([pc], dtype=np.int64),
                        np.array([pw], dtype=np.uint8),
                        np.array([pcore], dtype=np.int64),
                    )
            pending = (
                int(blocks[-1]),
                int(counts[-1]),
                int(writes[-1]),
                int(cores[-1]),
            )
            if blocks.size > 1:
                yield self._emit(
                    blocks[:-1], counts[:-1], writes[:-1], cores[:-1]
                )
        if pending is not None:
            pb, pc, pw, pcore = pending
            yield self._emit(
                np.array([pb], dtype=np.int64),
                np.array([pc], dtype=np.int64),
                np.array([pw], dtype=np.uint8),
                np.array([pcore], dtype=np.int64),
            )

    def materialize(self) -> MemoryTrace:
        """Concatenate all chunks into one in-memory :class:`MemoryTrace`.

        The result is run-for-run identical to the trace a monolithic
        build would have produced (the seam merges in :meth:`chunks`
        guarantee it) — used by engines without an incremental entry
        point and by the differential tests.
        """
        parts = list(self.chunks())
        if not parts:
            return MemoryTrace(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int64),
            )
        return MemoryTrace(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]).view(np.bool_),
            np.concatenate([p[3] for p in parts]),
        )


class TraceBuilder:
    """Accumulates keyed access streams and merges them into a trace."""

    def __init__(self) -> None:
        self._blocks: list[np.ndarray] = []
        self._keys: list[np.ndarray] = []
        self._writes: list[np.ndarray] = []
        self._cores: list[np.ndarray] = []

    def add(
        self,
        region: Region,
        indices: np.ndarray,
        keys: np.ndarray,
        write: bool | np.ndarray = False,
        core: int | np.ndarray = 0,
    ) -> None:
        """Add one stream: element ``indices`` of ``region`` at time ``keys``.

        ``keys`` are arbitrary floats; streams are interleaved by sorting
        all keys together, so callers express "the edge-array block is
        touched just before the property read it feeds" as ``key - 0.5``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape != indices.shape:
            raise ValueError("keys must align with indices")
        self._blocks.append(region.block_of(indices))
        self._keys.append(keys)
        self._writes.append(np.broadcast_to(np.asarray(write, dtype=bool), indices.shape))
        self._cores.append(np.broadcast_to(np.asarray(core, dtype=np.int64), indices.shape))

    def build(
        self, engine: str | None = None, threads: int | None = None
    ) -> MemoryTrace:
        """Merge all streams by time key and run-length compress.

        ``engine`` selects the merge implementation (``auto``/``fast``/
        ``fast-threaded``/``reference``, default from
        ``REPRO_TRACE_ENGINE``); all produce bit-identical traces.
        ``threads`` only matters under ``fast-threaded`` (default:
        ``REPRO_KERNEL_THREADS``, else the CPU count).
        """
        import time

        from repro.framework import fasttrace

        if not self._blocks:
            empty = np.empty(0, dtype=np.int64)
            return MemoryTrace(
                empty,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int64),
            )
        blocks = np.concatenate(self._blocks)
        keys = np.concatenate(self._keys)
        writes = np.concatenate(self._writes)
        cores = np.concatenate(self._cores)

        start_time = time.perf_counter()
        if fasttrace.use_fast(engine):
            trace = MemoryTrace(
                *fasttrace.trace_build_fast(
                    blocks,
                    keys,
                    writes,
                    cores,
                    threads=fasttrace.resolve_threads(engine, threads),
                )
            )
            fasttrace.BUILD_STATS.record(
                "fast",
                runs=len(trace),
                accesses=int(blocks.size),
                seconds=time.perf_counter() - start_time,
            )
            return trace

        order = np.argsort(keys, kind="stable")
        blocks, writes, cores = blocks[order], writes[order], cores[order]

        # Run-length compression: merge consecutive accesses to the same
        # block by the same core with the same read/write kind.
        if blocks.size == 0:
            boundaries = np.empty(0, dtype=np.int64)
        else:
            change = np.empty(blocks.size, dtype=bool)
            change[0] = True
            change[1:] = (
                (blocks[1:] != blocks[:-1])
                | (writes[1:] != writes[:-1])
                | (cores[1:] != cores[:-1])
            )
            boundaries = np.flatnonzero(change)
        counts = np.diff(np.append(boundaries, blocks.size))
        trace = MemoryTrace(
            blocks[boundaries], counts.astype(np.int64), writes[boundaries], cores[boundaries]
        )
        fasttrace.BUILD_STATS.record(
            "reference",
            runs=len(trace),
            accesses=int(order.size),
            seconds=time.perf_counter() - start_time,
        )
        return trace


@dataclass
class AppTrace:
    """A representative super-step trace plus whole-run scaling metadata."""

    app: str  #: application name
    trace: MemoryTrace
    instructions: int  #: instructions attributed to the traced super-step
    #: Multiplier from the traced super-step to the whole application run
    #: (e.g. PageRank's iteration count); used to extrapolate runtime.
    superstep_multiplier: float = 1.0
    #: Free-form description of what was traced (for reports/debugging).
    detail: dict = field(default_factory=dict)
