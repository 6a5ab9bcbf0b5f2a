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
cache block by the same core with the same read/write kind are
run-length compressed — they are guaranteed L1 hits, so the simulator only
needs the run sequence plus the total access count.

A :class:`MemoryTrace` stores 6 bytes per run: a ``uint32`` block id, a
``bool`` write flag and a ``uint8`` core.  :class:`AddressSpace` refuses
regions that reach block ``2**32 - 1`` (256 GiB of traced arrays; the
simulator kernel reserves that id as its empty-slot tag), and
:data:`MAX_CORES` bounds the simulated cores, so one dtype per field
covers every trace.
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
    "narrow",
]

#: Cache block size in bytes, matching the paper's assumption.
BLOCK_BYTES = 64

#: Block ids are stored as ``uint32``, and the largest, ``2**32 - 1``, is
#: reserved (the simulator kernel's empty way-slot tag): the address
#: space ends below it.
MAX_BLOCKS = (1 << 32) - 1

#: Cores are stored as ``uint8``.
MAX_CORES = 1 << 8


def narrow(values, dtype, what: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array, range-checked if cast.

    Arrays already of ``dtype`` pass through unchecked (the trace kernels
    emit them in range by construction); anything else is checked against
    the dtype's range once, so an out-of-range id raises ``ValueError``
    instead of wrapping.
    """
    values = np.asarray(values)
    if values.dtype != dtype:
        info = np.iinfo(dtype)
        if values.size and (values.min() < 0 or values.max() > info.max):
            raise ValueError(f"{what} must lie in [0, {info.max}]")
        values = values.astype(dtype)
    return np.ascontiguousarray(values)


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
    """Allocates non-overlapping regions, page-aligned like a real allocator.

    Every region must end below block :data:`MAX_BLOCKS`, so the block
    ids of any in-range element fit a trace's ``uint32`` block array and
    none is the simulator's reserved ``2**32 - 1``.
    """

    def __init__(self, page_bytes: int = 4096) -> None:
        self._next_base = page_bytes  # leave page 0 unused
        self._page = page_bytes
        self.regions: dict[str, Region] = {}

    def region(self, name: str, num_elements: int, element_bytes: int) -> Region:
        """Reserve space for ``num_elements`` items of ``element_bytes`` each."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        size = num_elements * element_bytes
        if self._next_base + size > MAX_BLOCKS * BLOCK_BYTES:
            raise ValueError(
                f"region {name!r} ends past {MAX_BLOCKS} cache blocks "
                f"(block {MAX_BLOCKS} is reserved)"
            )
        region = Region(name, self._next_base, element_bytes)
        self._next_base += (size + self._page - 1) // self._page * self._page + self._page
        self.regions[name] = region
        return region


@dataclass
class MemoryTrace:
    """A run-length-compressed block-granularity access trace.

    Runs merge consecutive accesses with equal ``(block, write, core)``;
    only their total survives, in ``accesses`` (the stream length before
    compression), since the simulators need nothing else from the
    multiplicities.  Arrays of wider dtypes are narrowed (range-checked)
    on construction.
    """

    blocks: np.ndarray  #: uint32 cache-block IDs, one per run
    writes: np.ndarray  #: bool, whether the run is a write
    cores: np.ndarray  #: uint8, simulated core issuing the run
    accesses: int  #: logical accesses represented (before compression)

    def __post_init__(self) -> None:
        self.blocks = narrow(self.blocks, np.uint32, "block ids")
        self.writes = np.ascontiguousarray(self.writes, dtype=np.bool_)
        self.cores = narrow(self.cores, np.uint8, "cores")
        self.accesses = int(self.accesses)
        runs = self.blocks.size
        if self.writes.shape != (runs,) or self.cores.shape != (runs,):
            raise ValueError("blocks, writes and cores must be equal-length 1-D arrays")
        if self.accesses < runs or (runs == 0 and self.accesses):
            raise ValueError(f"{self.accesses} accesses cannot form {runs} runs")

    @property
    def total_accesses(self) -> int:
        """Alias of :attr:`accesses`."""
        return self.accesses

    def __len__(self) -> int:
        return int(self.blocks.size)

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel-ready ``(blocks, writes, cores)``: uint32 / uint8 / uint8.

        No copy is made: bool write flags are byte-sized, so they are
        exported as a ``uint8`` *view* of the same buffer.
        """
        return self.blocks, self.writes.view(np.uint8), self.cores

    def chunks(self, max_runs: int):
        """Stream ``(blocks, writes, cores, accesses)`` chunks of at most
        ``max_runs`` runs.

        The consumer sees the same run sequence as one packed export, and
        the chunks' ``accesses`` sum to the trace's (the first chunk
        carries them all: per-run multiplicities are not stored).
        Chunking only bounds peak memory and gives engines a natural
        progress/instrumentation granularity.
        """
        if max_runs <= 0:
            raise ValueError("max_runs must be positive")
        blocks, writes, cores = self.packed()
        accesses = self.accesses
        for start in range(0, blocks.size, max_runs):
            stop = start + max_runs
            yield blocks[start:stop], writes[start:stop], cores[start:stop], accesses
            accesses = 0


class StreamingTrace:
    """A compressed trace delivered as chunks, never fully materialized.

    ``chunk_factory`` is a zero-argument callable returning an iterator of
    :class:`MemoryTrace` chunks that, concatenated, cover the whole trace
    in time order.  The producer compresses each chunk independently, so
    a run can be split across a chunk seam; :meth:`chunks` re-merges those
    seams by dropping a chunk's first run when it continues the last run
    already yielded (its accesses stay in the total), so each chunk is
    yielded whole, minus at most that run.  Per-chunk compression is
    maximal and seam merges restore the cross-chunk merges, so the
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

    def _emit(self, blocks, writes, cores, accesses):
        self.runs_streamed += int(blocks.size)
        self.accesses_streamed += accesses
        return blocks, writes, cores, accesses

    def chunks(self):
        """Yield packed ``(blocks, writes, cores, accesses)`` chunks.

        Same contract as :meth:`MemoryTrace.chunks`: the concatenation of
        the yielded chunks is the full run-length-compressed trace, and
        their ``accesses`` sum to its access total.
        """
        self.runs_streamed = 0
        self.accesses_streamed = 0
        self.chunks_streamed = 0
        self.peak_chunk_runs = 0
        last = None  # (block, write, core) of the last run yielded
        carried = 0  # accesses of windows that only continued that run
        for chunk in self._factory():
            blocks, writes, cores = chunk.packed()
            carried += chunk.accesses
            if blocks.size == 0:
                continue
            self.chunks_streamed += 1
            self.peak_chunk_runs = max(self.peak_chunk_runs, int(blocks.size))
            # A first run that continues the last run yielded is part of it.
            if (blocks[0], writes[0], cores[0]) == last:
                blocks, writes, cores = blocks[1:], writes[1:], cores[1:]
            if blocks.size:
                last = (blocks[-1], writes[-1], cores[-1])
                yield self._emit(blocks, writes, cores, carried)
                carried = 0
            # Let this chunk go before the factory builds the next one.
            del chunk, blocks, writes, cores
        if carried:
            # The last window only continued the run before it.
            yield self._emit(*_empty_trace().packed(), carried)

    def materialize(self) -> MemoryTrace:
        """Concatenate all chunks into one in-memory :class:`MemoryTrace`.

        The result is run-for-run identical to the trace a monolithic
        build would have produced (the seam merges in :meth:`chunks`
        guarantee it) — used by engines without an incremental entry
        point and by the differential tests.
        """
        parts = list(self.chunks())
        if not parts:
            return _empty_trace()
        return MemoryTrace(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]).view(np.bool_),
            np.concatenate([p[2] for p in parts]),
            sum(p[3] for p in parts),
        )


def _empty_trace() -> MemoryTrace:
    return MemoryTrace(
        np.empty(0, dtype=np.uint32),
        np.empty(0, dtype=np.bool_),
        np.empty(0, dtype=np.uint8),
        0,
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
        # The region's AddressSpace keeps every block id below 2**32 - 1.
        self._blocks.append(region.block_of(indices).astype(np.uint32))
        self._keys.append(keys)
        self._writes.append(np.broadcast_to(np.asarray(write, dtype=bool), indices.shape))
        self._cores.append(np.broadcast_to(narrow(core, np.uint8, "cores"), indices.shape))

    def build(self) -> MemoryTrace:
        """Merge all streams by time key and run-length compress.

        A stable numpy argsort: the oracle the compiled super-step
        generator is tested against.
        """
        if not self._blocks:
            return _empty_trace()
        blocks = np.concatenate(self._blocks)
        keys = np.concatenate(self._keys)
        writes = np.concatenate(self._writes)
        cores = np.concatenate(self._cores)

        order = np.argsort(keys, kind="stable")
        blocks, writes, cores = blocks[order], writes[order], cores[order]

        # Run-length compression: merge consecutive accesses to the same
        # block by the same core with the same read/write kind.
        change = np.empty(blocks.size, dtype=bool)
        change[:1] = True
        change[1:] = (
            (blocks[1:] != blocks[:-1])
            | (writes[1:] != writes[:-1])
            | (cores[1:] != cores[:-1])
        )
        boundaries = np.flatnonzero(change)
        return MemoryTrace(
            blocks[boundaries], writes[boundaries], cores[boundaries], blocks.size
        )


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
