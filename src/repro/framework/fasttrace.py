"""Fast-path trace-construction engines: compiled kernels + dispatch.

PR 1 made the cache simulator compiled-fast, which moved every grid
cell's hot path upstream into pure-numpy trace construction: ragged CSR
gathers, the global float64 ``argsort`` over all keyed streams in
:meth:`~repro.framework.trace.TraceBuilder.build`, run-length
compression, and the per-vertex Python heap loop in Gorder.  This module
extends the same compiled-engine pattern (shared build machinery in
:mod:`repro._compile`) to those kernels via ``_fasttrace.c``:

* :func:`ragged_gather` — CSR range expansion behind
  :meth:`repro.apps.base.GraphApp._gather` and ``edge_map``'s
  ``gather_out``/``gather_in``;
* :func:`superstep_sizes` / :func:`superstep_trace_fast` — one traced
  super-step's keyed streams (what
  :meth:`repro.apps.base.GraphApp._trace_pull` / ``_trace_push`` build
  in numpy) generated in C straight from the CSR in trace order, one
  interleave quantum at a time, and run-length-compressed into the
  outputs, with no per-edge Python array, key buffer or merge in
  between, whole for :meth:`GraphApp.trace
  <repro.apps.base.GraphApp.trace>` or by window of quanta for
  :meth:`GraphApp.trace_streaming
  <repro.apps.base.GraphApp.trace_streaming>`;
* :func:`gorder_place_fast` — the Gorder greedy placement loop.

Every kernel is bit-identical to its numpy/Python reference (the
equivalence suites enforce it) for all finite keys; dispatch follows the
cache simulator's contract: ``auto`` (kernel when a C compiler is
available, else reference), ``fast`` (kernel or error) or ``reference``,
selectable per call and campaign-wide via ``REPRO_TRACE_ENGINE``.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._compile import KernelUnavailable, LazyKernel

__all__ = [
    "KernelUnavailable",
    "resolve_trace_engine",
    "fast_available",
    "kernel_unavailable_reason",
    "ragged_gather",
    "superstep_sizes",
    "superstep_trace_fast",
    "gorder_place_fast",
]

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U32 = ctypes.POINTER(ctypes.c_uint32)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _configure(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    lib.repro_gather.argtypes = [_I64, _I32, _I64, i64, _I64, _I64, _I64]
    lib.repro_gather.restype = None
    lib.repro_gorder.argtypes = [
        _I64,
        _I32,
        _I64,
        _I32,
        i64,
        i64,
        ctypes.c_double,
        i64,
        _I64,
    ]
    lib.repro_gorder.restype = ctypes.c_int32
    # Both super-step entry points start with the same ten arguments
    # (see _superstep_args).
    step = [_I64, _I64, i64, i32, _I64, i64, i64, i64, i64, i64]
    lib.repro_superstep_count.argtypes = [*step, _I64]
    lib.repro_superstep_count.restype = None
    lib.repro_superstep_trace.argtypes = [*step, _I32, _U8, _I64, _U32, _U8, _U8]
    lib.repro_superstep_trace.restype = i64


# -ffp-contract=off: the super-step generator must round every key
# operation exactly as numpy does, never through a fused multiply-add.
_KERNEL = LazyKernel(
    Path(__file__).with_name("_fasttrace.c"),
    "fasttrace",
    _configure,
    flags=("-ffp-contract=off",),
)


def resolve_trace_engine(engine: str | None = None) -> str:
    """Pick the engine: explicit arg > ``REPRO_TRACE_ENGINE`` > auto.

    Delegates to the unified registry (:func:`repro.engines.resolve`,
    domain ``"trace"``); unknown values raise, never fall back silently.
    """
    from repro import engines

    return engines.resolve("trace", engine)


def fast_available() -> bool:
    """Whether the compiled trace kernels can be used in this environment."""
    return _KERNEL.available()


def kernel_unavailable_reason() -> str | None:
    """Why ``fast_available()`` is False (``None`` when it is True)."""
    return _KERNEL.unavailable_reason()


def _reset_kernel_cache() -> None:
    """Forget the cached load result (test hook)."""
    _KERNEL.reset()


def use_fast(engine: str | None = None) -> bool:
    """Resolve dispatch: True to run the kernel, False for the reference.

    Raises :class:`KernelUnavailable` when ``fast`` is requested
    explicitly but the kernel cannot be built.
    """
    choice = resolve_trace_engine(engine)
    if choice == "reference":
        return False
    if choice == "fast":
        _KERNEL.load()  # raise with the real reason when unavailable
        return True
    return fast_available()


# ---------------------------------------------------------------- gather


def _ragged_gather_reference(offsets, endpoints, ids):
    starts = offsets[ids]
    lengths = (offsets[ids + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return lengths, empty, empty, empty
    seg_starts = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - seg_starts, lengths) + np.arange(total)
    others = endpoints[positions].astype(np.int64)
    repeats = np.repeat(ids, lengths)
    return lengths, positions, others, repeats


def _ragged_gather_fast(offsets, endpoints, ids):
    lib = _KERNEL.load()
    lengths = (offsets[ids + 1] - offsets[ids]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return lengths, empty, empty, empty
    positions = np.empty(total, dtype=np.int64)
    others = np.empty(total, dtype=np.int64)
    repeats = np.empty(total, dtype=np.int64)
    lib.repro_gather(
        offsets.ctypes.data_as(_I64),
        endpoints.ctypes.data_as(_I32),
        ids.ctypes.data_as(_I64),
        ids.size,
        positions.ctypes.data_as(_I64),
        others.ctypes.data_as(_I64),
        repeats.ctypes.data_as(_I64),
    )
    return lengths, positions, others, repeats


def ragged_gather(
    offsets: np.ndarray,
    endpoints: np.ndarray,
    ids: np.ndarray,
    engine: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand the CSR ranges of ``ids``, in order.

    Returns ``(lengths, positions, others, repeats)``: per-id range
    lengths, each edge's index into the edge array, its endpoint, and the
    id it belongs to (``np.repeat(ids, lengths)``).  Engines are
    element-for-element identical.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    endpoints = np.ascontiguousarray(endpoints, dtype=np.int32)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if use_fast(engine):
        return _ragged_gather_fast(offsets, endpoints, ids)
    return _ragged_gather_reference(offsets, endpoints, ids)


def _compressed_prefix(runs, n, out_blocks, out_writes, out_cores):
    """The ``runs``-long trace the kernel left in its ``n``-entry outputs."""
    if runs < 0:
        raise MemoryError("super-step trace kernel ran out of memory")
    outputs = (out_blocks[:runs], out_writes[:runs].view(np.bool_), out_cores[:runs])
    if 2 * runs >= n:
        # Light compression: slicing views keeps at most ~2x the payload
        # resident and skips a full output copy.
        return outputs
    return tuple(out.copy() for out in outputs)


# ---------------------------------------------------- super-step streams

#: Slots of :func:`superstep_sizes` after the entry counts of the E (edge
#: array), W (weights), P (property), V (vertex array) and O (output
#: property) streams: the super-step's edge count and its number of
#: interleave quanta.
SUPERSTEP_EDGES = 5
SUPERSTEP_QUANTA = 6

_INT64_MAX = np.iinfo(np.int64).max


def _superstep_args(offsets, ids, geometry, push, num_cores, quantum, window):
    """Checked arguments of one super-step window, as both kernel entry
    points take them, and the int64 ``offsets`` they point into.

    The generator sizes its block-transition streams assuming elements
    at most a cache block wide; ids index ``offsets`` unchecked.
    """
    from repro.framework.trace import BLOCK_BYTES, MAX_CORES

    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if ids is not None:
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        # One pass: negative ids wrap to huge unsigned values.
        if ids.size and ids.view(np.uint64).max() >= offsets.size - 1:
            raise ValueError("active vertex ids must be in [0, num_vertices)")
    geometry = np.ascontiguousarray(geometry, dtype=np.int64)
    if geometry.shape != (5, 2) or geometry[:, 1].max() > BLOCK_BYTES:
        raise ValueError("geometry must be 5 (base, element_bytes <= 64) pairs")
    if not 1 <= num_cores <= MAX_CORES:
        raise ValueError(f"num_cores must lie in [1, {MAX_CORES}]")
    if quantum < 1:
        raise ValueError("quantum must be positive")
    q0, q1 = window
    if q0 < 0 or (q1 is not None and q1 < q0):
        raise ValueError("window [q0, q1) needs 0 <= q0 <= q1")
    args = (
        offsets.ctypes.data_as(_I64),
        None if ids is None else ids.ctypes.data_as(_I64),
        offsets.size - 1 if ids is None else ids.size,
        int(push),
        geometry.ctypes.data_as(_I64),
        offsets.size - 1,
        num_cores,
        quantum,
        min(q0, _INT64_MAX),
        _INT64_MAX if q1 is None else min(q1, _INT64_MAX),
    )
    return args, offsets


def superstep_sizes(
    offsets, ids, geometry, push: bool, num_cores: int, quantum: int,
    window=(0, None),
) -> np.ndarray:
    """Stream sizes of one super-step window, in O(ids) (kernel counting
    pass).

    ``offsets`` is the traversed CSR's offset array, ``ids`` the active
    vertices in iteration order (``None``: all of them) and ``geometry``
    the int64 ``(base, element_bytes)`` pairs of the vertex, edge,
    property, output-property and weight regions (weights ``(0, 0)``: no
    weight stream), elements at most a cache block wide.  ``push``,
    ``num_cores`` and ``quantum`` fix the interleave, and ``window`` the
    quanta ``[q0, q1)`` kept (``q1`` ``None``: all from ``q0``).  Returns
    int64 ``[E, W, P, V, O, edges, quanta]``: the window's entries per
    stream, then the whole super-step's edge and quantum counts; it sizes
    :func:`superstep_trace_fast`'s call on the same arguments.
    """
    lib = _KERNEL.load()
    args, _ = _superstep_args(offsets, ids, geometry, push, num_cores, quantum, window)
    sizes = np.zeros(SUPERSTEP_QUANTA + 1, dtype=np.int64)
    lib.repro_superstep_count(*args, sizes.ctypes.data_as(_I64))
    return sizes


def superstep_trace_fast(
    offsets,
    endpoints,
    ids,
    geometry,
    sizes,
    push: bool,
    num_cores: int,
    quantum: int,
    write_mask=None,
    window=(0, None),
):
    """One super-step window's trace, generated in trace order in C.

    Produces exactly what :class:`~repro.framework.trace.TraceBuilder`
    builds from the entries of quanta ``window`` in the streams
    :meth:`repro.apps.base.GraphApp._trace_pull` / ``_trace_push`` add
    (all of them for the default window).  Quanta own disjoint key
    ranges, so the kernel builds the trace one quantum ("slice") at a
    time: it generates the slice's keyed E, [W], P, V, O entries straight
    from the CSR in nearly sorted order, moves the few that rounding
    leaves out of place with a stable insertion on (key, stream) — the
    builder's stable order — and run-length-compresses the slice into
    outputs sized from ``sizes`` (:func:`superstep_sizes` on the same
    arguments).  The traces of a partition of the quanta concatenate,
    seams re-merged by :class:`~repro.framework.trace.StreamingTrace`,
    to the whole trace.  ``write_mask`` (push only) flags, per
    super-step edge, which property accesses write; without it a push
    writes them all and a pull none.  ``num_cores`` must fit the trace's
    uint8 cores.  Returns the :class:`MemoryTrace
    <repro.framework.trace.MemoryTrace>` fields ``(blocks, writes,
    cores, accesses)``.
    """
    lib = _KERNEL.load()
    args, offsets = _superstep_args(
        offsets, ids, geometry, push, num_cores, quantum, window
    )
    endpoints = np.ascontiguousarray(endpoints, dtype=np.int32)
    if endpoints.size != offsets[-1]:
        raise ValueError("endpoints must hold one entry per CSR edge")
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    if sizes.shape != (SUPERSTEP_QUANTA + 1,):
        raise ValueError("sizes must come from superstep_sizes")
    if write_mask is not None:
        write_mask = np.ascontiguousarray(write_mask, dtype=np.bool_).view(np.uint8)
        if write_mask.size != sizes[SUPERSTEP_EDGES]:
            raise ValueError("write_mask must have one entry per super-step edge")
    n = int(sizes[:SUPERSTEP_EDGES].sum())
    out_blocks = np.empty(n, dtype=np.uint32)
    out_writes = np.empty(n, dtype=np.uint8)
    out_cores = np.empty(n, dtype=np.uint8)
    runs = lib.repro_superstep_trace(
        *args,
        endpoints.ctypes.data_as(_I32),
        None if write_mask is None else write_mask.ctypes.data_as(_U8),
        sizes.ctypes.data_as(_I64),
        out_blocks.ctypes.data_as(_U32),
        out_writes.ctypes.data_as(_U8),
        out_cores.ctypes.data_as(_U8),
    )
    if runs == -2:
        raise ValueError("sizes do not match the super-step inputs")
    return (*_compressed_prefix(runs, n, out_blocks, out_writes, out_cores), n)


# ----------------------------------------------------------------- gorder


def gorder_place_fast(graph, window: int, hub_cap: float, start: int) -> np.ndarray:
    """Gorder placement order via the compiled kernel.

    Returns the placement order (old vertex ids in placement sequence),
    identical to the Python heap loop in
    :meth:`repro.reorder.gorder.Gorder.compute_mapping`.  Raises
    :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = graph.num_vertices
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return order
    out_offsets = np.ascontiguousarray(graph.out_offsets, dtype=np.int64)
    out_targets = np.ascontiguousarray(graph.out_targets, dtype=np.int32)
    in_offsets = np.ascontiguousarray(graph.in_offsets, dtype=np.int64)
    in_sources = np.ascontiguousarray(graph.in_sources, dtype=np.int32)
    rc = lib.repro_gorder(
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        in_offsets.ctypes.data_as(_I64),
        in_sources.ctypes.data_as(_I32),
        n,
        int(window),
        float(hub_cap),
        int(start),
        order.ctypes.data_as(_I64),
    )
    if rc != 0:
        raise MemoryError("gorder kernel ran out of memory")
    return order
