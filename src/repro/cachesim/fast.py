"""Fast-path simulation engine: compiled kernel + chunked trace streaming.

The reference loop in :mod:`repro.cachesim.hierarchy` is a per-access
Python interpreter loop (~0.7 M runs/s).  Because the hierarchy state is a
sequential recurrence over a handful of tiny sets, no amount of numpy
broadcasting removes the per-access dependency — so the fast path instead
compiles an exact C port of the same loop (``_fastsim.c``, shipped next to
this module) on first use and drives it through :mod:`ctypes` over the
run-length-compressed trace's own uint32 block / uint8 write / uint8 core
arrays, streamed in fixed-size chunks (:meth:`MemoryTrace.chunks`) that
carry the trace's access total alongside.  The kernel's dirty-line
directory is a dense per-block index grown per chunk, and so is the GRASP
hot-flag array when a hot set is installed.  Each cache set is a
fixed-width array of ``ways`` tags, live lines packed at the top and the
slots below them holding the reserved id ``2**32 - 1``; the step
loop is compiled once with the 2/4/8 associativities of the default
hierarchy folded in and once with runtime ones.  The kernel is ~60x the
reference on the microbench trace (``BENCH_cachesim.json``) and is
verified counter-for-counter identical by the equivalence property
tests.

Building, caching (by source hash under ``REPRO_KERNEL_DIR``) and
load-state memoization are shared with the trace-pipeline kernels through
:mod:`repro._compile`.  Engine availability is environmental (a C
compiler must be on ``PATH``); ``fast_available()`` reports it and the
``auto`` engine in :func:`repro.cachesim.hierarchy.simulate_trace` falls
back to the reference loop when the kernel cannot be built.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._compile import KernelUnavailable, LazyKernel, kernel_build_dir
from repro.cachesim.policies import get_policy
from repro.framework.trace import MAX_BLOCKS, MemoryTrace

__all__ = [
    "KernelUnavailable",
    "fast_available",
    "kernel_unavailable_reason",
    "simulate_trace_fast",
    "FastSimulator",
    "DEFAULT_CHUNK_RUNS",
]

#: Runs per kernel call; bounds peak packed-chunk memory and gives the
#: instrumentation layer a progress granularity on huge traces.
DEFAULT_CHUNK_RUNS = 1 << 20


def _source_path() -> Path:
    return Path(__file__).with_name("_fastsim.c")


_U32 = ctypes.POINTER(ctypes.c_uint32)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _configure(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    p64 = ctypes.POINTER(ctypes.c_int64)
    lib.repro_sim_create.argtypes = [i64] * 8 + [ctypes.c_int32]
    lib.repro_sim_create.restype = ctypes.c_void_p
    lib.repro_sim_set_hot.argtypes = [ctypes.c_void_p, p64, i64]
    lib.repro_sim_set_hot.restype = ctypes.c_int32
    lib.repro_sim_step.argtypes = [ctypes.c_void_p, _U32, _U8, _U8, i64, i64]
    lib.repro_sim_step.restype = ctypes.c_int32
    lib.repro_sim_counters.argtypes = [ctypes.c_void_p, p64]
    lib.repro_sim_counters.restype = None
    lib.repro_sim_destroy.argtypes = [ctypes.c_void_p]
    lib.repro_sim_destroy.restype = None


_KERNEL = LazyKernel(_source_path(), "fastsim", _configure)


def _load_kernel() -> ctypes.CDLL:
    """Build (once) and load the kernel; caches success *and* failure."""
    return _KERNEL.load()


def fast_available() -> bool:
    """Whether the compiled engine can be used in this environment."""
    return _KERNEL.available()


def kernel_unavailable_reason() -> str | None:
    """Why ``fast_available()`` is False (``None`` when it is True)."""
    return _KERNEL.unavailable_reason()


def _reset_kernel_cache() -> None:
    """Forget the cached load result (test hook)."""
    _KERNEL.reset()


class FastSimulator:
    """One kernel instance bound to a hierarchy configuration.

    State persists across :meth:`step` calls, so a trace can be streamed
    chunk by chunk; :meth:`stats` snapshots the counters at any point.
    Use as a context manager (or call :meth:`close`) to release the
    C-side allocation.
    """

    def __init__(self, config, hot_blocks=None) -> None:
        from repro.cachesim.hierarchy import HierarchyConfig

        if not isinstance(config, HierarchyConfig):
            raise TypeError(f"expected HierarchyConfig, got {type(config).__name__}")
        policy = get_policy(config.replacement, context="HierarchyConfig.replacement")
        cap = config.effective_ownership_blocks
        if not 0 <= cap < 2**31 - 2:
            raise ValueError(f"ownership capacity {cap} out of kernel range")
        if config.cores_per_socket == 0:
            raise ValueError("cores_per_socket must be non-zero")
        self._lib = _load_kernel()
        self.config = config
        self._handle = self._lib.repro_sim_create(
            config.l1.num_sets,
            config.l1.associativity,
            config.l2.num_sets,
            config.l2.associativity,
            config.l3.num_sets,
            config.l3.associativity,
            config.cores_per_socket,
            cap,
            policy.code,
        )
        if not self._handle:
            raise MemoryError("kernel state allocation failed")
        if hot_blocks is not None:
            self.set_hot_blocks(hot_blocks)

    def set_hot_blocks(self, hot_blocks) -> None:
        """Install the hot-block classification for skew-aware policies.

        Accepts any int sequence; the kernel keeps a sorted private copy
        (an empty sequence clears the classification, making every block
        cold).  Call between :meth:`step` calls, not during one.
        """
        if self._handle is None:
            raise RuntimeError("simulator is closed")
        blocks = np.unique(np.asarray(hot_blocks, dtype=np.int64))
        rc = self._lib.repro_sim_set_hot(
            self._handle,
            blocks.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            blocks.size,
        )
        if rc != 0:
            raise MemoryError("kernel could not allocate the hot-block set")

    def __enter__(self) -> "FastSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if getattr(self, "_handle", None):
            self._lib.repro_sim_destroy(self._handle)
            self._handle = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def step(self, blocks, writes, cores, accesses) -> None:
        """Feed one packed chunk (as produced by ``MemoryTrace.chunks``).

        ``blocks``/``writes``/``cores`` are contiguous uint32/uint8/uint8
        arrays of equal length; ``accesses`` is the chunk's share of the
        trace's access total.  A chunk holding block id ``2**32 - 1``
        (:data:`~repro.framework.trace.MAX_BLOCKS`, the kernel's empty-slot
        tag) raises ``ValueError`` and changes no state.
        """
        if self._handle is None:
            raise RuntimeError("simulator is closed")
        n = blocks.size
        if not (
            blocks.dtype == np.uint32
            and writes.dtype == cores.dtype == np.uint8
            and writes.size == cores.size == n
            and blocks.flags.c_contiguous
            and writes.flags.c_contiguous
            and cores.flags.c_contiguous
        ):
            raise ValueError("step takes equal-length contiguous uint32/uint8/uint8 arrays")
        rc = self._lib.repro_sim_step(
            self._handle,
            blocks.ctypes.data_as(_U32),
            writes.ctypes.data_as(_U8),
            cores.ctypes.data_as(_U8),
            n,
            accesses,
        )
        if rc == -2:
            raise ValueError(f"block id {MAX_BLOCKS} is reserved for empty way slots")
        if rc != 0:
            raise MemoryError("kernel ran out of memory while simulating")

    def stats(self):
        """Current counters as a :class:`repro.cachesim.hierarchy.CacheStats`."""
        from repro.cachesim.hierarchy import CacheStats

        if self._handle is None:
            raise RuntimeError("simulator is closed")
        out = (ctypes.c_int64 * 8)()
        self._lib.repro_sim_counters(
            self._handle, ctypes.cast(out, ctypes.POINTER(ctypes.c_int64))
        )
        stats = CacheStats(
            accesses=out[0], l1_misses=out[1], l2_misses=out[2], l3_misses=out[3]
        )
        stats.l2_miss_breakdown.update(
            l3_hit=out[4], snoop_local=out[5], snoop_remote=out[6], offchip=out[7]
        )
        return stats


def simulate_trace_fast(
    trace: MemoryTrace,
    config,
    chunk_runs: int = DEFAULT_CHUNK_RUNS,
    hot_blocks=None,
):
    """Run a full trace through the compiled engine; returns CacheStats.

    ``hot_blocks`` is the static hot-block classification for skew-aware
    policies.
    Raises :class:`KernelUnavailable` when the kernel cannot be built;
    callers wanting a fallback should use
    :func:`repro.cachesim.simulate_trace` with the ``auto`` engine.
    """
    with FastSimulator(config, hot_blocks=hot_blocks) as sim:
        for chunk in trace.chunks(chunk_runs):
            sim.step(*chunk)
        return sim.stats()
