"""Fast-path graph engines: compiled kernels + dispatch.

The graph layer's compiled kernels live in ``_fastgraph.c`` (built
through the shared machinery in :mod:`repro._compile`).  Two rebuild
the CSR, which a cold grid cell otherwise spends two O(E log E) stable
``argsort`` passes on per technique per dataset:

* :func:`relabel_arrays` — permutation relabel: scatter each old
  vertex's edge block straight into the slot range its new id owns
  (offsets prefix-summed from permuted degree counts), fusing the
  reference's ``edge_array`` expansion, mapping gather and both stable
  sorts into one O(E) pass;
* :func:`build_csr_arrays` — dual-CSR build from parallel edge arrays:
  a stable counting-sort placement replacing both stable ``argsort``
  calls in :func:`repro.graph.csr._build_dual_csr`; it reads strided
  columns in place and range-checks the endpoints in its counting pass.

Both preserve the canonical-representation guarantee: the in-CSR is
derived from the out-CSR edge order exactly as the reference's stable
by-target sort does.  Three more run one round of an application plan
(:meth:`GraphApp.plan`) straight over the CSR, where the numpy
references scatter through per-edge index arrays built every round:

* :func:`pull_sum` — PageRank: a float64 sum per vertex over its
  in-neighbours (reference: ``np.bincount``);
* :func:`pull_or` — Radii: the same loop with a uint64 OR (reference:
  ``np.bitwise_or.at``);
* :func:`push_sum` — PageRank-Delta: the active sources, in ascending
  id order, add their value to every out-neighbour (reference: a
  ``np.bincount`` over the edges the active mask keeps).

Every kernel is bit-identical to its numpy reference (the equivalence
suite and the plan pins enforce it; ``_fastgraph.c`` gives the
addition-order argument for the sums).  The plan wrappers take a
:class:`CheckedCSR`, whose constructor validates the offsets and ids
once per run under either engine; each round checks its values and the
active order before any kernel runs.  Dispatch follows the
simulator/trace contract: ``auto`` (kernel when a C compiler is
available, else reference), ``fast`` (kernel or error) or ``reference``,
selectable per call and campaign-wide via ``REPRO_GRAPH_ENGINE``.

This module deliberately traffics in raw CSR arrays, not
:class:`~repro.graph.csr.Graph` instances, so :mod:`repro.graph.csr`
can dispatch to it without a circular import.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._compile import KernelUnavailable, LazyKernel

__all__ = [
    "KernelUnavailable",
    "resolve_graph_engine",
    "fast_available",
    "kernel_unavailable_reason",
    "use_fast",
    "relabel_arrays",
    "build_csr_arrays",
    "CheckedCSR",
    "pull_sum",
    "pull_or",
    "push_sum",
]

_F64 = ctypes.POINTER(ctypes.c_double)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)


def _configure(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    lib.repro_relabel.argtypes = [
        _I64, _I32, _F64, _I32, i64, _I64, _I32, _F64, _I64, _I32, _F64,
    ]
    lib.repro_relabel.restype = i32
    lib.repro_build_csr.argtypes = [
        _I64, i64, _I64, i64, _F64, i64, i64, _I64, _I32, _F64, _I64, _I32, _F64,
    ]
    lib.repro_build_csr.restype = i32
    lib.repro_pull_sum.argtypes = [_I64, _I32, _F64, i64, _F64]
    lib.repro_pull_sum.restype = None
    lib.repro_pull_or.argtypes = [_I64, _I32, _U64, i64, _U64]
    lib.repro_pull_or.restype = None
    lib.repro_push_sum.argtypes = [_I64, _I32, _F64, _I64, i64, _F64]
    lib.repro_push_sum.restype = None


_KERNEL = LazyKernel(Path(__file__).with_name("_fastgraph.c"), "fastgraph", _configure)


def resolve_graph_engine(engine: str | None = None) -> str:
    """Pick the engine: explicit arg > ``REPRO_GRAPH_ENGINE`` > auto.

    Delegates to the unified registry (:func:`repro.engines.resolve`,
    domain ``"graph"``); unknown values raise, never fall back silently.
    """
    from repro import engines

    return engines.resolve("graph", engine)


def fast_available() -> bool:
    """Whether the compiled graph kernels can be used in this environment."""
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
    choice = resolve_graph_engine(engine)
    if choice == "reference":
        return False
    if choice == "fast":
        _KERNEL.load()  # raise with the real reason when unavailable
        return True
    return fast_available()


def _null(ptr_type):
    return ctypes.cast(None, ptr_type)


def relabel_arrays(
    out_offsets: np.ndarray,
    out_targets: np.ndarray,
    out_weights: np.ndarray | None,
    mapping: np.ndarray,
) -> tuple:
    """Relabelled dual-CSR arrays under a (pre-validated) permutation.

    Returns ``(out_offsets, out_targets, in_offsets, in_sources,
    out_weights, in_weights)`` byte-identical to what the numpy
    reference in :meth:`Graph.relabel` produces.  ``mapping`` must be a
    validated permutation — the kernel scatters through it unchecked.
    Raises :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = int(out_offsets.size - 1)
    num_edges = int(out_targets.size)
    out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
    out_targets = np.ascontiguousarray(out_targets, dtype=np.int32)
    mapping = np.ascontiguousarray(mapping, dtype=np.int32)
    new_out_offsets = np.empty(n + 1, dtype=np.int64)
    new_out_targets = np.empty(num_edges, dtype=np.int32)
    new_in_offsets = np.empty(n + 1, dtype=np.int64)
    new_in_sources = np.empty(num_edges, dtype=np.int32)
    if out_weights is not None:
        out_weights = np.ascontiguousarray(out_weights, dtype=np.float64)
        new_out_weights = np.empty(num_edges, dtype=np.float64)
        new_in_weights = np.empty(num_edges, dtype=np.float64)
        w_in = out_weights.ctypes.data_as(_F64)
        w_out = new_out_weights.ctypes.data_as(_F64)
        w_in_csr = new_in_weights.ctypes.data_as(_F64)
    else:
        new_out_weights = new_in_weights = None
        w_in = w_out = w_in_csr = _null(_F64)
    rc = lib.repro_relabel(
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        w_in,
        mapping.ctypes.data_as(_I32),
        n,
        new_out_offsets.ctypes.data_as(_I64),
        new_out_targets.ctypes.data_as(_I32),
        w_out,
        new_in_offsets.ctypes.data_as(_I64),
        new_in_sources.ctypes.data_as(_I32),
        w_in_csr,
    )
    if rc != 0:
        raise MemoryError("relabel kernel ran out of memory")
    return (
        new_out_offsets,
        new_out_targets,
        new_in_offsets,
        new_in_sources,
        new_out_weights,
        new_in_weights,
    )


def build_csr_arrays(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
) -> tuple:
    """Dual-CSR arrays built from parallel edge-endpoint arrays.

    Returns ``(out_offsets, out_targets, in_offsets, in_sources,
    out_weights, in_weights)`` byte-identical to the stable numpy path
    of :func:`repro.graph.csr._build_dual_csr`.  ``src`` and ``dst`` may
    be strided int64 views, such as the columns of an ``(E, 2)`` array:
    the kernel reads them in place.  Its counting pass range-checks every
    endpoint before scattering through any; an endpoint outside
    ``[0, num_vertices)`` raises ``ValueError``.  Raises
    :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = int(num_vertices)
    src, src_stride = _int64_column(src)
    dst, dst_stride = _int64_column(dst)
    num_edges = int(src.size)
    out_offsets = np.empty(n + 1, dtype=np.int64)
    out_targets = np.empty(num_edges, dtype=np.int32)
    in_offsets = np.empty(n + 1, dtype=np.int64)
    in_sources = np.empty(num_edges, dtype=np.int32)
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        out_weights = np.empty(num_edges, dtype=np.float64)
        in_weights = np.empty(num_edges, dtype=np.float64)
        w_in = weights.ctypes.data_as(_F64)
        w_out = out_weights.ctypes.data_as(_F64)
        w_in_csr = in_weights.ctypes.data_as(_F64)
    else:
        out_weights = in_weights = None
        w_in = w_out = w_in_csr = _null(_F64)
    rc = lib.repro_build_csr(
        src.ctypes.data_as(_I64),
        src_stride,
        dst.ctypes.data_as(_I64),
        dst_stride,
        w_in,
        num_edges,
        n,
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        w_out,
        in_offsets.ctypes.data_as(_I64),
        in_sources.ctypes.data_as(_I32),
        w_in_csr,
    )
    if rc == -2:
        raise ValueError("edge endpoint out of range")
    if rc != 0:
        raise MemoryError("CSR-build kernel ran out of memory")
    return out_offsets, out_targets, in_offsets, in_sources, out_weights, in_weights


def _int64_column(values) -> tuple[np.ndarray, int]:
    """``values`` as a 1-D int64 array the kernel reads in place, with its
    stride in elements: a view when it already is one, else a copy."""
    values = np.asarray(values)
    stride = values.strides[0] if values.ndim == 1 else 0
    if values.dtype == np.int64 and stride > 0 and stride % 8 == 0:
        return values, stride // 8
    return np.ascontiguousarray(values, dtype=np.int64).reshape(-1), 1


# -- plan kernels -------------------------------------------------------------
class CheckedCSR:
    """One CSR side, validated once for every round that reads it.

    The plan kernels index through every offset and id unchecked, so a
    bad array must fail here, under either engine (numpy would silently
    wrap a negative id).  An application builds one view per run and
    passes it to each round's :func:`pull_sum` / :func:`pull_or` /
    :func:`push_sum`, which then check only the per-round values.  The
    view keeps the arrays it was given (no copy when they are already
    contiguous int64 offsets and int32 ids), so they must not change
    while it is in use; no plan round writes to its graph's CSR.
    """

    __slots__ = ("offsets", "ids", "num_vertices")

    def __init__(self, offsets: np.ndarray, ids: np.ndarray) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        ids = np.asarray(ids)
        n = offsets.size - 1
        if n < 0 or offsets[0] != 0 or offsets[-1] != ids.size:
            raise ValueError("CSR offsets must run from 0 to the number of edges")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("CSR offsets must be non-decreasing")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("CSR vertex id out of range")
        self.offsets = offsets
        self.ids = np.ascontiguousarray(ids, dtype=np.int32)
        self.num_vertices = n

    def values(self, values: np.ndarray, dtype) -> np.ndarray:
        """``values`` as a contiguous ``dtype`` array, one per vertex."""
        values = np.ascontiguousarray(values, dtype=dtype)
        if values.shape != (self.num_vertices,):
            raise ValueError(
                f"expected one value per vertex ({self.num_vertices}), "
                f"got {values.shape}"
            )
        return values


def pull_sum(
    csr: CheckedCSR, values: np.ndarray, engine: str | None = None
) -> np.ndarray:
    """``out[v]`` = float64 sum of ``values[u]`` over v's in-neighbours u.

    One PageRank round over the in-CSR ``csr``.  The reference is
    ``np.bincount`` over the per-edge target index, which adds in in-CSR
    order from 0.0; the kernel sums each slice in that same order, so
    the result is bit-identical.
    """
    values = csr.values(values, np.float64)
    offsets, sources, n = csr.offsets, csr.ids, csr.num_vertices
    if not use_fast(engine):
        dst_index = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        pulled = np.bincount(dst_index, weights=values[sources], minlength=n)
        return pulled.astype(np.float64, copy=False)  # int64 with no edges
    out = np.empty(n, dtype=np.float64)
    _KERNEL.load().repro_pull_sum(
        offsets.ctypes.data_as(_I64),
        sources.ctypes.data_as(_I32),
        values.ctypes.data_as(_F64),
        n,
        out.ctypes.data_as(_F64),
    )
    return out


def pull_or(
    csr: CheckedCSR, values: np.ndarray, engine: str | None = None
) -> np.ndarray:
    """``out[v]`` = uint64 OR of ``values[u]`` over v's in-neighbours u.

    One Radii round over the in-CSR ``csr``; the reference is
    ``np.bitwise_or.at`` over the per-edge target index.
    """
    values = csr.values(values, np.uint64)
    offsets, sources, n = csr.offsets, csr.ids, csr.num_vertices
    if not use_fast(engine):
        dst_index = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        src_index = sources.astype(np.int64)
        pulled = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(pulled, dst_index, values[src_index])
        return pulled
    out = np.empty(n, dtype=np.uint64)
    _KERNEL.load().repro_pull_or(
        offsets.ctypes.data_as(_I64),
        sources.ctypes.data_as(_I32),
        values.ctypes.data_as(_U64),
        n,
        out.ctypes.data_as(_U64),
    )
    return out


def push_sum(
    csr: CheckedCSR,
    values: np.ndarray,
    active: np.ndarray,
    engine: str | None = None,
) -> np.ndarray:
    """``out[t]`` = float64 sum of ``values[s]`` over out-edges (s, t), s active.

    One PageRank-Delta round over the out-CSR ``csr``.  ``active`` must
    be strictly increasing.  The reference is a ``np.bincount`` over the
    edges kept by the active mask, in edge order, which is ascending by
    source; the kernel walks the active sources in that order, so the
    result is bit-identical.
    """
    values = csr.values(values, np.float64)
    offsets, targets, n = csr.offsets, csr.ids, csr.num_vertices
    active = np.ascontiguousarray(active, dtype=np.int64)
    if active.ndim != 1:
        raise ValueError("active ids must be one-dimensional")
    if active.size and (active[0] < 0 or active[-1] >= n):
        raise ValueError("active vertex id out of range")
    if np.any(active[1:] <= active[:-1]):
        raise ValueError("active vertex ids must be strictly increasing")
    if not use_fast(engine):
        mask = np.zeros(n, dtype=bool)
        mask[active] = True
        src_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        keep = mask[src_all]
        pushed = np.bincount(targets[keep], weights=values[src_all[keep]], minlength=n)
        return pushed.astype(np.float64, copy=False)  # int64 with no edges
    out = np.zeros(n, dtype=np.float64)
    _KERNEL.load().repro_push_sum(
        offsets.ctypes.data_as(_I64),
        targets.ctypes.data_as(_I32),
        values.ctypes.data_as(_F64),
        active.ctypes.data_as(_I64),
        active.size,
        out.ctypes.data_as(_F64),
    )
    return out
