"""Trace-kernel equivalence and dispatch tests.

The compiled gather kernel must be *bit-identical* to its numpy
reference on any input — the contract that lets every trace
producer switch engines transparently (mirroring the cache simulator's
equivalence suite in ``tests/cachesim/test_fast_engine.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import fasttrace
from repro.framework.fasttrace import (
    KernelUnavailable,
    fast_available,
    ragged_gather,
    resolve_trace_engine,
)
from repro.framework.trace import AddressSpace, TraceBuilder

needs_kernel = pytest.mark.skipif(
    not fast_available(), reason="no C compiler for the trace kernels"
)


@st.composite
def csr_and_ids(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 9, size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    endpoints = rng.integers(0, n, size=int(offsets[-1])).astype(np.int32)
    num_ids = draw(st.integers(min_value=0, max_value=n))
    ids = rng.permutation(n)[:num_ids].astype(np.int64)
    return offsets, endpoints, ids


@needs_kernel
class TestGatherEquivalence:
    @given(csr_and_ids())
    @settings(max_examples=80, deadline=None)
    def test_fast_matches_reference(self, data):
        offsets, endpoints, ids = data
        ref = fasttrace._ragged_gather_reference(offsets, endpoints, ids)
        fast = fasttrace._ragged_gather_fast(offsets, endpoints, ids)
        for name, a, b in zip(("lengths", "positions", "others", "repeats"), ref, fast):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_empty_ids(self):
        offsets = np.array([0, 2, 3], dtype=np.int64)
        endpoints = np.array([1, 0, 0], dtype=np.int32)
        ids = np.empty(0, dtype=np.int64)
        for arr in ragged_gather(offsets, endpoints, ids, engine="fast"):
            assert arr.size == 0


class TestDispatch:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_ENGINE", raising=False)
        assert resolve_trace_engine(None) == "auto"
        monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
        assert resolve_trace_engine(None) == "reference"
        assert resolve_trace_engine("fast") == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_trace_engine("vectorized")

    def test_fast_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fasttrace._KERNEL, "_state", KernelUnavailable("forced off")
        )
        with pytest.raises(KernelUnavailable):
            ragged_gather(
                np.array([0, 1], dtype=np.int64),
                np.array([0], dtype=np.int32),
                np.array([0], dtype=np.int64),
                engine="fast",
            )

    def test_auto_falls_back_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fasttrace._KERNEL, "_state", KernelUnavailable("forced off")
        )
        lengths, positions, others, repeats = ragged_gather(
            np.array([0, 2], dtype=np.int64),
            np.array([7, 9], dtype=np.int32),
            np.array([0], dtype=np.int64),
            engine="auto",
        )
        assert others.tolist() == [7, 9]
        assert repeats.tolist() == [0, 0]


class TestPackedZeroCopy:
    def test_builder_output_packs_without_copies(self):
        space = AddressSpace()
        region = space.region("x", 4096, 8)
        builder = TraceBuilder()
        rng = np.random.default_rng(5)
        builder.add(
            region,
            rng.integers(0, 4096, size=500),
            np.arange(500, dtype=float),
            write=(rng.random(500) < 0.5),
            core=rng.integers(0, 4, size=500),
        )
        trace = builder.build()
        blocks, writes, cores = trace.packed()
        assert np.shares_memory(blocks, trace.blocks)
        assert np.shares_memory(writes, trace.writes)
        assert np.shares_memory(cores, trace.cores)
        assert blocks.dtype == np.uint32
        assert writes.dtype == cores.dtype == np.uint8

    def test_alien_dtypes_still_convert(self):
        from repro.framework.trace import MemoryTrace

        trace = MemoryTrace(
            np.array([1, 2], dtype=np.int32),
            np.array([0, 1], dtype=np.int8),
            np.array([0, 0], dtype=np.int16),
            2,
        )
        blocks, writes, cores = trace.packed()
        assert blocks.dtype == np.uint32
        assert writes.dtype == cores.dtype == np.uint8
        assert blocks.tolist() == [1, 2] and writes.tolist() == [0, 1]
