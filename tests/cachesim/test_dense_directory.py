"""Differential tests for the compact trace format and the dense directory.

The kernel maps every block id to a directory slot through an array that
``repro_sim_step`` grows to cover each chunk's largest block.  These
traces use sparse block ids up to ~2**20 whose maximum rises through the
trace, fed through :class:`FastSimulator.step` in small uneven chunks, so
the array grows mid-trace while dirty lines are live in it.  Every
policy runs with its hot set re-installed between steps, under tiny and
default ownership caps; the kernel and the Python reference must agree
counter for counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    CacheGeometry,
    HierarchyConfig,
    fast_available,
    simulate_trace_reference,
)
from repro.cachesim.fast import FastSimulator
from repro.cachesim.policies import policy_names
from repro.framework.trace import AddressSpace, MemoryTrace, TraceBuilder
from tests.cachesim.test_fast_engine import counters

needs_kernel = pytest.mark.skipif(
    not fast_available(), reason="no C compiler for the fast engine"
)

#: Two sets at the smallest level, so evictions happen on tiny traces.
TINY = dict(
    l1=CacheGeometry(256, 2),
    l2=CacheGeometry(1024, 4),
    l3=CacheGeometry(4096, 8),
)


@st.composite
def sparse_traces(draw):
    """A trace over sparse block ids whose maximum grows with position,
    its uneven chunk bounds, and a hot subset of its blocks."""
    n = draw(st.integers(min_value=1, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = np.sort(rng.choice(1 << 20, size=draw(st.integers(4, 64)), replace=False))
    # Position i draws from the pool's first 1 + i * len(pool) / n ids.
    reach = 1 + np.arange(n) * pool.size // n
    blocks = pool[(rng.random(n) * reach).astype(np.int64)]
    writes = rng.random(n) < draw(st.floats(min_value=0, max_value=1))
    cores = rng.integers(0, draw(st.integers(1, 44)), size=n)
    accesses = int(rng.integers(1, 5, size=n).sum())
    trace = MemoryTrace(blocks, writes, cores, accesses)
    cuts = np.unique(rng.integers(0, n + 1, size=draw(st.integers(0, 12))))
    hot = rng.choice(pool, size=int(rng.integers(0, pool.size + 1)), replace=False)
    return trace, [0, *cuts.tolist(), n], hot


def stepped(trace, bounds, config, hot):
    """Counters of ``trace`` fed chunk by chunk, the hot set re-installed
    (shuffled, with duplicates) before every step."""
    rng = np.random.default_rng(len(bounds))
    shares = rng.multinomial(trace.accesses, np.ones(len(bounds) - 1) / (len(bounds) - 1))
    with FastSimulator(config) as sim:
        for (lo, hi), share in zip(zip(bounds[:-1], bounds[1:]), shares):
            sim.set_hot_blocks(rng.permutation(np.concatenate([hot, hot[:2]])))
            blocks, writes, cores = (a[lo:hi] for a in trace.packed())
            sim.step(blocks, writes, cores, int(share))
        return counters(sim.stats())


@needs_kernel
class TestDenseDirectory:
    @given(
        sparse_traces(),
        st.sampled_from(policy_names()),
        st.sampled_from([0, 1, 4, None]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_and_reference_agree(self, data, policy, cap):
        trace, bounds, hot = data
        config = HierarchyConfig(**TINY, replacement=policy, ownership_blocks=cap)
        expected = counters(simulate_trace_reference(trace, config, hot_blocks=hot))
        assert stepped(trace, bounds, config, hot) == expected

    def test_directory_survives_growth_with_dirty_lines(self):
        # Core 1 dirties block 3; the next step grows the map past 2**20,
        # and the read of block 3 after it must still snoop core 1.
        trace = MemoryTrace([3, (1 << 20) + 5, 3], [True, False, False], [1, 0, 0], 3)
        config = HierarchyConfig(**TINY)
        reference = simulate_trace_reference(trace, config)
        assert reference.l2_miss_breakdown["snoop_local"] == 1
        no_hot = np.empty(0, dtype=np.int64)
        assert stepped(trace, [0, 1, 2, 3], config, no_hot) == counters(reference)

    def test_step_rejects_wide_arrays(self):
        trace = MemoryTrace([1, 2], [False, True], [0, 1], 2)
        with FastSimulator(HierarchyConfig(**TINY)) as sim:
            with pytest.raises(ValueError):
                sim.step(trace.blocks.astype(np.int64), *trace.packed()[1:], 2)
            with pytest.raises(ValueError):
                sim.step(trace.blocks, trace.writes.view(np.uint8), trace.cores[:1], 2)


class TestCompactFormat:
    def test_fields_are_narrowed(self):
        trace = MemoryTrace(np.array([7, 2**32 - 1]), [0, 1], np.array([0, 255]), 5)
        assert (trace.blocks.dtype, trace.writes.dtype, trace.cores.dtype) == (
            np.uint32,
            np.bool_,
            np.uint8,
        )
        assert trace.blocks.tolist() == [7, 2**32 - 1]
        assert trace.cores.tolist() == [0, 255]
        assert trace.accesses == trace.total_accesses == 5

    @pytest.mark.parametrize("blocks", [[2**32], [-1]])
    def test_block_ids_past_uint32_rejected(self, blocks):
        with pytest.raises(ValueError, match="block ids"):
            MemoryTrace(np.array(blocks), [False], [0], 1)

    @pytest.mark.parametrize("core", [256, -1])
    def test_cores_past_uint8_rejected(self, core):
        with pytest.raises(ValueError, match="cores"):
            MemoryTrace([0], [False], np.array([core]), 1)
        space = AddressSpace()
        region = space.region("p", 8, 8)
        with pytest.raises(ValueError, match="cores"):
            TraceBuilder().add(region, np.arange(2), np.arange(2.0), core=core)

    def test_access_total_must_cover_the_runs(self):
        with pytest.raises(ValueError, match="accesses"):
            MemoryTrace([0, 1], [False, False], [0, 0], 1)
        with pytest.raises(ValueError, match="accesses"):
            MemoryTrace([], [], [], 3)
        with pytest.raises(ValueError):
            MemoryTrace([0, 1], [False], [0, 0], 2)

    def test_address_space_ends_at_2_pow_32_blocks(self):
        space = AddressSpace()
        space.region("fits", (2**32 - 128) * 64 // 8, 8)
        with pytest.raises(ValueError, match="cache blocks"):
            space.region("past", 2**12, 8)
        with pytest.raises(ValueError, match="cache blocks"):
            AddressSpace().region("huge", 2**32, 64)

    def test_builder_emits_compact_arrays(self):
        space = AddressSpace()
        region = space.region("p", 64, 8)
        builder = TraceBuilder()
        builder.add(region, np.arange(64), np.arange(64.0), core=np.arange(64) // 16)
        trace = builder.build()
        assert trace.blocks.dtype == np.uint32 and trace.cores.dtype == np.uint8
        assert len(trace) == 8 and trace.accesses == 64

    def test_chunks_carry_the_access_total(self):
        trace = MemoryTrace(np.arange(10), np.zeros(10, bool), np.zeros(10), 25)
        parts = list(trace.chunks(3))
        assert [p[0].size for p in parts] == [3, 3, 3, 1]
        assert sum(p[3] for p in parts) == 25
