"""Differential tests for the kernel's fixed-width way lists.

Each cache set in ``_fastsim.c`` is ``ways`` uint32 tags: the live lines
sit at the top (LRU to MRU, ending at the last slot) and the reserved id
``2**32 - 1`` fills the slots below them.  ``repro_sim_step`` runs one
loop body compiled twice: with the 2/4/8 associativities of
``DEFAULT_HIERARCHY`` folded in, and with runtime ones for any other
triple.  The sweeps below reach both copies, every policy with and
without a hot set, single-set and multi-set levels, multi-core writes
and directory-cap evictions, and compare every counter with the
reference loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    CacheGeometry,
    HierarchyConfig,
    fast_available,
    simulate_trace_fast,
    simulate_trace_reference,
)
from repro.cachesim.fast import FastSimulator
from repro.cachesim.policies import policy_names
from repro.framework.trace import BLOCK_BYTES, MAX_BLOCKS, AddressSpace, MemoryTrace
from tests.cachesim.test_fast_engine import counters

needs_kernel = pytest.mark.skipif(
    not fast_available(), reason="no C compiler for the fast engine"
)

WAYS = (1, 2, 3, 4, 8, 16)
FOLDED = (2, 4, 8)


def hierarchy(ways, sets, policy, cap):
    levels = [CacheGeometry(s * w * BLOCK_BYTES, w) for w, s in zip(ways, sets)]
    return HierarchyConfig(*levels, replacement=policy, ownership_blocks=cap)


@st.composite
def sweeps(draw, ways):
    """A hierarchy with the given associativities, a trace that conflicts
    in its sets, an optional hot set and a chunk size."""
    sets = draw(st.tuples(*[st.sampled_from([1, 2, 4, 8])] * 3))
    policy = draw(st.sampled_from(policy_names()))
    cap = draw(st.sampled_from([0, 1, 3, None]))
    config = hierarchy(ways, sets, policy, cap)
    n = draw(st.integers(min_value=0, max_value=500))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lines = sum(s * w for s, w in zip(sets, ways))
    span = draw(st.integers(min_value=1, max_value=4 * lines))
    blocks = rng.integers(0, span, size=n)
    writes = rng.random(n) < draw(st.floats(min_value=0, max_value=1))
    cores = rng.integers(0, draw(st.integers(1, 44)), size=n)
    accesses = int(rng.integers(1, 4, size=n).sum())
    trace = MemoryTrace(blocks, writes, cores, accesses)
    hot = None
    if draw(st.booleans()):
        hot = rng.choice(span, size=int(rng.integers(0, span + 1)), replace=False)
    chunk = draw(st.sampled_from([5, 64, 1 << 20]))
    return config, trace, hot, chunk


def assert_matches_reference(config, trace, hot, chunk):
    expected = counters(simulate_trace_reference(trace, config, hot_blocks=hot))
    got = simulate_trace_fast(trace, config, chunk_runs=chunk, hot_blocks=hot)
    assert counters(got) == expected


@needs_kernel
class TestWayLists:
    @given(sweeps(FOLDED))
    @settings(max_examples=150, deadline=None)
    def test_folded_2_4_8_loop_matches_reference(self, case):
        assert_matches_reference(*case)

    @given(
        st.tuples(*[st.sampled_from(WAYS)] * 3)
        .filter(lambda ways: ways != FOLDED)
        .flatmap(sweeps)
    )
    @settings(max_examples=250, deadline=None)
    def test_runtime_ways_loop_matches_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("policy", policy_names())
    @pytest.mark.parametrize("ways", [FOLDED, (1, 1, 1), (3, 16, 2), (16, 8, 4)])
    def test_single_set_levels(self, ways, policy):
        # One set per level: every block conflicts, so fills, evictions,
        # protected victims and LRU-end inserts into part-full sets all run.
        rng = np.random.default_rng(sum(ways))
        n = 3000
        trace = MemoryTrace(
            rng.integers(0, 40, size=n),
            rng.random(n) < 0.3,
            rng.integers(0, 30, size=n),
            n,
        )
        config = hierarchy(ways, (1, 1, 1), policy, 5)
        for hot in (None, np.arange(0, 40, 3)):
            assert_matches_reference(config, trace, hot, 1 << 20)


class TestReservedBlock:
    def test_address_space_stops_below_the_reserved_block(self):
        space = AddressSpace()
        # Page 0 is left unused, so the first region starts at block 64.
        last = space.region("last", MAX_BLOCKS - 64, BLOCK_BYTES)
        assert last.block_of(np.array([MAX_BLOCKS - 65])) == MAX_BLOCKS - 1
        with pytest.raises(ValueError, match="cache blocks"):
            AddressSpace().region("reserved", MAX_BLOCKS - 63, BLOCK_BYTES)

    @needs_kernel
    def test_step_rejects_the_reserved_block(self):
        config = hierarchy(FOLDED, (2, 2, 2), "lru", None)
        bad = MemoryTrace([5, MAX_BLOCKS, 6], [True, False, False], [0, 1, 1], 3)
        good = MemoryTrace([5, 9, 5, 6], [True, False, False, True], [0, 1, 1, 2], 7)
        with FastSimulator(config) as sim:
            with pytest.raises(ValueError, match="reserved"):
                sim.step(*bad.packed(), bad.accesses)
            # The rejected chunk left no state behind.
            sim.step(*good.packed(), good.accesses)
            assert counters(sim.stats()) == counters(
                simulate_trace_reference(good, config)
            )
