"""Tests for the three-level hierarchy simulation."""

import numpy as np
import pytest

from repro.cachesim import (
    CacheGeometry,
    HierarchyConfig,
    SetAssociativeCache,
    simulate_trace,
    DEFAULT_HIERARCHY,
)
from repro.framework.trace import MemoryTrace


def make_trace(blocks, accesses=None, writes=None, cores=None):
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.size
    return MemoryTrace(
        blocks=blocks,
        writes=np.asarray(writes if writes is not None else np.zeros(n, bool)),
        cores=np.asarray(cores if cores is not None else np.zeros(n), dtype=np.int16),
        accesses=n if accesses is None else accesses,
    )


class TestGeometry:
    def test_num_sets(self):
        geometry = CacheGeometry(2048, 4)
        assert geometry.num_sets == 8

    def test_invalid_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(192, 1).num_sets  # 3 sets

    def test_scaled(self):
        doubled = DEFAULT_HIERARCHY.scaled(2)
        assert doubled.l1.size_bytes == DEFAULT_HIERARCHY.l1.size_bytes * 2
        assert doubled.l3.associativity == DEFAULT_HIERARCHY.l3.associativity


class TestAgainstReferenceCache:
    """The inlined L1 loop must match SetAssociativeCache exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_l1_miss_counts_match(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 64, size=2000)
        config = HierarchyConfig(
            l1=CacheGeometry(512, 2),
            # Make L2/L3 huge so they don't matter for the comparison.
            l2=CacheGeometry(1 << 16, 4),
            l3=CacheGeometry(1 << 20, 8),
        )
        stats = simulate_trace(make_trace(blocks), config)
        reference = SetAssociativeCache(512, 2)
        for b in blocks.tolist():
            reference.access(b)
        assert stats.l1_misses == reference.misses
        assert stats.accesses == blocks.size

    @pytest.mark.parametrize("seed", [0, 1])
    def test_l3_miss_counts_match(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 512, size=4000)
        config = HierarchyConfig(
            l1=CacheGeometry(128, 2),
            l2=CacheGeometry(256, 4),
            l3=CacheGeometry(2048, 8),
        )
        stats = simulate_trace(make_trace(blocks), config)
        # The L3 sees exactly the L2 miss stream; replay it.
        l1 = SetAssociativeCache(128, 2)
        l2 = SetAssociativeCache(256, 4)
        l3 = SetAssociativeCache(2048, 8)
        for b in blocks.tolist():
            if not l1.access(b):
                if not l2.access(b):
                    l3.access(b)
        assert stats.l1_misses == l1.misses
        assert stats.l2_misses == l2.misses
        assert stats.l3_misses == l3.misses


class TestCounting:
    def test_compressed_repeats_are_l1_hits(self):
        trace = make_trace([5], accesses=10)
        stats = simulate_trace(trace, DEFAULT_HIERARCHY)
        assert stats.accesses == 10
        assert stats.l1_misses == 1

    def test_breakdown_sums_to_l2_misses(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 4096, size=5000)
        writes = rng.random(5000) < 0.3
        cores = rng.integers(0, 40, size=5000)
        stats = simulate_trace(make_trace(blocks, writes=writes, cores=cores))
        assert sum(stats.l2_miss_breakdown.values()) == stats.l2_misses

    def test_mpki(self):
        stats = simulate_trace(make_trace(np.arange(100)))
        mpki = stats.mpki(instructions=1000)
        assert mpki["l1"] == pytest.approx(100.0)

    def test_empty_trace(self):
        stats = simulate_trace(make_trace([]))
        assert stats.accesses == 0
        assert stats.l1_misses == 0


class TestMonotonicity:
    """Sanity properties a cache model must obey."""

    def _misses(self, blocks, config):
        return simulate_trace(make_trace(blocks), config)

    def test_larger_l3_never_more_misses_on_loops(self):
        # Cyclic working-set loops are LRU-friendly: capacity helps.
        blocks = np.tile(np.arange(100), 30)
        small = HierarchyConfig(
            CacheGeometry(512, 2), CacheGeometry(1024, 4), CacheGeometry(4096, 8)
        )
        large = HierarchyConfig(
            CacheGeometry(512, 2), CacheGeometry(1024, 4), CacheGeometry(8192, 8)
        )
        assert (
            self._misses(blocks, large).l3_misses
            <= self._misses(blocks, small).l3_misses
        )

    def test_miss_counts_decrease_down_the_hierarchy(self):
        rng = np.random.default_rng(8)
        blocks = rng.integers(0, 256, size=3000)
        stats = simulate_trace(make_trace(blocks))
        assert stats.l1_misses >= stats.l2_misses >= stats.l3_misses

    def test_repeated_trace_second_pass_hits_when_it_fits(self):
        blocks = np.arange(16)  # fits in the 8 KiB L3 and 2 KiB L2
        twice = np.tile(blocks, 2)
        stats = simulate_trace(make_trace(twice))
        # Second pass must hit somewhere on-chip: misses stay at 16.
        assert stats.l3_misses == 16
