"""Tests for the cycle timing model."""

import pytest

from repro.cachesim.hierarchy import CacheStats
from repro.framework.trace import AppTrace, MemoryTrace
from repro.perfmodel import LatencyModel, runtime_cycles, speedup_pct, superstep_cycles

import numpy as np


def make_stats(l1=0, l2=0, l3_hit=0, snoop_local=0, snoop_remote=0, offchip=0):
    stats = CacheStats()
    stats.l1_misses = l1
    stats.l2_misses = l2
    stats.l2_miss_breakdown = {
        "l3_hit": l3_hit,
        "snoop_local": snoop_local,
        "snoop_remote": snoop_remote,
        "offchip": offchip,
    }
    return stats


def make_app_trace(instructions=1000, multiplier=1.0):
    empty = np.empty(0, dtype=np.int64)
    trace = MemoryTrace(empty, empty.astype(bool), empty.astype(np.int16), 0)
    return AppTrace("t", trace, instructions, multiplier)


class TestSuperstepCycles:
    def test_instruction_only(self):
        model = LatencyModel(base_cpi=0.5)
        cycles = superstep_cycles(make_app_trace(1000), make_stats(), model)
        assert cycles == pytest.approx(500.0)

    def test_miss_penalties_added(self):
        model = LatencyModel(base_cpi=0.0, l2_hit=10, memory=100, mlp=1.0)
        stats = make_stats(l1=5, l2=2, offchip=2)
        # 3 L2 hits x 10 + 2 offchip x 100 = 230.
        cycles = superstep_cycles(make_app_trace(), stats, model)
        assert cycles == pytest.approx(230.0)

    def test_mlp_divides_penalties(self):
        slow = LatencyModel(base_cpi=0.0, mlp=1.0)
        fast = LatencyModel(base_cpi=0.0, mlp=4.0)
        stats = make_stats(l1=10, l2=10, offchip=10)
        assert superstep_cycles(make_app_trace(), stats, slow) == pytest.approx(
            4 * superstep_cycles(make_app_trace(), stats, fast)
        )

    def test_snoop_latencies(self):
        model = LatencyModel(
            base_cpi=0.0, snoop_local=50, snoop_remote=100, mlp=1.0
        )
        stats = make_stats(l1=2, l2=2, snoop_local=1, snoop_remote=1)
        assert superstep_cycles(make_app_trace(), stats, model) == pytest.approx(150.0)

    def test_fewer_misses_is_faster(self):
        model = LatencyModel()
        worse = superstep_cycles(make_app_trace(), make_stats(l1=100, l2=100, offchip=100), model)
        better = superstep_cycles(make_app_trace(), make_stats(l1=100, l2=100, offchip=50, l3_hit=50), model)
        assert better < worse


class TestRuntime:
    def test_multiplier_scales(self):
        trace = make_app_trace(1000, multiplier=7.0)
        assert runtime_cycles(trace, make_stats()) == pytest.approx(
            7 * superstep_cycles(trace, make_stats())
        )

    def test_traversals_scale(self):
        trace = make_app_trace(1000)
        assert runtime_cycles(trace, make_stats(), traversals=8) == pytest.approx(
            8 * runtime_cycles(trace, make_stats(), traversals=1)
        )


class TestSpeedup:
    def test_positive_when_faster(self):
        assert speedup_pct(120, 100) == pytest.approx(20.0)

    def test_negative_when_slower(self):
        assert speedup_pct(100, 125) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert speedup_pct(100, 100) == 0.0

    def test_invalid_cycles(self):
        with pytest.raises(ValueError):
            speedup_pct(10, 0)
