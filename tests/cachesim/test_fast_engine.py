"""Fast-engine equivalence and dispatch tests.

The compiled engine must be *counter-for-counter identical* to the
pure-Python reference on any trace — that is the contract that lets every
caller switch engines transparently.  The property sweep here drives
random traces (mixed policies, writes, multi-core, access totals above
the run count,
tiny ownership directories) through :class:`SetAssociativeCache`, the
reference ``simulate_trace`` and the fast engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    CacheGeometry,
    HierarchyConfig,
    KernelUnavailable,
    SetAssociativeCache,
    fast_available,
    simulate_trace,
    simulate_trace_fast,
    simulate_trace_reference,
)
from repro.cachesim import fast
from repro.cachesim.hierarchy import resolve_engine
from tests.cachesim.test_hierarchy import make_trace
from tests.pipeline.test_sim_span import sim_engine_tag

needs_kernel = pytest.mark.skipif(
    not fast_available(), reason="no C compiler for the fast engine"
)


def counters(stats):
    return (
        stats.accesses,
        stats.l1_misses,
        stats.l2_misses,
        stats.l3_misses,
        dict(stats.l2_miss_breakdown),
    )


@st.composite
def random_traces(draw, max_block=512, max_len=600):
    length = draw(st.integers(min_value=0, max_value=max_len))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, max_block, size=length)
    accesses = int(rng.integers(1, 5, size=length).sum())
    writes = rng.random(length) < draw(st.floats(min_value=0, max_value=1))
    cores = rng.integers(0, draw(st.integers(1, 44)), size=length)
    return blocks, accesses, writes, cores


@needs_kernel
class TestEquivalence:
    @given(
        random_traces(),
        st.sampled_from(["lru", "fifo", "lip"]),
        st.sampled_from([None, 4, 16, 0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_hierarchy_identical(self, data, policy, ownership):
        blocks, accesses, writes, cores = data
        config = HierarchyConfig(
            l1=CacheGeometry(512, 2),
            l2=CacheGeometry(2048, 4),
            l3=CacheGeometry(8192, 8),
            replacement=policy,
            ownership_blocks=ownership,
        )
        trace = make_trace(blocks, accesses=accesses, writes=writes, cores=cores)
        assert counters(simulate_trace_fast(trace, config)) == counters(
            simulate_trace_reference(trace, config)
        )

    @given(random_traces(), st.sampled_from(["lru", "fifo", "lip"]))
    @settings(max_examples=40, deadline=None)
    def test_l1_matches_single_level_reference_cache(self, data, policy):
        """With huge L2/L3, the fast engine's L1 is SetAssociativeCache."""
        blocks, _, _, _ = data
        config = HierarchyConfig(
            l1=CacheGeometry(512, 2),
            l2=CacheGeometry(1 << 16, 4),
            l3=CacheGeometry(1 << 20, 8),
            replacement=policy,
        )
        stats = simulate_trace_fast(make_trace(blocks), config)
        reference = SetAssociativeCache(512, 2, policy=policy)
        for b in blocks.tolist():
            reference.access(b)
        assert stats.l1_misses == reference.misses
        assert stats.accesses == reference.hits + reference.misses

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_scaled_geometries_identical(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 2048, size=400)
        writes = rng.random(400) < 0.4
        cores = rng.integers(0, 40, size=400)
        from repro.cachesim import DEFAULT_HIERARCHY

        config = DEFAULT_HIERARCHY.scaled(4)
        trace = make_trace(blocks, writes=writes, cores=cores)
        assert counters(simulate_trace_fast(trace, config)) == counters(
            simulate_trace_reference(trace, config)
        )

    def test_empty_trace(self):
        from repro.cachesim import DEFAULT_HIERARCHY

        stats = simulate_trace_fast(make_trace([]), DEFAULT_HIERARCHY)
        assert counters(stats) == counters(
            simulate_trace_reference(make_trace([]), DEFAULT_HIERARCHY)
        )

    def test_chunked_equals_one_shot(self):
        from repro.cachesim import DEFAULT_HIERARCHY

        rng = np.random.default_rng(3)
        trace = make_trace(
            rng.integers(0, 999, size=500),
            writes=rng.random(500) < 0.3,
            cores=rng.integers(0, 8, size=500),
        )
        one_shot = simulate_trace_fast(trace, DEFAULT_HIERARCHY)
        chunked = simulate_trace_fast(trace, DEFAULT_HIERARCHY, chunk_runs=7)
        assert counters(one_shot) == counters(chunked)


class TestDispatch:
    def test_resolve_precedence(self, monkeypatch):
        config = HierarchyConfig(
            CacheGeometry(512, 2),
            CacheGeometry(2048, 4),
            CacheGeometry(8192, 8),
            engine="reference",
        )
        assert resolve_engine(None, config) == "reference"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
        assert resolve_engine(None, config) == "auto"
        assert resolve_engine("reference", config) == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized")

    def test_env_knob_selects_reference(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert sim_engine_tag(tmp_path, monkeypatch) == "reference"

    @needs_kernel
    def test_auto_uses_fast_when_available(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert sim_engine_tag(tmp_path, monkeypatch) == "fast"

    def test_fast_engine_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(fast._KERNEL, "_state", KernelUnavailable("forced off"))
        with pytest.raises(KernelUnavailable):
            simulate_trace(make_trace([1, 2]), engine="fast")

    def test_auto_falls_back_when_unavailable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fast._KERNEL, "_state", KernelUnavailable("forced off"))
        stats = simulate_trace(make_trace([1, 2]), engine="auto")
        assert stats.accesses == 2
        monkeypatch.setenv("REPRO_SIM_ENGINE", "auto")
        assert sim_engine_tag(tmp_path, monkeypatch) == "reference"

    def test_engine_config_field_survives_scaling(self):
        config = HierarchyConfig(
            CacheGeometry(512, 2),
            CacheGeometry(2048, 4),
            CacheGeometry(8192, 8),
            engine="reference",
        )
        assert config.scaled(2).engine == "reference"
