"""The replacement-policy registry and the skew-aware (grasp) semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cachesim import (
    CacheGeometry,
    HierarchyConfig,
    SetAssociativeCache,
    simulate_trace,
)
from repro.cachesim.policies import (
    POLICIES,
    ReplacementPolicy,
    UnknownPolicyError,
    get_policy,
    policy_names,
    register_policy,
)
from repro.framework.trace import MemoryTrace


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert policy_names() == ("lru", "fifo", "lip", "grasp")
        assert [POLICIES[n].code for n in policy_names()] == [0, 1, 2, 3]

    def test_get_policy_unknown_lists_registered_names(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            get_policy("mru", context="unit test")
        message = str(excinfo.value)
        assert "mru" in message and "unit test" in message
        for name in policy_names():
            assert name in message

    def test_unknown_policy_error_is_a_value_error(self):
        # Admission paths catch ValueError; the named error must qualify.
        with pytest.raises(ValueError):
            get_policy("not-a-policy")

    def test_register_rejects_duplicate_name_and_code(self):
        clone = ReplacementPolicy(
            "lru", code=99, promote_hot=True, promote_cold=True,
            insert_mru_hot=True, insert_mru_cold=True, protect_hot=False,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_policy(clone)
        code_clash = ReplacementPolicy(
            "brand-new", code=0, promote_hot=True, promote_cold=True,
            insert_mru_hot=True, insert_mru_cold=True, protect_hot=False,
        )
        with pytest.raises(ValueError, match="already used"):
            register_policy(code_clash)
        assert "brand-new" not in POLICIES

    def test_register_and_use_custom_policy(self):
        policy = ReplacementPolicy(
            "mru-fill-test", code=200, promote_hot=False, promote_cold=False,
            insert_mru_hot=False, insert_mru_cold=False, protect_hot=False,
        )
        register_policy(policy)
        try:
            assert get_policy("mru-fill-test") is policy
            cache = SetAssociativeCache(256, 4, policy="mru-fill-test")
            assert cache.policy is policy
        finally:
            del POLICIES["mru-fill-test"]

    def test_cache_token_folds_behavioural_flags(self):
        tokens = {POLICIES[name].cache_token() for name in policy_names()}
        assert len(tokens) == len(policy_names())
        # lip and grasp share cold-side behaviour but must not alias.
        assert POLICIES["lip"].cache_token() != POLICIES["grasp"].cache_token()

    def test_flags_for(self):
        grasp = get_policy("grasp")
        assert grasp.flags_for(hot=True) == (True, True)
        assert grasp.flags_for(hot=False) == (True, False)
        assert grasp.needs_hot_blocks
        assert not get_policy("lru").needs_hot_blocks


class TestSetAssociativeCachePolicies:
    def test_unknown_policy_raises_named_error(self):
        with pytest.raises(UnknownPolicyError, match="registered policies"):
            SetAssociativeCache(512, 2, policy="plru")

    def test_grasp_protects_hot_lines(self):
        # One 2-way set: hot block 0 must survive a stream of cold misses,
        # even from the LRU position (a promoted cold hit above it).
        cache = SetAssociativeCache(128, 2, policy="grasp", hot_blocks=[0])
        cache.access(0)
        cache.access(2)
        cache.access(2)  # promote the cold line over the hot one
        for cold in (4, 6, 8):  # same set (one-set cache), all cold
            cache.access(cold)
        assert cache.contains(0), "grasp evicted a protected hot line"
        assert cache.policy_events["hot_fills"] == 1
        assert cache.policy_events["protected_evictions"] > 0

    def test_grasp_falls_back_when_set_is_all_hot(self):
        cache = SetAssociativeCache(128, 2, policy="grasp", hot_blocks=[0, 2, 4])
        cache.access(0)
        cache.access(2)
        cache.access(4)  # all ways hot: plain LRU victim (block 0)
        assert not cache.contains(0)
        assert cache.contains(2) and cache.contains(4)

    def test_grasp_with_empty_hot_set_matches_lip(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 64, size=500)
        grasp = SetAssociativeCache(512, 2, policy="grasp")
        lip = SetAssociativeCache(512, 2, policy="lip")
        for b in blocks:
            grasp.access(int(b))
            lip.access(int(b))
        assert (grasp.hits, grasp.misses) == (lip.hits, lip.misses)
        assert grasp.resident_blocks() == lip.resident_blocks()

    def test_cold_fills_insert_at_lru_end(self):
        cache = SetAssociativeCache(128, 2, policy="grasp", hot_blocks=[2])
        cache.access(0)  # cold fill -> LRU end
        cache.access(2)  # hot fill -> MRU end
        cache.access(4)  # cold miss: victim is the cold LRU line (0)
        assert not cache.contains(0)
        assert cache.contains(2)

    def test_reset_stats_clears_policy_events(self):
        cache = SetAssociativeCache(128, 2, policy="grasp", hot_blocks=[0])
        cache.access(0)
        for cold in (2, 4, 6):
            cache.access(cold)
        assert cache.hits + cache.misses > 0
        assert any(cache.policy_events.values())
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.policy_events == {"hot_fills": 0, "protected_evictions": 0}


class TestHierarchyPolicyValidation:
    def _tiny_config(self, policy: str) -> HierarchyConfig:
        return HierarchyConfig(
            l1=CacheGeometry(512, 2),
            l2=CacheGeometry(2048, 4),
            l3=CacheGeometry(8192, 8),
            replacement=policy,
        )

    def _trace(self) -> MemoryTrace:
        rng = np.random.default_rng(3)
        n = 400
        return MemoryTrace(
            blocks=rng.integers(0, 200, size=n),
            writes=np.zeros(n, dtype=bool),
            cores=np.zeros(n, dtype=np.int16),
            accesses=n,
        )

    def test_reference_engine_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError, match="HierarchyConfig.replacement"):
            simulate_trace(
                self._trace(), self._tiny_config("bogus"), engine="reference"
            )

    def test_grasp_protection_changes_counters(self):
        """Protecting the most-reused blocks must reduce misses vs no hot set."""
        trace = self._trace()
        config = self._tiny_config("grasp")
        hot = np.arange(16, dtype=np.int64)  # arbitrary protected head
        base = simulate_trace(trace, config, engine="reference")
        prot = simulate_trace(
            trace, config, engine="reference", hot_blocks=hot
        )
        assert base.accesses == prot.accesses
        assert (base.l1_misses, base.l2_misses, base.l3_misses) != (
            prot.l1_misses, prot.l2_misses, prot.l3_misses,
        ), "hot-block protection had no effect on the counters"
