"""Engine parity + throughput harness (the fast engine's CI gate).

Replays *real* application traces — not just synthetic ones — through the
reference loop and the compiled fast engine and requires identical
counters, then prints both engines' accesses/second so the speedup is
visible in CI output.  Synthetic multi-core write-heavy traces cover the
snoop-directory paths that single-app traces exercise only lightly.  The
compiled super-step trace generator is held to the numpy streams on every
app x stock analog x Fig. 6 ordering.
"""

import numpy as np
import pytest

from repro.analysis.figures import MAIN_TECHNIQUES
from repro.apps import make_app
from repro.apps.registry import APP_ORDER
from repro.cachesim import (
    DEFAULT_HIERARCHY,
    CacheGeometry,
    HierarchyConfig,
    fast_available,
    simulate_trace_fast,
    simulate_trace_reference,
)
from repro.framework.trace import MemoryTrace
from repro.graph.generators import NO_SKEW_DATASETS, SKEWED_DATASETS, load_dataset
from repro.reorder import make_technique

pytestmark = pytest.mark.skipif(
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


@pytest.fixture(scope="module")
def app_trace():
    graph = load_dataset("sd")
    app = make_app("PR")
    return app.trace(graph, app.plan(graph)).trace


@pytest.mark.parametrize("policy", ["lru", "fifo", "lip"])
def test_real_app_trace_identical(app_trace, policy):
    config = HierarchyConfig(
        l1=DEFAULT_HIERARCHY.l1,
        l2=DEFAULT_HIERARCHY.l2,
        l3=DEFAULT_HIERARCHY.l3,
        replacement=policy,
    )
    reference = simulate_trace_reference(app_trace, config)
    fast = simulate_trace_fast(app_trace, config)
    assert counters(fast) == counters(reference)


def test_coherence_heavy_trace_identical():
    """Multi-core write sharing: snoops + directory evictions must agree."""
    rng = np.random.default_rng(11)
    n = 100_000
    trace = MemoryTrace(
        blocks=rng.integers(0, 1024, size=n).astype(np.int64),
        writes=rng.random(n) < 0.5,
        cores=rng.integers(0, 40, size=n).astype(np.int16),
        accesses=int(rng.integers(1, 6, size=n).sum()),
    )
    config = HierarchyConfig(
        l1=CacheGeometry(512, 2),
        l2=CacheGeometry(2048, 4),
        l3=CacheGeometry(8192, 8),
        ownership_blocks=64,  # tiny directory: constant capacity eviction
    )
    reference = simulate_trace_reference(trace, config)
    fast = simulate_trace_fast(trace, config)
    assert counters(fast) == counters(reference)
    assert reference.l2_miss_breakdown["snoop_local"] > 0
    assert reference.l2_miss_breakdown["snoop_remote"] > 0


def test_throughput_report(app_trace):
    """Time both engines on the real trace; the numbers land in CI logs."""
    import time

    start = time.perf_counter()
    simulate_trace_reference(app_trace, DEFAULT_HIERARCHY)
    ref_s = time.perf_counter() - start
    start = time.perf_counter()
    simulate_trace_fast(app_trace, DEFAULT_HIERARCHY)
    fast_s = time.perf_counter() - start
    accesses = app_trace.total_accesses
    print(
        f"\nPR/sd trace ({len(app_trace):,} runs, {accesses:,} accesses): "
        f"reference {accesses / ref_s / 1e6:.1f} M acc/s, "
        f"fast {accesses / fast_s / 1e6:.1f} M acc/s "
        f"({ref_s / fast_s:.1f}x)"
    )
    assert fast_s < ref_s


@pytest.mark.parametrize("dataset", SKEWED_DATASETS + NO_SKEW_DATASETS)
def test_superstep_traces_identical_on_every_analog(dataset):
    """Compiled super-step generator == numpy streams, array for array,
    for every app x Fig. 6 ordering on one stock analog at scale 0.25."""
    scale = 0.25
    base = load_dataset(dataset, scale)
    mappings = {}
    for app_name in APP_ORDER:
        app = make_app(app_name)
        graph = load_dataset(dataset, scale, weighted=app_name == "SSSP")
        plan = app.plan(graph)
        for technique in ["Original", *MAIN_TECHNIQUES]:
            key = (technique, app.reorder_degree_kind)
            if key not in mappings:
                mappings[key] = (
                    np.arange(base.num_vertices)
                    if technique == "Original"
                    else make_technique(*key).compute_mapping(base)
                )
            mapping = mappings[key]
            relabelled = graph.relabel(mapping)
            moved = plan.remap(mapping)
            fast = app.trace(relabelled, moved, engine="fast").trace
            ref = app.trace(relabelled, moved, engine="reference").trace
            for name in ("blocks", "writes", "cores"):
                got, want = getattr(fast, name), getattr(ref, name)
                assert got.dtype == want.dtype, (app_name, technique, name)
                assert got.tobytes() == want.tobytes(), (app_name, technique, name)
            assert fast.accesses == ref.accesses, (app_name, technique)
