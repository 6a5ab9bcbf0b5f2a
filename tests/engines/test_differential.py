"""Cross-engine differential suite: every engine pair, one place.

Each compiled-engine domain ships a readable reference (pure Python for
the cache simulator, numpy for the trace and graph kernels) and a
compiled C kernel verified bit-identical to it.  Earlier PRs scattered
that guarantee across per-domain suites; this one parametrized suite
drives hypothesis-generated graphs, traces and configurations through
the simulate, relabel and CSR-build kernels and asserts byte-for-byte
identical results across engines.

The reference side is always executed, so the suite is meaningful on
machines without a C compiler too (the fast side simply skips).

The suite also covers the fused streaming trace→simulate path built from
those kernels: its chunked trace must be bit-identical to the monolithic
build and its chunk-by-chunk simulation must reproduce the materialized
counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.cachesim import CacheGeometry, HierarchyConfig, simulate_trace
from repro.cachesim.policies import policy_names
from repro.framework.trace import MemoryTrace
from repro.graph import from_edges
from repro.graph.csr import _build_dual_csr

def _needs(domain: str, engine: str) -> None:
    if engine != "reference" and not engines.fast_available(domain):
        pytest.skip(engines.unavailable_reason(domain) or "no compiled kernel")


# -- generators ---------------------------------------------------------------

@st.composite
def random_edge_lists(draw):
    """Multigraphs with self-loops, parallel edges, isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = draw(st.integers(min_value=0, max_value=4 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.uniform(-1e6, 1e6, size=m) if weighted else None
    return n, src, dst, weights, seed


@st.composite
def random_traces(draw):
    """Compressed trace streams: blocks, writes, cores, access total."""
    length = draw(st.integers(min_value=0, max_value=500))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_cores = draw(st.integers(min_value=1, max_value=44))
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        blocks=rng.integers(0, 400, size=length),
        writes=rng.random(length) < 0.3,
        cores=rng.integers(0, num_cores, size=length).astype(np.int16),
        accesses=int(rng.integers(1, 5, size=length).sum()),
    )


@st.composite
def hierarchy_configs(draw):
    """Tiny hierarchies (so evictions and snoops actually happen).

    The replacement policy is drawn from the live registry, so every
    registered policy — including future ones — is differentially
    verified without touching this suite.
    """
    return HierarchyConfig(
        l1=CacheGeometry(512, 2),
        l2=CacheGeometry(2048, 4),
        l3=CacheGeometry(8192, 8),
        replacement=draw(st.sampled_from(sorted(policy_names()))),
        ownership_blocks=draw(st.sampled_from([None, 4, 16, 0])),
    )


@st.composite
def hot_block_sets(draw):
    """Hot-block classifications over the trace block range (or none).

    Passed to *every* policy: non-protecting policies must ignore the
    set identically in both engines, and ``grasp`` must protect it
    identically.
    """
    if not draw(st.booleans()):
        return None
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=0, max_value=64))
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, 400, size=count).astype(np.int64))


# -- the differential assertions ---------------------------------------------

def sim_counters(trace, config, engine, hot_blocks=None):
    stats = simulate_trace(trace, config, engine=engine, hot_blocks=hot_blocks)
    return (
        stats.accesses,
        stats.l1_misses,
        stats.l2_misses,
        stats.l3_misses,
        dict(stats.l2_miss_breakdown),
    )


def assert_graphs_bitwise_equal(a, b) -> None:
    assert a.num_vertices == b.num_vertices
    assert a.num_edges == b.num_edges
    for name in ("out_offsets", "out_targets", "in_offsets", "in_sources"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    assert a.is_weighted == b.is_weighted
    if a.is_weighted:
        assert a.out_weights.tobytes() == b.out_weights.tobytes()
        assert a.in_weights.tobytes() == b.in_weights.tobytes()


@pytest.mark.parametrize("engine", ["fast"])
class TestDifferential:
    """reference vs <engine>: simulate, CSR build, relabel."""

    @given(trace=random_traces(), config=hierarchy_configs(), hot=hot_block_sets())
    @settings(max_examples=40, deadline=None)
    def test_simulate(self, engine, trace, config, hot):
        _needs("sim", engine)
        assert sim_counters(trace, config, engine, hot_blocks=hot) == sim_counters(
            trace, config, "reference", hot_blocks=hot
        )

    @given(data=random_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_build(self, engine, data):
        _needs("graph", engine)
        n, src, dst, weights, _ = data
        ref = _build_dual_csr(n, src, dst, weights, stable=True, engine="reference")
        alt = _build_dual_csr(n, src, dst, weights, stable=True, engine=engine)
        assert_graphs_bitwise_equal(ref, alt)

    @given(data=random_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_relabel(self, engine, data):
        _needs("graph", engine)
        n, src, dst, weights, seed = data
        graph = from_edges(n, np.stack([src, dst], axis=1), weights)
        mapping = np.random.default_rng(seed).permutation(n)
        ref = graph.relabel(mapping, engine="reference")
        alt = graph.relabel(mapping, engine=engine)
        assert_graphs_bitwise_equal(ref, alt)


@pytest.mark.parametrize("engine", ["fast"])
def test_end_to_end_cell_identical(engine, tmp_path, monkeypatch):
    """One real (app, dataset, technique) cell, every domain forced at once.

    The kernel-level properties above compose: forcing *all three*
    domains to the compiled engine must reproduce the all-reference
    cell counters exactly — the store deliberately excludes the engine
    choice from its keys for exactly this reason.
    """
    for domain in engines.DOMAINS:
        _needs(domain, engine)
    from repro.pipeline import ArtifactStore
    from repro.pipeline.cells import CellPipeline, ExperimentConfig

    results = {}
    for choice in ("reference", engine):
        for var in ("REPRO_SIM_ENGINE", "REPRO_TRACE_ENGINE", "REPRO_GRAPH_ENGINE"):
            monkeypatch.setenv(var, choice)
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.15, num_roots=1),
            store=ArtifactStore(tmp_path / choice),
        )
        results[choice] = pipeline.cell("PR", "wl", "DBG")
    assert results["reference"] == results[engine]


STREAM_CASES = [("PR", "wl"), ("BFS", "tw"), ("SSSP", "pl")]


class TestFusedStreaming:
    """The fused streaming path vs the monolithic trace, per app family."""

    @staticmethod
    def _graph_app_plan(app_name: str, dataset: str):
        from repro.apps import make_app
        from repro.graph.generators import load_dataset

        graph = load_dataset(dataset, scale=0.15, weighted=app_name == "SSSP")
        app = make_app(app_name)
        kwargs = {}
        if app_name in ("SSSP", "BC"):
            kwargs["root"] = int(np.argmax(graph.out_degrees()))
        return graph, app, app.plan(graph, **kwargs)

    @pytest.mark.parametrize("app_name,dataset", STREAM_CASES)
    def test_streamed_trace_bitwise_identical(self, app_name, dataset):
        """Chunked production must reproduce the monolithic run sequence."""
        graph, app, plan = self._graph_app_plan(app_name, dataset)
        mono = app.trace(graph, plan)
        # A chunk size far below the edge count forces many seams.
        fused = app.trace_streaming(graph, plan, chunk_edges=2048)
        materialized = fused.trace.materialize()
        for ref_arr, alt_arr in zip(mono.trace.packed(), materialized.packed()):
            assert ref_arr.dtype == alt_arr.dtype
            assert ref_arr.tobytes() == alt_arr.tobytes()
        assert materialized.accesses == mono.trace.accesses
        assert fused.trace.chunks_streamed > 1
        assert fused.instructions == mono.instructions
        assert fused.superstep_multiplier == mono.superstep_multiplier

    @pytest.mark.parametrize("app_name,dataset", STREAM_CASES)
    def test_fused_simulation_matches_two_stage(self, app_name, dataset):
        """Chunk-by-chunk simulation == simulating the stored trace."""
        _needs("sim", "fast")  # streaming needs the kernel's persistent state
        graph, app, plan = self._graph_app_plan(app_name, dataset)
        mono = app.trace(graph, plan)
        config = HierarchyConfig(
            l1=CacheGeometry(512, 2),
            l2=CacheGeometry(2048, 4),
            l3=CacheGeometry(8192, 8),
        )
        expected = sim_counters(mono.trace, config, "fast")
        fused = app.trace_streaming(graph, plan, chunk_edges=2048)
        assert sim_counters(fused.trace, config, "fast") == expected
        # The consumed totals must account for the whole trace.
        assert fused.trace.runs_streamed == len(mono.trace)
        assert fused.trace.accesses_streamed == mono.trace.total_accesses
