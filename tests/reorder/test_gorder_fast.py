"""Gorder compiled-kernel equivalence: identical permutations.

The C placement loop (an indexed heap) must reproduce the Python loop's
(a lazy ``heapq``) permutation *exactly*, so cached mappings and
downstream cell results are engine independent.  Both implement one
placement rule: highest score, lowest id among the touched unplaced
vertices; if there are none, the lowest unplaced id.  The inputs below
aim at each part of that rule: ties (ring, star, bipartite, grid), decayed
scores (``window=1``), heap-dry refills (mostly isolated vertices),
duplicate edges and self-loops, hub cut-offs, and a heap of thousands of
entries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.framework import fasttrace
from repro.graph import from_edges
from repro.reorder.gorder import Gorder

needs_kernel = pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)


def python_mapping(technique: Gorder, graph) -> np.ndarray:
    """Force the pure-Python loop regardless of kernel availability."""
    state = fasttrace._KERNEL._state
    fasttrace._KERNEL._state = fasttrace.KernelUnavailable("forced off")
    try:
        return technique.compute_mapping(graph)
    finally:
        fasttrace._KERNEL._state = state


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = np.stack(
        [rng.integers(0, n, size=m), rng.integers(0, n, size=m)], axis=1
    )
    return from_edges(n, edges)


def edge_graph(n, pairs):
    return from_edges(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def ring(n):
    return edge_graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(n):
    """Hub 0 pointing at every leaf and back: all leaves tie."""
    return edge_graph(n, [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)])


def complete_bipartite(a, b):
    return edge_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs += [(v, v + 1), (v + 1, v)]
            if r + 1 < rows:
                pairs += [(v, v + cols), (v + cols, v)]
    return edge_graph(rows * cols, pairs)


def mostly_isolated(n, seed):
    """A few small components among isolated vertices: the heap runs dry
    again and again, so placement falls back to the lowest unplaced id."""
    rng = np.random.default_rng(seed)
    touched = rng.choice(n, size=n // 10, replace=False)
    src = rng.choice(touched, size=n // 8)
    dst = rng.choice(touched, size=n // 8)
    return from_edges(n, np.stack([src, dst], axis=1))


def duplicates_and_self_loops(n, seed):
    rng = np.random.default_rng(seed)
    base = np.stack(
        [rng.integers(0, n, size=2 * n), rng.integers(0, n, size=2 * n)], axis=1
    )
    loops = np.repeat(np.arange(0, n, 3), 2)
    edges = np.concatenate([base, base[: n // 2], np.stack([loops, loops], axis=1)])
    return from_edges(n, edges)


def power_law(n, seed):
    """Thousands of vertices with skewed degrees: thousands of heap entries."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1) ** 0.8
    weights /= weights.sum()
    src = rng.choice(n, size=6 * n, p=weights)
    dst = rng.integers(0, n, size=6 * n)
    return from_edges(n, np.stack([src, dst], axis=1))


NAMED_GRAPHS = {
    "ring": lambda: ring(40),
    "star": lambda: star(33),
    "complete-bipartite": lambda: complete_bipartite(7, 9),
    "grid": lambda: grid(9, 11),
    "mostly-isolated": lambda: mostly_isolated(300, seed=4),
    "duplicates-self-loops": lambda: duplicates_and_self_loops(120, seed=5),
    "power-law-3000": lambda: power_law(3000, seed=6),
}


@needs_kernel
class TestGorderKernelEquivalence:
    @given(
        st.integers(min_value=1, max_value=90),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=7),
    )
    @example(n=60, m=300, seed=7, window=1)
    @example(n=90, m=30, seed=8, window=1)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_identical(self, n, m, seed, window):
        graph = random_graph(n, m, seed)
        technique = Gorder(window=window)
        assert np.array_equal(
            technique.compute_mapping(graph), python_mapping(technique, graph)
        )

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_hub_heavy_graphs_identical(self, seed):
        """Hubs past the cap exercise the sibling cut-off path."""
        rng = np.random.default_rng(seed)
        n = 250
        hubs = rng.integers(0, n, size=2)
        src = np.concatenate(
            [rng.integers(0, n, size=3 * n)] + [np.full(n - 1, h) for h in hubs]
        )
        dst = rng.integers(0, n, size=src.size)
        graph = from_edges(n, np.stack([src, dst], axis=1))
        technique = Gorder(window=4)
        assert np.array_equal(
            technique.compute_mapping(graph), python_mapping(technique, graph)
        )

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
    def test_named_graphs_identical(self, name, window):
        graph = NAMED_GRAPHS[name]()
        technique = Gorder(window=window)
        assert np.array_equal(
            technique.compute_mapping(graph), python_mapping(technique, graph)
        )

    def test_engine_env_forces_python_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
        graph = random_graph(40, 160, seed=1)
        technique = Gorder(window=3)
        forced = technique.compute_mapping(graph)
        monkeypatch.delenv("REPRO_TRACE_ENGINE")
        assert np.array_equal(forced, technique.compute_mapping(graph))

    def test_mapping_is_permutation(self):
        graph = random_graph(64, 300, seed=2)
        mapping = Gorder(window=5).compute_mapping(graph)
        assert sorted(mapping.tolist()) == list(range(64))


@pytest.mark.parametrize("engine", ["fast"])
def test_explicit_fast_engine_without_kernel_raises(engine, monkeypatch):
    """An explicitly requested compiled engine never falls back to Python."""
    monkeypatch.setenv("REPRO_TRACE_ENGINE", engine)
    monkeypatch.setattr(
        fasttrace._KERNEL, "_state", fasttrace.KernelUnavailable("forced off")
    )
    with pytest.raises(fasttrace.KernelUnavailable):
        Gorder(window=3).compute_mapping(random_graph(40, 160, seed=1))
