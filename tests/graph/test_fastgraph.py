"""Graph-kernel equivalence, dispatch and validation tests.

The compiled relabel and dual-CSR-build kernels must be *bit-identical*
to the numpy references on any input — the contract that lets
``Graph.relabel`` and the stable ``_build_dual_csr`` path switch engines
transparently (mirroring the trace-kernel suite in
``tests/framework/test_fasttrace.py``).  The forced-reference tests also
prove the whole suite passes on machines without a C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import fastgraph
from repro.graph.csr import Graph, _build_dual_csr
from repro.graph.fastgraph import (
    CheckedCSR,
    KernelUnavailable,
    fast_available,
    resolve_graph_engine,
)
from tests.conftest import make_random_graph

needs_kernel = pytest.mark.skipif(
    not fast_available(), reason="no C compiler for the graph kernels"
)


@st.composite
def random_graphs(draw):
    """Random multigraphs: self-loops, parallel edges, isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = draw(st.integers(min_value=0, max_value=4 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.uniform(-1e6, 1e6, size=m) if weighted else None
    return n, src, dst, weights, rng


def assert_graphs_identical(ref: Graph, fast: Graph) -> None:
    assert ref.num_vertices == fast.num_vertices
    assert ref.num_edges == fast.num_edges
    for name in ("out_offsets", "out_targets", "in_offsets", "in_sources"):
        a, b = getattr(ref, name), getattr(fast, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert ref.is_weighted == fast.is_weighted
    if ref.is_weighted:
        # tobytes: weights must match bit for bit, not just numerically
        assert ref.out_weights.tobytes() == fast.out_weights.tobytes()
        assert ref.in_weights.tobytes() == fast.in_weights.tobytes()


@needs_kernel
class TestBuildEquivalence:
    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_build_matches_reference(self, data):
        n, src, dst, weights, _ = data
        ref = _build_dual_csr(n, src, dst, weights, stable=True, engine="reference")
        fast = _build_dual_csr(n, src, dst, weights, stable=True, engine="fast")
        assert_graphs_identical(ref, fast)

    def test_empty_edge_list(self):
        ref = _build_dual_csr(
            5, np.empty(0, int), np.empty(0, int), None,
            stable=True, engine="reference",
        )
        fast = _build_dual_csr(
            5, np.empty(0, int), np.empty(0, int), None,
            stable=True, engine="fast",
        )
        assert_graphs_identical(ref, fast)
        assert fast.num_edges == 0

    def test_zero_vertices(self):
        fast = _build_dual_csr(
            0, np.empty(0, int), np.empty(0, int), None,
            stable=True, engine="fast",
        )
        assert fast.num_vertices == 0
        assert fast.out_offsets.tolist() == [0]
        assert fast.in_offsets.tolist() == [0]

    def test_multi_edges_keep_input_order(self):
        """Parallel edges must land in input order (stability)."""
        src = np.array([1, 1, 1, 0])
        dst = np.array([0, 0, 0, 1])
        weights = np.array([10.0, 20.0, 30.0, 5.0])
        ref = _build_dual_csr(2, src, dst, weights, stable=True, engine="reference")
        fast = _build_dual_csr(2, src, dst, weights, stable=True, engine="fast")
        assert_graphs_identical(ref, fast)
        assert fast.out_weights.tolist() == [5.0, 10.0, 20.0, 30.0]
        assert fast.in_weights.tolist() == [10.0, 20.0, 30.0, 5.0]

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.build_csr_arrays(2, np.array([0, 2]), np.array([1, 0]), None)
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.build_csr_arrays(2, np.array([0, -1]), np.array([1, 0]), None)
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.build_csr_arrays(0, np.array([0]), np.array([0]), None)

    def test_strided_columns_read_in_place(self):
        """The columns of an (E, 2) array build the same CSR as contiguous
        copies, as do columns of another dtype (copied)."""
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 300, size=(5_000, 2))
        weights = rng.random(5_000)
        want = fastgraph.build_csr_arrays(
            300, edges[:, 0].copy(), edges[:, 1].copy(), weights
        )
        for columns in (edges, edges.astype(np.int32), edges[::-1][::-1]):
            got = fastgraph.build_csr_arrays(300, columns[:, 0], columns[:, 1], weights)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", [-1, 300])
def test_from_edges_checks_endpoints_under_every_engine(
    engine, column, value, monkeypatch
):
    """One range check runs before any scatter, whichever engine builds
    the CSR, and it raises the same error."""
    if engine != "reference" and not fast_available():
        pytest.skip("no C compiler for the graph kernels")
    from repro.graph import from_edges

    monkeypatch.setenv("REPRO_GRAPH_ENGINE", engine)
    edges = np.random.default_rng(3).integers(0, 300, size=(20_000, 2))
    edges[12_345, column] = value
    for weights in (None, np.ones(len(edges))):
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            from_edges(300, edges, weights)
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            from_edges(300, edges, weights, symmetrize=True, dedup=True)


@needs_kernel
class TestRelabelEquivalence:
    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_relabel_matches_reference(self, data):
        n, src, dst, weights, rng = data
        graph = _build_dual_csr(n, src, dst, weights, stable=True, engine="reference")
        mapping = rng.permutation(n)
        ref = graph.relabel(mapping, engine="reference")
        fast = graph.relabel(mapping, engine="fast")
        assert_graphs_identical(ref, fast)

    def test_single_vertex(self):
        graph = _build_dual_csr(
            1, np.array([0, 0]), np.array([0, 0]), None,
            stable=True, engine="reference",
        )
        assert_graphs_identical(
            graph.relabel([0], engine="reference"),
            graph.relabel([0], engine="fast"),
        )

    def test_empty_graph(self):
        graph = _build_dual_csr(
            0, np.empty(0, int), np.empty(0, int), None,
            stable=True, engine="reference",
        )
        fast = graph.relabel(np.empty(0, int), engine="fast")
        assert fast.num_vertices == 0
        assert fast.out_offsets.tolist() == [0]

    def test_weighted_roundtrip(self):
        """relabel(p) then relabel(p^-1) restores the original graph."""
        graph = make_random_graph(40, 300, seed=7, weighted=True)
        rng = np.random.default_rng(11)
        mapping = rng.permutation(40)
        inverse = np.argsort(mapping)
        restored = graph.relabel(mapping, engine="fast").relabel(
            inverse, engine="fast"
        )
        assert_graphs_identical(graph, restored)


class TestRelabelValidation:
    """Regression: invalid permutations must never silently wrap."""

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_negative_entries_rejected(self, engine):
        # [-1, 0] wraps through fancy indexing: check[[-1, 0]] marks both
        # cells of a 2-vertex graph, so the permutation test alone passes.
        graph = _build_dual_csr(
            2, np.array([0, 1]), np.array([1, 0]), None, stable=True
        )
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            graph.relabel(np.array([-1, 0]), engine=engine)

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_out_of_range_entries_rejected(self, engine):
        graph = _build_dual_csr(
            2, np.array([0, 1]), np.array([1, 0]), None, stable=True
        )
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            graph.relabel(np.array([2, 0]), engine=engine)
        # Values past 2**32 would alias small ints under a bare int32 cast.
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            graph.relabel(np.array([2**32, 0]), engine=engine)

    def test_duplicate_entries_rejected(self):
        graph = _build_dual_csr(
            3, np.array([0, 1]), np.array([1, 2]), None, stable=True
        )
        with pytest.raises(ValueError, match="not a permutation"):
            graph.relabel(np.array([0, 0, 2]))

    def test_wrong_length_rejected(self):
        graph = _build_dual_csr(
            3, np.array([0, 1]), np.array([1, 2]), None, stable=True
        )
        with pytest.raises(ValueError, match="one entry per vertex"):
            graph.relabel(np.array([0, 1]))


class TestDispatch:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH_ENGINE", raising=False)
        assert resolve_graph_engine(None) == "auto"
        monkeypatch.setenv("REPRO_GRAPH_ENGINE", "reference")
        assert resolve_graph_engine(None) == "reference"
        assert resolve_graph_engine("fast") == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_graph_engine("vectorized")

    def test_fast_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fastgraph._KERNEL, "_state", KernelUnavailable("forced off")
        )
        graph = _build_dual_csr(
            2, np.array([0, 1]), np.array([1, 0]), None, stable=True
        )
        with pytest.raises(KernelUnavailable):
            graph.relabel(np.array([1, 0]), engine="fast")
        with pytest.raises(KernelUnavailable):
            _build_dual_csr(
                2, np.array([0, 1]), np.array([1, 0]), None,
                stable=True, engine="fast",
            )

    def test_auto_falls_back_when_unavailable(self, monkeypatch):
        """The whole graph layer must work without a C compiler."""
        monkeypatch.setattr(
            fastgraph._KERNEL, "_state", KernelUnavailable("forced off")
        )
        graph = make_random_graph(20, 80, seed=2, weighted=True)
        mapping = np.random.default_rng(3).permutation(20)
        relabelled = graph.relabel(mapping, engine="auto")
        assert relabelled.num_edges == graph.num_edges
        rebuilt = _build_dual_csr(
            20, *graph.edge_array(), graph.out_weights,
            stable=True, engine="auto",
        )
        assert rebuilt == graph

    @needs_kernel
    def test_forced_reference_matches_fast(self, monkeypatch):
        graph = make_random_graph(30, 150, seed=9)
        mapping = np.random.default_rng(4).permutation(30)
        fast = graph.relabel(mapping, engine="fast")
        monkeypatch.setenv("REPRO_GRAPH_ENGINE", "reference")
        ref = graph.relabel(mapping)
        assert_graphs_identical(ref, fast)


def _plan_inputs(n, src, dst, rng):
    """In/out CSR of a random multigraph plus order-sensitive per-vertex values."""
    graph = _build_dual_csr(n, src, dst, None, stable=True, engine="reference")
    # Magnitudes spanning 16 decades make float addition order-sensitive.
    sums = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    masks = rng.integers(0, 2**63, size=n, dtype=np.uint64) << np.uint64(1)
    active = np.flatnonzero(rng.random(n) < rng.random())
    return graph, sums, masks, active


@needs_kernel
class TestPlanKernelEquivalence:
    """The PageRank / Radii / PageRank-Delta round kernels vs numpy."""

    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_pull_sum_matches_reference(self, data):
        n, src, dst, _, rng = data
        graph, sums, _, _ = _plan_inputs(n, src, dst, rng)
        args = (CheckedCSR(graph.in_offsets, graph.in_sources), sums)
        ref = fastgraph.pull_sum(*args, engine="reference")
        fast = fastgraph.pull_sum(*args, engine="fast")
        assert ref.dtype == fast.dtype == np.float64
        assert ref.tobytes() == fast.tobytes()

    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_pull_or_matches_reference(self, data):
        n, src, dst, _, rng = data
        graph, _, masks, _ = _plan_inputs(n, src, dst, rng)
        args = (CheckedCSR(graph.in_offsets, graph.in_sources), masks)
        ref = fastgraph.pull_or(*args, engine="reference")
        fast = fastgraph.pull_or(*args, engine="fast")
        assert ref.dtype == fast.dtype == np.uint64
        assert np.array_equal(ref, fast)

    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_push_sum_matches_reference(self, data):
        n, src, dst, _, rng = data
        graph, sums, _, active = _plan_inputs(n, src, dst, rng)
        args = (CheckedCSR(graph.out_offsets, graph.out_targets), sums, active)
        ref = fastgraph.push_sum(*args, engine="reference")
        fast = fastgraph.push_sum(*args, engine="fast")
        assert ref.dtype == fast.dtype == np.float64
        assert ref.tobytes() == fast.tobytes()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_empty_graph(self, engine):
        csr = CheckedCSR(np.zeros(1, np.int64), np.empty(0, np.int32))
        assert fastgraph.pull_sum(csr, np.empty(0), engine=engine).size == 0
        masks = np.empty(0, np.uint64)
        assert fastgraph.pull_or(csr, masks, engine=engine).size == 0
        pushed = fastgraph.push_sum(
            csr, np.empty(0), np.empty(0, np.int64), engine=engine
        )
        assert pushed.size == 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_empty_active_set_pushes_nothing(self, engine):
        graph = make_random_graph(10, 40, seed=5)
        out_csr = CheckedCSR(graph.out_offsets, graph.out_targets)
        pushed = fastgraph.push_sum(out_csr, np.ones(10), [], engine=engine)
        assert pushed.tobytes() == np.zeros(10).tobytes()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_self_loops_duplicates_and_isolated_vertices(self, engine):
        # 0->0 twice, 0->1, 2->1; vertex 3 has no edges at all.
        graph = _build_dual_csr(
            4, np.array([0, 0, 0, 2]), np.array([0, 0, 1, 1]), None, stable=True
        )
        in_csr = CheckedCSR(graph.in_offsets, graph.in_sources)
        out_csr = CheckedCSR(graph.out_offsets, graph.out_targets)
        values = np.array([1.0, 10.0, 100.0, 1000.0])
        pulled = fastgraph.pull_sum(in_csr, values, engine=engine)
        assert pulled.tolist() == [2.0, 101.0, 0.0, 0.0]
        masks = np.array([1, 2, 4, 8], dtype=np.uint64)
        ored = fastgraph.pull_or(in_csr, masks, engine=engine)
        assert ored.tolist() == [1, 5, 0, 0]
        pushed = fastgraph.push_sum(out_csr, values, [0, 3], engine=engine)
        assert pushed.tolist() == [2.0, 1.0, 0.0, 0.0]

    def test_sum_order_is_the_in_csr_order(self):
        """Left to right from 0.0: (1 + 1e16) - 1e16 is 0, any other order 1."""
        graph = _build_dual_csr(
            4, np.array([1, 2, 3]), np.zeros(3, int), None, stable=True
        )
        in_csr = CheckedCSR(graph.in_offsets, graph.in_sources)
        out_csr = CheckedCSR(graph.out_offsets, graph.out_targets)
        values = np.array([0.0, 1.0, 1e16, -1e16])
        for engine in ("reference", "fast"):
            pulled = fastgraph.pull_sum(in_csr, values, engine=engine)
            assert pulled[0] == 0.0
            pushed = fastgraph.push_sum(out_csr, values, [1, 2, 3], engine=engine)
            assert pushed[0] == 0.0


class TestPlanKernelValidation:
    """Bad CSR or id arrays raise under either engine, before any kernel."""

    @staticmethod
    def _graph():
        return _build_dual_csr(
            3, np.array([0, 1, 2]), np.array([1, 2, 0]), None, stable=True
        )

    def test_view_validates_on_construction(self):
        # A bad CSR fails when its view is built, before any round runs.
        graph = self._graph()
        with pytest.raises(ValueError, match="out of range"):
            CheckedCSR(graph.in_offsets, np.array([0, 5, 1]))
        with pytest.raises(ValueError, match="offsets"):
            CheckedCSR(np.array([0, 2, 1, 3]), graph.in_sources)
        in_csr = CheckedCSR(graph.in_offsets, graph.in_sources)
        assert in_csr.num_vertices == 3
        assert in_csr.offsets.dtype == np.int64 and in_csr.ids.dtype == np.int32

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize("active", [[2, 1], [1, 1], [-1, 0], [0, 3]])
    def test_bad_active_ids_rejected(self, engine, active):
        graph = self._graph()
        out_csr = CheckedCSR(graph.out_offsets, graph.out_targets)
        with pytest.raises(ValueError, match="active vertex ids?"):
            fastgraph.push_sum(out_csr, np.ones(3), active, engine=engine)

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize("bad", [-1, 3, 2**32])
    def test_out_of_range_ids_rejected(self, engine, bad):
        graph = self._graph()
        ids = graph.in_sources.astype(np.int64)
        ids[1] = bad
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.pull_sum(
                CheckedCSR(graph.in_offsets, ids), np.ones(3), engine=engine
            )
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.pull_or(
                CheckedCSR(graph.in_offsets, ids),
                np.ones(3, np.uint64),
                engine=engine,
            )
        with pytest.raises(ValueError, match="out of range"):
            fastgraph.push_sum(
                CheckedCSR(graph.out_offsets, ids),
                np.ones(3),
                [0, 1, 2],
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize(
        "offsets", [[1, 1, 2, 3], [0, 1, 2, 4], [0, 2, 1, 3], []]
    )
    def test_bad_offsets_rejected(self, engine, offsets):
        graph = self._graph()
        with pytest.raises(ValueError, match="offsets"):
            fastgraph.pull_sum(
                CheckedCSR(np.array(offsets, dtype=np.int64), graph.in_sources),
                np.ones(3),
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_wrong_value_count_rejected(self, engine):
        graph = self._graph()
        in_csr = CheckedCSR(graph.in_offsets, graph.in_sources)
        with pytest.raises(ValueError, match="one value per vertex"):
            fastgraph.pull_sum(in_csr, np.ones(2), engine=engine)

    def test_fast_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fastgraph._KERNEL, "_state", KernelUnavailable("forced off")
        )
        graph = self._graph()
        in_csr = CheckedCSR(graph.in_offsets, graph.in_sources)
        with pytest.raises(KernelUnavailable):
            fastgraph.pull_sum(in_csr, np.ones(3), engine="fast")
        pulled = fastgraph.pull_sum(in_csr, np.ones(3), engine="auto")
        assert pulled.tolist() == [1.0, 1.0, 1.0]


class TestDegreeCaching:
    def test_degrees_cached_and_readonly(self):
        graph = make_random_graph(16, 60, seed=1)
        out = graph.out_degrees()
        assert out is graph.out_degrees()  # same object: cached
        assert not out.flags.writeable
        inn = graph.in_degrees()
        assert inn is graph.in_degrees()
        assert not inn.flags.writeable

    def test_degrees_correct(self):
        graph = make_random_graph(16, 60, seed=1)
        assert np.array_equal(graph.out_degrees(), np.diff(graph.out_offsets))
        assert np.array_equal(graph.in_degrees(), np.diff(graph.in_offsets))
        assert np.array_equal(
            graph.degrees("both"), graph.out_degrees() + graph.in_degrees()
        )

    def test_kernel_built_graphs_cache_too(self):
        graph = _build_dual_csr(
            4, np.array([0, 1, 2]), np.array([1, 2, 3]), None, stable=True
        )
        assert graph.out_degrees() is graph.out_degrees()
        assert graph.degrees("out").tolist() == [1, 1, 1, 0]
