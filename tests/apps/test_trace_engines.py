"""Super-step trace engines: the compiled generator against the numpy oracle.

``GraphApp.trace`` builds its streams either in C straight from the CSR
(``auto``/``fast``) or with the numpy code of
``_trace_pull``/``_trace_push`` through ``TraceBuilder``
(``reference``).  The traces must agree array for array and dtype for
dtype on any input — including the corner cases the keys encode: runs of
zero-degree vertices (whose anchors read the *next* edge's interleave
offset, or the last edge's at the end), unsorted active sets whose core
sequence changes back and forth, and quanta that roll over inside a hub.

The fused stage's windows of interleave quanta are held to the same
oracle: any partition of the quanta, traced window by window and
concatenated by ``StreamingTrace``, must give the whole trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base
from repro.apps.base import INTERLEAVE_QUANTUM, GraphApp, SuperStep, TracePlan
from repro.framework import fasttrace
from repro.framework.fasttrace import KernelUnavailable
from repro.framework.trace import StreamingTrace
from repro.graph import from_edges

needs_kernel = pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)


def make_app(property_bytes: int) -> GraphApp:
    app = GraphApp()
    app.irregular_property_bytes = property_bytes
    return app


def make_plan(direction, active, write_fraction=1.0) -> TracePlan:
    step = SuperStep(direction, active, edges=0, write_fraction=write_fraction)
    return TracePlan("x", (step,), representative=0, total_edges=1)


def assert_same_trace(fast, ref):
    assert fast.instructions == ref.instructions
    assert fast.detail == ref.detail
    for name in ("blocks", "writes", "cores"):
        got, want = getattr(fast.trace, name), getattr(ref.trace, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert fast.trace.accesses == ref.trace.accesses


@st.composite
def graphs(draw):
    """Small CSR graphs with zero-degree runs, hubs, duplicates, self-loops."""
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Up to ~8 vertices per core: with the wider degrees a core's edge run
    # crosses quantum boundaries inside and at the end of its vertices.
    degrees = rng.integers(0, draw(st.sampled_from([3, 8, 40])), size=n)
    degrees[rng.random(n) < 0.4] = 0
    lo, hi = np.sort(rng.integers(0, n + 1, size=2))
    degrees[lo:hi] = 0  # a run of zero-degree vertices
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        # Hubs ending exactly on, or anywhere past, a quantum boundary.
        degrees[rng.integers(n)] = draw(
            st.sampled_from(
                [
                    INTERLEAVE_QUANTUM,
                    2 * INTERLEAVE_QUANTUM,
                    int(rng.integers(1, 3 * INTERLEAVE_QUANTUM)),
                ]
            )
        )
    src = np.repeat(np.arange(n), degrees)
    lo, hi = np.sort(rng.integers(0, n + 1, size=2))
    pool = np.concatenate([np.arange(lo), np.arange(hi, n)])  # zero in-degree run
    if pool.size == 0:
        pool = np.arange(n)
    dst = rng.choice(pool, size=src.size)
    loops = rng.random(src.size) < 0.1
    dst[loops] = src[loops]
    if src.size:
        dup = rng.integers(0, src.size, size=src.size // 4)
        src = np.concatenate([src, src[dup]])
        dst = np.concatenate([dst, dst[dup]])
    weights = None
    if draw(st.booleans()):
        weights = rng.integers(1, 16, size=src.size).astype(float)
    return from_edges(n, np.stack([src, dst], axis=1), weights)


@st.composite
def actives(draw, num_vertices):
    kind = draw(st.sampled_from(["full", "empty", "single", "sorted", "unsorted"]))
    if kind == "full":
        return None
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "single":
        return np.array([draw(st.integers(0, num_vertices - 1))], dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ids = rng.permutation(num_vertices)[: draw(st.integers(1, num_vertices))]
    return np.sort(ids) if kind == "sorted" else ids


@st.composite
def cases(draw):
    graph = draw(graphs())
    active = draw(actives(graph.num_vertices))
    direction = draw(st.sampled_from(["pull", "push"]))
    write_fraction = draw(
        st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=0.99))
    )
    property_bytes = draw(st.sampled_from([4, 8, 12]))
    return graph, make_plan(direction, active, write_fraction), property_bytes


@needs_kernel
class TestKernelMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_fast_matches_reference(self, case):
        graph, plan, property_bytes = case
        app = make_app(property_bytes)
        assert_same_trace(
            app.trace(graph, plan, engine="fast"),
            app.trace(graph, plan, engine="reference"),
        )

    def hub_graph(self, direction="push"):
        """Three hubs in the traversed direction, one ending exactly on a
        quantum boundary; every other vertex has degree zero."""
        degrees = np.zeros(120, dtype=np.int64)
        degrees[[5, 60]] = INTERLEAVE_QUANTUM + 40
        degrees[119] = INTERLEAVE_QUANTUM
        hubs = np.repeat(np.arange(120), degrees)
        others = np.random.default_rng(0).integers(0, 120, size=hubs.size)
        pair = (others, hubs) if direction == "pull" else (hubs, others)
        return from_edges(120, np.stack(pair, axis=1))

    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_zero_degree_tail_reads_last_edge_offset(self, direction):
        graph = self.hub_graph(direction)
        # Trailing zero-degree ids anchor at min(first_edge, E - 1): edge
        # E - 1 closes a quantum, so the next edge's offset would differ,
        # and hub 5's second quantum orders the two apart.
        plan = make_plan(direction, np.array([5, 119, 0, 1, 2], dtype=np.int64))
        app = make_app(8)
        assert_same_trace(
            app.trace(graph, plan, engine="fast"),
            app.trace(graph, plan, engine="reference"),
        )

    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_unsorted_ids_restart_quanta_on_every_core_change(self, direction):
        graph = self.hub_graph(direction)
        plan = make_plan(direction, np.array([60, 4, 5, 119, 6, 5, 60], dtype=np.int64))
        app = make_app(8)
        assert_same_trace(
            app.trace(graph, plan, engine="fast"),
            app.trace(graph, plan, engine="reference"),
        )

    def test_no_edges(self):
        graph = from_edges(10, np.empty((0, 2), dtype=np.int64))
        for direction in ("pull", "push"):
            plan = make_plan(direction, None)
            app = make_app(4)
            fast = app.trace(graph, plan, engine="fast")
            assert_same_trace(fast, app.trace(graph, plan, engine="reference"))
            assert fast.detail["edges"] == 0

    def test_out_of_range_ids_rejected(self):
        graph = self.hub_graph()
        for ids in ([0, 120], [5, -1]):
            plan = make_plan("pull", np.array(ids, dtype=np.int64))
            with pytest.raises(ValueError, match="active vertex ids"):
                make_app(8).trace(graph, plan, engine="fast")

    def test_kernel_inputs_checked_before_any_write(self):
        graph = self.hub_graph()
        geometry = [(4096, 4), (8192, 8), (16384, 8), (32768, 8), (0, 0)]
        kwargs = dict(push=True, num_cores=40, quantum=INTERLEAVE_QUANTUM)
        sizes = fasttrace.superstep_sizes(graph.out_offsets, None, geometry, **kwargs)
        args = (graph.out_offsets, graph.out_targets, None)
        fasttrace.superstep_trace_fast(*args, geometry, sizes, **kwargs)
        for wrong in (sizes - 1, sizes + 1):
            with pytest.raises(ValueError, match="sizes"):
                fasttrace.superstep_trace_fast(*args, geometry, wrong, **kwargs)
        wide = [(4096, 4), (8192, 128), (16384, 8), (32768, 8), (0, 0)]
        with pytest.raises(ValueError, match="geometry"):
            fasttrace.superstep_trace_fast(*args, wide, sizes, **kwargs)
        for cores in (0, 257):
            with pytest.raises(ValueError, match="num_cores"):
                fasttrace.superstep_trace_fast(
                    *args, geometry, sizes, **{**kwargs, "num_cores": cores}
                )

    def test_window_checked_before_any_write(self, monkeypatch):
        graph = self.hub_graph()
        geometry = [(4096, 4), (8192, 8), (16384, 8), (32768, 8), (0, 0)]
        kwargs = dict(push=True, num_cores=40, quantum=INTERLEAVE_QUANTUM)
        sizes = fasttrace.superstep_sizes(graph.out_offsets, None, geometry, **kwargs)

        class NoKernel:
            def __getattr__(self, name):
                raise AssertionError(f"{name} called with a bad window")

        monkeypatch.setattr(fasttrace._KERNEL, "load", NoKernel)
        bad = [dict(window=(-1, None)), dict(window=(-1, 2)), dict(window=(3, 2))]
        for extra in bad:
            with pytest.raises(ValueError, match="window"):
                fasttrace.superstep_sizes(
                    graph.out_offsets, None, geometry, **kwargs, **extra
                )
            with pytest.raises(ValueError, match="window"):
                fasttrace.superstep_trace_fast(
                    graph.out_offsets, graph.out_targets, None, geometry, sizes,
                    **kwargs, **extra,
                )
        with pytest.raises(ValueError, match="quantum"):
            fasttrace.superstep_sizes(
                graph.out_offsets, None, geometry, **{**kwargs, "quantum": 0}
            )


def skewed_graph(num_vertices, num_edges, seed, weighted=False):
    """A power-law-ish multigraph: hubs whose core runs span many quanta,
    and runs of zero-degree vertices in both directions, long enough that
    their vertex-array transitions meet the previous vertex's output
    transition at one key."""
    rng = np.random.default_rng(seed)
    ids = np.arange(num_vertices)
    weights = 1.0 / (ids + 1) ** 0.9
    # Runs of 40 zero-degree ids start one past a multiple of 8, right
    # after an id whose output-array entry opens a cache block.
    weights[(rng.random(num_vertices) < 0.2) | ((ids - 1) // 40 % 7 == 3)] = 0.0
    src = rng.choice(num_vertices, size=num_edges, p=weights / weights.sum())
    dst = rng.integers(0, num_vertices, size=num_edges)
    dst[(dst % 7 == 3) | ((dst - 1) // 40 % 5 == 2)] = 0  # zero in-degree
    values = rng.integers(1, 64, size=num_edges).astype(float) if weighted else None
    return from_edges(num_vertices, np.stack([src, dst], axis=1), values)


@needs_kernel
class TestEmitterCorners:
    """Cases the small hypothesis graphs do not reach: keys so large that
    every interleave offset rounds, where a pull's O entry and the next
    vertex's V entry tie; one interleave quantum per access; one core."""

    @pytest.fixture(scope="class")
    def big(self):
        graph = skewed_graph(1 << 16, (1 << 20) + 4097, seed=11, weighted=True)
        assert graph.num_edges >= 1 << 20
        return graph

    def test_large_magnitude_dense_pull(self, big):
        app = make_app(8)
        step = SuperStep("pull", None, edges=0)
        ref, edges = app._trace_reference(big, step)
        _, trace_window = app._kernel_windows(big, step)
        assert_same_memory_trace(trace_window(0, None), ref)
        assert edges == big.num_edges
        # The keys reach the ties the emitter must order exactly: for
        # consecutive destinations whose edges abut in one quantum, the
        # O key of one (last + 0.3) and the V key of the next
        # (first - 0.7) tie, V first, at magnitudes where every offset
        # rounds.
        lengths = np.diff(big.in_offsets)
        ids = np.flatnonzero(lengths)
        first = big.in_offsets[ids]
        last = first + lengths[ids] - 1
        off = GraphApp._interleave_offsets(base.core_of_vertices(
            np.repeat(np.arange(big.num_vertices), lengths), big.num_vertices
        ))
        o_key = (last[:-1] + 0.3) + off[last[:-1]]
        v_key = (first[1:] - 0.7) + off[first[1:]]
        # Far past the small graphs' keys, where one ulp is 2**-23 or more.
        large = (off[last[:-1]] == off[first[1:]]) & (o_key > 2**29)
        assert np.count_nonzero(o_key[large] == v_key[large]) > 1000

    def test_large_magnitude_weighted_push_sorted_active(self, big):
        app = make_app(12)
        active = np.flatnonzero(np.random.default_rng(5).random(big.num_vertices) < 0.7)
        step = SuperStep("push", active, edges=0, write_fraction=0.37)
        ref, _ = app._trace_reference(big, step)
        sizes, trace_window = app._kernel_windows(big, step)
        assert_same_memory_trace(trace_window(0, None), ref)
        num_quanta = int(sizes[fasttrace.SUPERSTEP_QUANTA])
        bounds = [(q, q + 37) for q in range(0, num_quanta, 37)]
        streamed = StreamingTrace(
            lambda: (trace_window(q0, q1) for q0, q1 in bounds)
        ).materialize()
        assert_same_memory_trace(streamed, ref)

    @pytest.mark.parametrize("num_cores, quantum", [(40, 1), (1, 128), (1, 1)])
    @settings(max_examples=40, deadline=None)
    @given(case=cases())
    def test_one_core_or_one_access_quanta(self, num_cores, quantum, case):
        graph, plan, property_bytes = case
        app = make_app(property_bytes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "INTERLEAVE_QUANTUM", quantum)
            mp.setattr(base, "NUM_CORES", num_cores)
            mp.setattr(
                base,
                "core_of_vertices",
                lambda ids, n, num_cores=num_cores: np.asarray(ids, dtype=np.int64)
                * num_cores
                // max(n, 1),
            )
            assert_same_trace(
                app.trace(graph, plan, engine="fast"),
                app.trace(graph, plan, engine="reference"),
            )


def assert_same_memory_trace(got, want):
    for name in ("blocks", "writes", "cores"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.accesses == want.accesses


@st.composite
def windows(draw, num_quanta):
    """Window bounds partitioning ``[0, num_quanta)``: one-quantum and
    wider windows, empty ones, and windows past the last quantum."""
    bounds, q0 = [], 0
    while q0 < num_quanta:
        q1 = q0 + draw(st.integers(1, 2) | st.integers(1, num_quanta))
        if draw(st.integers(0, 7)) == 0:
            bounds.append((q0, q0))
        bounds.append((q0, q1))
        q0 = q1
    tail = draw(st.sampled_from(["none", "open", "past"]))
    if tail == "open":
        bounds.append((q0, None))
    elif tail == "past":
        bounds.append((q0 + 1, q0 + 3))
    return bounds


@needs_kernel
class TestQuantumWindows:
    """Windows of quanta concatenate to the oracle's trace.  Shrinking
    the quantum cuts windows inside vertices' edge ranges, next to
    zero-degree anchors and across core changes."""

    @settings(max_examples=150, deadline=None)
    @given(cases(), st.sampled_from([1, 2, 3, 5, 16, INTERLEAVE_QUANTUM]), st.data())
    def test_windows_match_reference(self, case, quantum, data):
        graph, plan, property_bytes = case
        app = make_app(property_bytes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "INTERLEAVE_QUANTUM", quantum)
            want = app.trace(graph, plan, engine="reference").trace
            sizes, trace_window = app._kernel_windows(graph, plan.traced)
            bounds = data.draw(windows(int(sizes[fasttrace.SUPERSTEP_QUANTA])))
            streamed = StreamingTrace(
                lambda: (trace_window(q0, q1) for q0, q1 in bounds)
            ).materialize()
        for name in ("blocks", "writes", "cores"):
            got = getattr(streamed, name)
            assert got.dtype == getattr(want, name).dtype, name
            assert got.tobytes() == getattr(want, name).tobytes(), name
        assert streamed.accesses == want.accesses

    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_quanta_count_covers_every_edge(self, direction):
        graph = TestKernelMatchesReference().hub_graph(direction)
        sizes, trace_window = make_app(8)._kernel_windows(
            graph, make_plan(direction, None).traced
        )
        # Each hub is its core's only run of edges; the longest has 168.
        assert sizes[fasttrace.SUPERSTEP_QUANTA] == 2
        assert trace_window(1, 2).accesses > 0
        assert trace_window(2, None).accesses == 0


class TestDispatch:
    def graph_and_plan(self):
        graph = from_edges(
            6, np.array([(0, 1), (0, 2), (3, 1), (3, 3), (5, 0)], dtype=np.int64)
        )
        return graph, make_plan("pull", None)

    def test_reference_never_calls_the_kernel(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("kernel called under the reference engine")

        monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
        monkeypatch.setattr(fasttrace._KERNEL, "load", boom)
        monkeypatch.setattr(fasttrace, "superstep_trace_fast", boom)
        graph, plan = self.graph_and_plan()
        assert make_app(8).trace(graph, plan).trace.total_accesses > 0

    def test_fast_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fasttrace._KERNEL, "_state", KernelUnavailable("forced off")
        )
        graph, plan = self.graph_and_plan()
        with pytest.raises(KernelUnavailable):
            make_app(8).trace(graph, plan, engine="fast")

    def test_auto_falls_back_when_unavailable(self, monkeypatch):
        graph, plan = self.graph_and_plan()
        app = make_app(8)
        expected = app.trace(graph, plan, engine="reference")
        monkeypatch.setattr(
            fasttrace._KERNEL, "_state", KernelUnavailable("forced off")
        )
        assert_same_trace(app.trace(graph, plan, engine="auto"), expected)
