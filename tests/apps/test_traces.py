"""Tests for application trace generation (the cache simulator's input)."""

import numpy as np
import pytest

from repro.apps import APPS, make_app
from repro.apps.base import core_of_vertices
from repro.apps.registry import APP_ORDER
from tests.conftest import make_random_graph


def run_and_trace(app_name, graph):
    app = make_app(app_name)
    kwargs = {"root": 0} if app_name in ("SSSP", "BC") else {}
    plan = app.plan(graph, **kwargs)
    return app, plan, app.trace(graph, plan)


@pytest.fixture
def graphs():
    return {
        "plain": make_random_graph(num_vertices=80, num_edges=600, seed=1),
        "weighted": make_random_graph(num_vertices=80, num_edges=600, seed=1, weighted=True),
    }


class TestCoreAssignment:
    def test_partition_is_balanced_and_monotone(self):
        cores = core_of_vertices(np.arange(100), 100, num_cores=4)
        assert cores.min() == 0 and cores.max() == 3
        assert np.all(np.diff(cores) >= 0)
        assert np.bincount(cores).tolist() == [25, 25, 25, 25]


@pytest.mark.parametrize("app_name", APP_ORDER)
class TestTraceWellFormed:
    def test_trace_nonempty_and_positive(self, app_name, graphs):
        graph = graphs["weighted" if app_name == "SSSP" else "plain"]
        _, plan, app_trace = run_and_trace(app_name, graph)
        assert len(app_trace.trace) > 0
        assert app_trace.instructions > 0
        assert app_trace.superstep_multiplier >= 1.0
        assert app_trace.trace.accesses >= len(app_trace.trace)

    def test_direction_matches_computation(self, app_name, graphs):
        graph = graphs["weighted" if app_name == "SSSP" else "plain"]
        app, plan, _ = run_and_trace(app_name, graph)
        if app.computation == "push":
            assert plan.traced.direction == "push"
        elif app.computation == "pull":
            assert plan.traced.direction == "pull"

    def test_push_traces_have_writes(self, app_name, graphs):
        graph = graphs["weighted" if app_name == "SSSP" else "plain"]
        _, plan, app_trace = run_and_trace(app_name, graph)
        if plan.traced.direction == "push":
            assert app_trace.trace.writes.any()

    def test_access_count_scales_with_edges(self, app_name, graphs):
        graph = graphs["weighted" if app_name == "SSSP" else "plain"]
        _, plan, app_trace = run_and_trace(app_name, graph)
        edges = plan.traced.edges
        # At least one property access per traversed edge.
        assert app_trace.trace.total_accesses >= edges


class TestRemapInvariance:
    """Relabelling must preserve the logical access structure."""

    @pytest.mark.parametrize("app_name", ["PR", "SSSP", "Radii"])
    def test_access_totals_invariant(self, app_name, graphs):
        graph = graphs["weighted" if app_name == "SSSP" else "plain"]
        app, plan, base_trace = run_and_trace(app_name, graph)
        mapping = np.random.default_rng(4).permutation(graph.num_vertices)
        relabelled = graph.relabel(mapping)
        moved_trace = app.trace(relabelled, plan.remap(mapping))
        assert moved_trace.instructions == base_trace.instructions
        assert moved_trace.trace.total_accesses == pytest.approx(
            base_trace.trace.total_accesses, rel=0.02
        )

    def test_remap_maps_active_sets(self, graphs):
        app, plan, _ = run_and_trace("SSSP", graphs["weighted"])
        mapping = np.random.default_rng(5).permutation(
            graphs["weighted"].num_vertices
        )
        remapped = plan.remap(mapping)
        for step, moved in zip(plan.supersteps, remapped.supersteps):
            if step.active is not None:
                assert sorted(mapping[step.active].tolist()) == moved.active.tolist()
            assert step.edges == moved.edges


class TestRegistry:
    def test_all_apps_present(self):
        assert {"BC", "SSSP", "PR", "PRD", "Radii"} <= set(APPS)
        assert {"CC", "KCore"} <= set(APPS)  # extension apps

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            make_app("KMeans")

    def test_paper_table8_metadata(self):
        expectations = {
            "BC": ("pull-push", "out", 8),
            "SSSP": ("push", "in", 8),
            "PR": ("pull", "out", 12),
            "PRD": ("push", "in", 8),
            "Radii": ("pull-push", "out", 8),
        }
        for name, (computation, kind, prop_bytes) in expectations.items():
            app = make_app(name)
            assert app.computation == computation, name
            assert app.reorder_degree_kind == kind, name
            assert app.irregular_property_bytes == prop_bytes, name
