"""The user-facing facade over the experiment pipeline.

One *cell* of the paper's evaluation grid is (application, dataset,
reordering technique).  Producing a cell walks the declared stage DAG
(generate → mapping → relabel → trace → simulate → model); the heavy
lifting lives in :mod:`repro.pipeline`:

* :class:`~repro.pipeline.cells.CellPipeline` executes the stage graph;
* :class:`~repro.pipeline.store.ArtifactStore` persists the expensive
  stage outputs (mappings, cell results) content-addressed and
  schema-versioned;
* :func:`~repro.pipeline.grid.run_grid` schedules whole grids as a
  mapping phase and one job per ``(app, dataset)`` group, so each unique
  mapping, plan and trace is computed exactly once across all cells and
  workers.

:class:`ExperimentRunner` keeps the historical surface (``cell``,
``run_grid``, ``speedup``) for the tables/figures/report layers and the
notebooks, and simply delegates.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline import grid as _grid
from repro.pipeline.cells import (  # noqa: F401  (re-exported surface)
    PAPER_TRAVERSALS,
    ROOT_APPS,
    CellPipeline,
    CellResult,
    ExperimentConfig,
)
from repro.pipeline.store import ArtifactStore

__all__ = ["ExperimentConfig", "ExperimentRunner", "CellResult"]


class ExperimentRunner:
    """Produces memoized cell results and derived speedups.

    A thin facade over :class:`~repro.pipeline.cells.CellPipeline`: the
    runner owns one pipeline (and hence one artifact store) and forwards
    the building-block accessors the analysis layers and tests use.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        self.pipeline = CellPipeline(config, store)

    @property
    def config(self) -> ExperimentConfig:
        return self.pipeline.config

    @property
    def store(self) -> ArtifactStore:
        return self.pipeline.store

    # -- building blocks ---------------------------------------------------
    def graph(self, dataset: str, weighted: bool = False):
        return self.pipeline.graph(dataset, weighted)

    def roots(self, dataset: str) -> list[int]:
        """Deterministic traversal roots with non-trivial out-degree."""
        return self.pipeline.roots(dataset)

    def mapping(self, dataset: str, technique_name: str, degree_kind: str):
        """Permutation for (dataset, technique); store-memoized."""
        return self.pipeline.mapping(dataset, technique_name, degree_kind)

    def _make(self, technique_name: str, degree_kind: str):
        return self.pipeline.make_technique(technique_name, degree_kind)

    def reordered_graph(
        self, dataset: str, technique_name: str, degree_kind: str, weighted: bool
    ):
        return self.pipeline.reordered_graph(
            dataset, technique_name, degree_kind, weighted
        )

    def plan(self, app_name: str, dataset: str, root: int | None = None):
        """Application execution plan recorded on the original ordering."""
        return self.pipeline.plan(app_name, dataset, root)

    def app_trace(
        self, app_name: str, dataset: str, technique_name: str, root: int | None
    ):
        """Build the :class:`AppTrace` of one (cell, root); never stored."""
        return self.pipeline.compute_trace_stage(
            app_name, dataset, technique_name, root
        )

    # -- cells ---------------------------------------------------------------
    def cell(self, app_name: str, dataset: str, technique_name: str) -> CellResult:
        """Memoized counters for one grid cell (see module docstring)."""
        return self.pipeline.cell(app_name, dataset, technique_name)

    def run_grid(
        self,
        apps: list[str],
        datasets: list[str],
        techniques: list[str],
        workers: int | None = None,
        share_graphs: bool = True,
        policies: list[str] | None = None,
    ) -> list[CellResult]:
        """All cells of the (apps x datasets x techniques) cross-product.

        Results come back in cross-product order (apps outermost,
        techniques innermost), identical to calling :meth:`cell`
        serially.  The work runs as one group per ``(app, dataset)``;
        ``workers > 1`` fans the groups out over a process pool after a
        mapping phase — see :func:`repro.pipeline.grid.run_grid` for the
        phase plan and how workers inherit the parent's graphs
        (``share_graphs=False`` makes them regenerate instead).
        ``policies`` adds a replacement-policy axis (policy-outermost
        result order); mappings, plans and traces are shared across
        policies.
        """
        return _grid.run_grid(
            self.pipeline,
            apps,
            datasets,
            techniques,
            workers,
            share_graphs,
            policies=policies,
        )

    # -- derived metrics -----------------------------------------------------
    def speedup(
        self,
        app_name: str,
        dataset: str,
        technique_name: str,
        include_reorder: bool = False,
        traversals: int | None = None,
    ) -> float:
        """Speed-up (%) of a technique over the original ordering."""
        base = self.cell(app_name, dataset, "Original")
        cell = self.cell(app_name, dataset, technique_name)
        if app_name in ROOT_APPS and traversals is not None:
            base_run = base.unit_cycles * traversals
            run = cell.unit_cycles * traversals
        else:
            base_run = base.run_cycles
            run = cell.run_cycles
        if include_reorder:
            run += cell.reorder_cycles
        return (base_run / run - 1.0) * 100.0


def geomean_speedup(speedups_pct: list[float]) -> float:
    """Geometric mean of speed-ups expressed in percent (paper's GMean)."""
    ratios = np.array([1.0 + s / 100.0 for s in speedups_pct])
    if np.any(ratios <= 0):
        raise ValueError("speed-up below -100% is not meaningful")
    return float((np.exp(np.log(ratios).mean()) - 1.0) * 100.0)
