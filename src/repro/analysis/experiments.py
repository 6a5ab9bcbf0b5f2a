"""Derived metrics over the experiment pipeline's cells.

One *cell* of the paper's evaluation grid is (application, dataset,
reordering technique).  Cells come from a
:class:`~repro.pipeline.cells.CellPipeline` (``pipeline.cell`` for one,
:func:`repro.pipeline.run_grid` for a whole grid); the tables, figures
and ablations turn them into the paper's speed-ups with the two helpers
here.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.cells import ROOT_APPS, CellPipeline

__all__ = ["speedup", "geomean_speedup"]


def speedup(
    pipeline: CellPipeline,
    app_name: str,
    dataset: str,
    technique_name: str,
    include_reorder: bool = False,
    traversals: int | None = None,
) -> float:
    """Speed-up (%) of a technique over the original ordering."""
    base = pipeline.cell(app_name, dataset, "Original")
    cell = pipeline.cell(app_name, dataset, technique_name)
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
