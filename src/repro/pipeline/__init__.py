"""Staged experiment pipeline over a content-addressed artifact store.

The package splits what used to be one monolithic experiment runner into
four orthogonal layers:

* :mod:`repro.pipeline.store` — :class:`ArtifactStore`: atomic,
  schema-versioned, corruption-tolerant persistence with per-kind
  hit/miss/byte statistics and GC (the ``repro-cache`` CLI sits on top);
* :mod:`repro.pipeline.stages` — the fused-trace routing plus the key
  builders every producer and consumer shares;
* :mod:`repro.pipeline.cells` — :class:`CellPipeline`, which runs the
  stages for one experiment configuration, each under a ``kind="stage"``
  span (the only record of what ran), and runs any other
  configuration as a memo-sharing :meth:`CellPipeline.view`;
* :mod:`repro.pipeline.grid` — :func:`run_grid`, the grid scheduler
  (a mapping phase, then one job per ``(app, dataset)`` group; each
  unique mapping, plan and trace computed exactly once across all cells
  and workers).

The tables, figures, ablations and CLIs hold a :class:`CellPipeline`
and call :func:`run_grid` on it directly; the serving layer feeds the
same pipeline's jobs to :class:`StageExecutor` one request at a time.
"""

from repro.pipeline.cells import (
    PAPER_TRAVERSALS,
    ROOT_APPS,
    CellPipeline,
    CellResult,
    ExperimentConfig,
)
from repro.pipeline.grid import StageExecutor, plan_stage_jobs, run_grid
from repro.pipeline.stages import cell_key, mapping_key
from repro.pipeline.store import (
    SCHEMA_VERSION,
    ArtifactInfo,
    ArtifactStore,
    KindStats,
    StoreStats,
    default_store_dir,
    diff_store_snapshots,
)

__all__ = [
    "ArtifactInfo",
    "ArtifactStore",
    "CellPipeline",
    "CellResult",
    "ExperimentConfig",
    "KindStats",
    "PAPER_TRAVERSALS",
    "ROOT_APPS",
    "SCHEMA_VERSION",
    "StageExecutor",
    "StoreStats",
    "cell_key",
    "default_store_dir",
    "diff_store_snapshots",
    "mapping_key",
    "plan_stage_jobs",
    "run_grid",
]
