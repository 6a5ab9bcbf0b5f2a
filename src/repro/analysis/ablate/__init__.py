"""``repro-ablate`` — declarative ablation enumeration and ranking.

The repo accumulated ~10 ad-hoc sweep functions (``analysis/ablations``)
plus a pile of one-off engine/transport/store toggles scattered across
benchmark scripts.  This package turns all of those axes into one
deterministic harness:

* :mod:`repro.analysis.ablate.spec` — ablations as declarative data: an
  :class:`Ablation` names one component toggle (engine selection,
  artifact store, fused-streaming threshold, DBG knobs, replacement
  policy, dataset diameter), an :class:`AblationSuite` fixes
  the grid it is measured on.
* :mod:`repro.analysis.ablate.ids` — every enumerated run gets a
  **content-derived run id**: a truncated SHA-256 of the canonicalized
  spec, stable across enumeration order, dict key order and process
  restarts (property-tested in ``tests/analysis/test_ablate_ids.py``).
* :mod:`repro.analysis.ablate.runner` — executes runs through
  :func:`~repro.pipeline.grid.run_grid` against one shared
  :class:`~repro.pipeline.store.ArtifactStore`, so stage artifacts
  dedup exactly-once across ablations; infrastructure ablations that
  must actually exercise their alternate code path run in a store
  namespace keyed by component.
* :mod:`repro.analysis.ablate.report` — ranks component importance from
  the metrics each observed run's ``manifest.json`` records and emits a
  byte-deterministic ``ablation_report.json``.

The CLI lives in :mod:`repro.tools.ablate_tool` (``repro-ablate``).
"""

from repro.analysis.ablate.ids import canonical, run_id, spec_digest
from repro.analysis.ablate.report import (
    REPORT_SCHEMA,
    build_report,
    load_report,
    render_ranking,
    write_report,
)
from repro.analysis.ablate.runner import AblationOutcome, execute_run, execute_suite
from repro.analysis.ablate.spec import (
    Ablation,
    AblationRun,
    AblationSuite,
    enumerate_runs,
    full_suite,
    smoke_suite,
    suite_by_name,
)

__all__ = [
    "Ablation",
    "AblationOutcome",
    "AblationRun",
    "AblationSuite",
    "REPORT_SCHEMA",
    "build_report",
    "canonical",
    "enumerate_runs",
    "execute_run",
    "execute_suite",
    "full_suite",
    "load_report",
    "render_ranking",
    "run_id",
    "smoke_suite",
    "spec_digest",
    "suite_by_name",
    "write_report",
]
