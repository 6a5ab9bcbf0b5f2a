"""Execute enumerated ablation runs through the shared grid scheduler.

Every run goes through :func:`repro.pipeline.run_grid` under an
observed :class:`~repro.observability.run.RunContext` whose id *is* the
run's content id — the ``runs/<run_id>/manifest.json`` a run leaves
behind is addressable from the spec alone.  Store placement follows the
ablation's execution class (see :mod:`repro.analysis.ablate.spec`):
semantic ablations share the root store and dedup common stage
artifacts exactly-once; ``isolate`` ablations get a per-component store
namespace; ``ephemeral_store`` ablations run against a throwaway
directory.

The headline metrics (geomean speedup of the treatment techniques over
``Original``, L3 MPKI aggregates) are computed from the grid's cell
results, published as ``ablate.*`` gauges into the run's metrics
registry *before* the manifest is written, and then read back out of
the manifest — the report layer consumes manifests, never in-memory
state, so ``repro-ablate rank`` over old run directories reproduces the
same ranking.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import observability
from repro.analysis.ablate.spec import AblationRun, AblationSuite, enumerate_runs
from repro.analysis.experiments import geomean_speedup
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid

__all__ = [
    "AblationOutcome",
    "METRIC_GAUGE_PREFIX",
    "execute_run",
    "execute_suite",
]

#: Gauge namespace the runner publishes its headline metrics under.
METRIC_GAUGE_PREFIX = "ablate."

#: Store namespace prefix for isolated (infrastructure) ablations.
_NAMESPACE_PREFIX = "ablate-"


@dataclass
class AblationOutcome:
    """One executed run: its identity, metrics and manifest residue."""

    run: AblationRun
    metrics: dict
    stages: dict
    recompute_spans: int
    manifest_path: Path
    store_namespace: str | None


def _apply_config_override(config, path: str, value):
    """Replace a (possibly dotted) field on a frozen config dataclass."""
    head, _, rest = path.partition(".")
    if not hasattr(config, head):
        raise ValueError(
            f"unknown config override {path!r} on {type(config).__name__}"
        )
    if rest:
        value = _apply_config_override(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


def build_config(suite: AblationSuite, run: AblationRun) -> ExperimentConfig:
    """The experiment configuration a run executes under."""
    config = ExperimentConfig(scale=suite.scale, num_roots=suite.num_roots)
    overrides = run.spec["overrides"]["config"]
    for path in sorted(overrides):
        config = _apply_config_override(config, path, overrides[path])
    return config


@contextlib.contextmanager
def _patched_env(overrides: dict[str, str]):
    """Set env vars for the duration of one run, restoring exactly."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            os.environ[key] = str(value)
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def store_namespace(run: AblationRun) -> str | None:
    """Namespace for isolated runs: keyed by *component*, not run id.

    Component-keyed isolation keeps re-executions warm (same component
    -> same namespace) while still preventing the shared root's cached
    cells from short-circuiting the alternate code path under test.
    """
    if run.ablation is None or not run.ablation.isolate:
        return None
    token = run.ablation.component.lower().replace("/", "-")
    return f"{_NAMESPACE_PREFIX}{token}"


def _run_metrics(results) -> dict:
    """Headline metrics from one grid's cell results (deterministic)."""
    cells = {(r.app, r.dataset, r.technique): r for r in results}
    speedups = []
    base_mpki = []
    treat_mpki = []
    l2_misses = 0
    instructions = 0
    for (app, dataset, technique), cell in sorted(cells.items()):
        instructions += int(cell.instructions)
        if technique == "Original":
            base_mpki.append(cell.mpki["l3"])
            continue
        treat_mpki.append(cell.mpki["l3"])
        l2_misses += int(cell.l2_misses)
        base = cells[(app, dataset, "Original")]
        speedups.append((base.run_cycles / cell.run_cycles - 1.0) * 100.0)
    return {
        "cells": len(cells),
        "geomean_speedup_pct": round(
            geomean_speedup(speedups) if speedups else 0.0, 6
        ),
        "mean_l3_mpki_base": round(
            sum(base_mpki) / len(base_mpki) if base_mpki else 0.0, 6
        ),
        "mean_l3_mpki_treat": round(
            sum(treat_mpki) / len(treat_mpki) if treat_mpki else 0.0, 6
        ),
        "l2_misses_treat": l2_misses,
        "instructions": instructions,
    }


def _manifest_metrics(manifest: dict) -> dict:
    """Extract the ``ablate.*`` gauges a run's manifest carries."""
    gauges = ((manifest.get("metrics") or {}).get("gauges")) or {}
    out = {}
    for name, value in gauges.items():
        if name.startswith(METRIC_GAUGE_PREFIX):
            key = name[len(METRIC_GAUGE_PREFIX):]
            out[key] = int(value) if float(value).is_integer() else value
    return out


def execute_run(
    run: AblationRun,
    store: ArtifactStore,
    runs_root: Path | str,
    workers: int | None = None,
) -> AblationOutcome:
    """Execute one enumerated run and harvest its manifest."""
    suite_spec = run.spec["grid"]
    overrides = run.spec["overrides"]
    suite = AblationSuite(
        name=run.suite,
        apps=tuple(suite_spec["apps"]),
        datasets=tuple(suite_spec["datasets"]),
        techniques=tuple(run.spec["grid"]["techniques"]),
        scale=suite_spec["scale"],
        num_roots=suite_spec["num_roots"],
    )
    config = build_config(suite, run)
    runtime = dict(overrides["runtime"])
    run_workers = runtime.get("workers", workers)

    namespace = store_namespace(run)
    ephemeral = None
    if overrides["ephemeral_store"]:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-ablate-store-")
        run_store = ArtifactStore(ephemeral.name)
    elif namespace is not None:
        run_store = store.namespaced(namespace)
    else:
        run_store = store

    try:
        with _patched_env(overrides["env"]):
            pipeline = CellPipeline(config, store=run_store)
            context = observability.start_run(runs_root, run_id=run.run_id)
            context.set_config(config)
            context.attach_store(run_store)
            try:
                results = run_grid(
                    pipeline,
                    list(suite.apps),
                    list(suite.datasets),
                    list(suite.techniques),
                    workers=run_workers,
                )
                metrics = _run_metrics(results)
                for name, value in metrics.items():
                    context.metrics.set_gauge(f"{METRIC_GAUGE_PREFIX}{name}", value)
            except Exception as exc:
                context.record_failure("ablate", f"{type(exc).__name__}: {exc}")
                raise
            finally:
                manifest_path = context.finish()
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()

    manifest = observability.load_manifest(manifest_path.parent) or {}
    stages = (manifest.get("timings") or {}).get("stages") or {}
    return AblationOutcome(
        run=run,
        metrics=_manifest_metrics(manifest),
        stages=stages,
        recompute_spans=observability.recompute_spans(stages),
        manifest_path=manifest_path,
        store_namespace=namespace,
    )


def execute_suite(
    suite: AblationSuite,
    store_dir: Path | str | None = None,
    runs_root: Path | str | None = None,
    workers: int | None = None,
    only: list[str] | None = None,
) -> list[AblationOutcome]:
    """Execute a suite (baseline first); returns outcomes in run order.

    ``only`` filters ablations by name; the baseline always runs (every
    report delta needs it).  All runs share one :class:`ArtifactStore`
    root, so semantic ablations dedup their common stage artifacts
    exactly-once per store lifetime, not once per invocation.
    """
    store = ArtifactStore(store_dir)
    runs_root = Path(runs_root) if runs_root else observability.default_runs_dir()
    outcomes = []
    for run in enumerate_runs(suite):
        if only and run.name != "baseline" and run.name not in only:
            continue
        outcomes.append(execute_run(run, store, runs_root, workers=workers))
    return outcomes
