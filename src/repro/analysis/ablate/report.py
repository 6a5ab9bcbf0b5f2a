"""Importance ranking and the machine-readable ``ablation_report.json``.

Importance of a component = how much toggling it moves the headline
metric (the geomean speedup of the treatment techniques over
``Original``), measured as the absolute delta against the baseline run.
Infrastructure ablations (reference engines, fused streaming,
store) are *supposed* to rank at zero — the engines are
bit-identical by contract — so a non-zero importance on one of them is
itself a regression signal, which is why they stay in the report
instead of being filtered out.

The report is **byte-deterministic**: it contains only content-derived
ids, spec echoes, and metrics computed from simulated counters (floats
rounded to 6 decimal places, keys sorted).  Wall-clock stage timings
are deliberately excluded — they live in each run's ``manifest.json``
and are joined back in at view time by ``repro-ablate rank --timings``.
Back-to-back executions of the same suite therefore produce identical
bytes, which CI asserts and the golden fixture freezes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.ablate.spec import BASELINE_NAME
from repro.analysis.render import ascii_table

__all__ = [
    "REPORT_SCHEMA",
    "PRIMARY_METRIC",
    "build_report",
    "write_report",
    "load_report",
    "render_ranking",
    "diff_vs_baseline",
]

#: Report format version (bumped when fields change incompatibly).
REPORT_SCHEMA = 1

#: The metric importance is ranked by.
PRIMARY_METRIC = "geomean_speedup_pct"


def _round6(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value
    return round(value, 6)


def _deltas(metrics: dict, baseline: dict) -> dict:
    """Per-metric difference vs the baseline (numeric metrics only)."""
    out = {}
    for name in sorted(baseline):
        if isinstance(baseline[name], bool) or not isinstance(
            baseline[name], (int, float)
        ):
            continue
        if name in metrics:
            out[name] = _round6(metrics[name] - baseline[name])
    return out


def build_report(suite, outcomes) -> dict:
    """Assemble the deterministic report from executed outcomes.

    ``outcomes`` is the :func:`~repro.analysis.ablate.runner.execute_suite`
    result (baseline first).  Ranking: importance descending, ties
    broken by ablation name so the order is total and stable.
    """
    baseline = next(
        (o for o in outcomes if o.run.name == BASELINE_NAME), None
    )
    if baseline is None:
        raise ValueError("outcomes contain no baseline run")
    entries = []
    for outcome in outcomes:
        if outcome.run.name == BASELINE_NAME:
            continue
        deltas = _deltas(outcome.metrics, baseline.metrics)
        entries.append(
            {
                "name": outcome.run.name,
                "component": outcome.run.component,
                "run_id": outcome.run.run_id,
                "isolated": outcome.store_namespace is not None,
                "store_namespace": outcome.store_namespace,
                "metrics": {k: _round6(v) for k, v in sorted(outcome.metrics.items())},
                "deltas": deltas,
                "importance": _round6(abs(deltas.get(PRIMARY_METRIC, 0.0))),
            }
        )
    entries.sort(key=lambda e: (-e["importance"], e["name"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return {
        "report_schema": REPORT_SCHEMA,
        "suite": suite.name,
        "grid": {
            "apps": list(suite.apps),
            "datasets": list(suite.datasets),
            "techniques": list(suite.techniques),
            "scale": suite.scale,
            "num_roots": suite.num_roots,
        },
        "primary_metric": PRIMARY_METRIC,
        "baseline": {
            "run_id": baseline.run.run_id,
            "metrics": {
                k: _round6(v) for k, v in sorted(baseline.metrics.items())
            },
        },
        "ranking": [e["name"] for e in entries],
        "ablations": entries,
    }


def write_report(report: dict, path: Path | str) -> Path:
    """Serialize with fully pinned formatting (the byte-stable artifact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(
        report, indent=2, sort_keys=True, ensure_ascii=True, allow_nan=False
    )
    path.write_text(payload + "\n", encoding="utf-8")
    return path


def load_report(path: Path | str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def render_ranking(report: dict, timings: dict | None = None) -> str:
    """ASCII ranking table; ``timings`` (name -> seconds) is optional."""
    headers = ["rank", "ablation", "component", "importance", "Δ speedup%", "run id"]
    if timings is not None:
        headers.append("staged s")
    rows = []
    for entry in report["ablations"]:
        row = [
            entry["rank"],
            entry["name"],
            entry["component"],
            f"{entry['importance']:.3f}",
            f"{entry['deltas'].get(PRIMARY_METRIC, 0.0):+.3f}",
            entry["run_id"],
        ]
        if timings is not None:
            seconds = timings.get(entry["name"])
            row.append("-" if seconds is None else f"{seconds:.2f}")
        rows.append(row)
    base = report["baseline"]
    lines = [
        f"suite: {report['suite']}  baseline run {base['run_id']}  "
        f"{PRIMARY_METRIC}={base['metrics'].get(PRIMARY_METRIC)}",
        "",
        ascii_table(headers, rows),
    ]
    return "\n".join(lines)


def diff_vs_baseline(report: dict, name: str) -> dict:
    """One ablation's full metric diff against the baseline."""
    for entry in report["ablations"]:
        if entry["name"] == name or entry["run_id"] == name:
            return {
                "name": entry["name"],
                "run_id": entry["run_id"],
                "baseline_run_id": report["baseline"]["run_id"],
                "baseline": report["baseline"]["metrics"],
                "metrics": entry["metrics"],
                "deltas": entry["deltas"],
            }
    known = [e["name"] for e in report["ablations"]]
    raise KeyError(f"no ablation {name!r} in report; known: {known}")
