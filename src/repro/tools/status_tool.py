"""``repro-status`` — inspect and compare observed experiment runs.

Every observed run leaves a directory ``runs/<run_id>/`` containing the
merged span/event stream (``events.jsonl``) and the provenance manifest
(``manifest.json``) — see :mod:`repro.observability`.  Subcommands::

    repro-status summary [RUN]          # manifest overview (default: latest)
    repro-status summary --json [RUN]   # same, machine-readable
    repro-status spans --top 10 [RUN]   # heaviest spans by wall time
    repro-status events --stage trace [RUN]   # filtered event dump
    repro-status diff RUN_A RUN_B       # stage timings + store counters delta

``RUN`` is a run id (directory name under the runs root) or a path to a
run directory.  All subcommands accept ``--runs-dir`` to target a
specific root; the default is ``$REPRO_RUNS_DIR`` or ``./runs``.

Partial runs are first-class: a run killed mid-write (missing manifest,
truncated event log, or an empty directory) is reported as partial, not
a crash — the whole point is diagnosing runs that did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.observability import run as runmod

__all__ = ["main"]


def _resolve_run(root: Path, run: str | None) -> Path | None:
    """Resolve a run argument (id, path, or None = latest) to a directory."""
    if run:
        as_path = Path(run)
        if as_path.is_dir():
            return as_path
        candidate = root / run
        if candidate.is_dir():
            return candidate
        return None
    runs = runmod.list_runs(root)
    return runs[0] if runs else None


def _stamp(ts: float | None) -> str:
    if not ts:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _cmd_summary(run_dir: Path, as_json: bool = False) -> int:
    manifest = runmod.load_manifest(run_dir)
    if as_json:
        stages = (
            ((manifest.get("timings") or {}).get("stages") or {})
            if manifest
            else runmod.stage_totals(run_dir)
        )
        payload = {
            "run_id": (manifest or {}).get("run_id", run_dir.name),
            "partial": manifest is None,
            "manifest": manifest,
            "recompute_spans": _recompute_spans(stages),
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=repr))
        return 0
    if manifest is None:
        # Partial run: fall back to whatever the event stream holds.
        print(f"run: {run_dir.name}  [partial: no manifest]")
        stages = runmod.stage_totals(run_dir)
        events = sum(1 for _ in runmod.iter_events(run_dir))
        print(f"events: {events}")
        print(runmod.format_stage_table(stages))
        return 0
    print(f"run:      {manifest.get('run_id', run_dir.name)}")
    print(f"status:   {manifest.get('status', '?')}")
    print(
        f"when:     {_stamp(manifest.get('created'))} -> "
        f"{_stamp(manifest.get('finished'))} "
        f"({manifest.get('wall_s', 0.0):.1f}s)"
    )
    print(f"git:      {manifest.get('git_sha') or '(unknown)'}")
    config = manifest.get("config") or {}
    if config:
        print(f"config:   {config.get('hash')} (scale={config.get('scale')})")
    engines = manifest.get("engines") or {}
    if engines and "error" not in engines:
        resolved = ", ".join(
            f"{dom}={info.get('engine')}"
            + ("" if info.get("fast_available") else " (no kernel)")
            for dom, info in sorted(engines.items())
        )
        print(f"engines:  {resolved}")
    for grid in manifest.get("grids") or []:
        print(
            f"grid:     {len(grid['apps'])} apps x {len(grid['datasets'])} datasets"
            f" x {len(grid['techniques'])} techniques = {grid['cells']} cells"
            f" (workers={grid['workers']})"
        )
    store = manifest.get("store") or {}
    for kind, counters in sorted((store.get("kinds") or {}).items()):
        print(
            f"store:    {kind:<8} hits={counters.get('hits', 0)} "
            f"misses={counters.get('misses', 0)} stores={counters.get('stores', 0)}"
            f" quarantined={counters.get('quarantined', 0)}"
            f" put_errors={counters.get('put_errors', 0)}"
        )
    stages = (manifest.get("timings") or {}).get("stages") or {}
    print("stages:")
    print(runmod.format_stage_table(stages))
    failures = manifest.get("failures") or []
    for failure in failures:
        print(f"FAILURE:  [{failure.get('phase')}] {failure.get('detail')}")
    if manifest.get("dropped_events"):
        print(f"dropped events: {manifest['dropped_events']}")
    return 0


def _cmd_spans(run_dir: Path, top: int, stage: str | None) -> int:
    spans = [
        event
        for event in runmod.iter_events(run_dir)
        if event.get("type") == "span"
        and (stage is None or event.get("name") == stage)
    ]
    if not spans:
        print("no spans recorded")
        return 0
    spans.sort(key=lambda e: e.get("wall_s", 0.0), reverse=True)
    print(f"{'wall':>10}  {'cpu':>10}  {'pid':>7}  name / tags")
    for event in spans[:top]:
        tags = event.get("tags") or {}
        label = " ".join(
            f"{k}={v}" for k, v in tags.items() if k != "kind"
        )
        print(
            f"{event.get('wall_s', 0.0):9.3f}s  {event.get('cpu_s', 0.0):9.3f}s  "
            f"{event.get('pid', '?'):>7}  {event.get('name')}"
            + (f"  [{label}]" if label else "")
        )
    print(f"({len(spans)} spans total)")
    return 0


def _cmd_events(run_dir: Path, stage: str | None, kind: str | None) -> int:
    count = 0
    for event in runmod.iter_events(run_dir):
        tags = event.get("tags") or {}
        if stage is not None and event.get("name") != stage:
            continue
        if kind is not None and tags.get("kind") != kind:
            continue
        label = " ".join(f"{k}={v}" for k, v in tags.items())
        wall = event.get("wall_s")
        dur = f" {wall:.3f}s" if wall is not None else ""
        print(
            f"{event.get('ts', 0.0):.6f} {event.get('type'):<5} "
            f"{event.get('name')}{dur}  {label}"
        )
        count += 1
    if count == 0:
        print("no matching events")
    return 0


#: Executed (non-cache-hit) pipeline-stage span count in a timings block.
_recompute_spans = runmod.recompute_spans


def _cmd_diff(root: Path, run_a: str, run_b: str) -> int:
    dirs = []
    for label in (run_a, run_b):
        run_dir = _resolve_run(root, label)
        if run_dir is None:
            print(f"error: unknown run {label!r} under {root}", file=sys.stderr)
            return 2
        dirs.append(run_dir)
    sides = []
    for run_dir in dirs:
        manifest = runmod.load_manifest(run_dir)
        stages = (
            ((manifest.get("timings") or {}).get("stages") or {})
            if manifest
            else runmod.stage_totals(run_dir)
        )
        store = ((manifest or {}).get("store") or {}).get("kinds") or {}
        sides.append({"dir": run_dir, "stages": stages, "store": store})
    a, b = sides
    print(f"diff: {a['dir'].name}  ->  {b['dir'].name}")
    names = [s for s in runmod.STAGES if s in a["stages"] or s in b["stages"]]
    names += sorted((set(a["stages"]) | set(b["stages"])) - set(runmod.STAGES))
    print(f"{'stage':>10}  {'wall A':>10}  {'wall B':>10}  {'delta':>10}")
    for name in names:
        sa = a["stages"].get(name, {}).get("seconds", 0.0)
        sb = b["stages"].get(name, {}).get("seconds", 0.0)
        print(f"{name:>10}  {sa:9.3f}s  {sb:9.3f}s  {sb - sa:+9.3f}s")
    ra, rb = _recompute_spans(a["stages"]), _recompute_spans(b["stages"])
    print(f"recompute spans: {ra} -> {rb}")
    if rb == 0 and ra > 0:
        print("(run B replayed entirely from the store: zero recompute spans)")
    kinds = sorted(set(a["store"]) | set(b["store"]))
    for kind in kinds:
        ca = a["store"].get(kind, {})
        cb = b["store"].get(kind, {})
        print(
            f"store {kind:<8} hits {ca.get('hits', 0)} -> {cb.get('hits', 0)}, "
            f"misses {ca.get('misses', 0)} -> {cb.get('misses', 0)}, "
            f"stores {ca.get('stores', 0)} -> {cb.get('stores', 0)}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-status",
        description="Inspect and compare observed experiment runs.",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        help="runs root directory (default: $REPRO_RUNS_DIR or ./runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_summary = sub.add_parser("summary", help="manifest overview of one run")
    p_summary.add_argument("run", nargs="?", default=None)
    p_summary.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p_spans = sub.add_parser("spans", help="heaviest spans by wall time")
    p_spans.add_argument("run", nargs="?", default=None)
    p_spans.add_argument("--top", type=int, default=10)
    p_spans.add_argument("--stage", default=None, help="only spans of this name")
    p_events = sub.add_parser("events", help="dump (filtered) raw events")
    p_events.add_argument("run", nargs="?", default=None)
    p_events.add_argument("--stage", default=None, help="only events of this name")
    p_events.add_argument("--kind", default=None, help="only this tag kind")
    p_diff = sub.add_parser("diff", help="compare two runs")
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    args = parser.parse_args(argv)

    root = Path(args.runs_dir) if args.runs_dir else runmod.default_runs_dir()
    try:
        if args.command == "diff":
            return _cmd_diff(root, args.run_a, args.run_b)
        run_dir = _resolve_run(root, args.run)
        if run_dir is None:
            wanted = args.run or "(latest)"
            print(f"error: no run {wanted} under {root}", file=sys.stderr)
            return 2
        if args.command == "summary":
            return _cmd_summary(run_dir, as_json=args.json)
        if args.command == "spans":
            return _cmd_spans(run_dir, args.top, args.stage)
        return _cmd_events(run_dir, args.stage, args.kind)
    except BrokenPipeError:
        # Downstream pager/head closed early; exit quietly like repro-cache.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
