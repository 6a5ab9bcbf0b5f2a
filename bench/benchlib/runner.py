"""Run one workload: set up, prepare, measure, check, report.

An untraced run reports the end-to-end metrics.  A traced run reports the
per-layer metrics instead: it first measures a shorter untraced window
(the reference for ``trace.overhead_pct``), then, for the serial grid
workloads, one pass inside an observed program run (for
``pipeline.manifest_gap_s``), then installs the span wrappers and
measures the full window again.

Every metric is the value as measured.  On a virtual machine the
hypervisor may steal CPU time from the benchmark; the stolen share of the
measured window (from ``/proc/stat``) is recorded in the environment
block next to the metrics, not folded into them.  The end-to-end metrics
are CPU time and memory: wall times (``p50_ms``, ``setup_wall_s``)
follow the host's steal, which moved them by up to 2x between runs, and
are reported as ``info`` values beside the metrics.

Every process a run starts is stopped and waited for before it returns.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time

from benchlib import tracing
from benchlib.env import BENCH_DIR, BUILD, environment
from benchlib.grids import Fig6Cold, ScaleCell
from benchlib.layers import PER_LAYER, per_layer
from benchlib.passes import Pass
from benchlib.procs import PssSampler, cpu_counters, steal_share, stop_children
from benchlib.serve import ServeMix
from benchlib.stats import median

__all__ = ["END_TO_END", "WORKLOADS", "run"]

WORKLOADS = {cls.name: cls for cls in (Fig6Cold, ScaleCell, ServeMix)}

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_pss_mb", "MB"),
]

#: Fresh start-ups measured for ``setup_s`` (after one unmeasured start-up).
SETUP_REPEATS = 5
EXPECTED_DIR = BENCH_DIR / "expected"


def _window(workload, seconds: float, min_passes: int = 1) -> tuple[list[Pass], float]:
    """Passes for about ``seconds`` (at least ``min_passes``), and the steal share.

    A further pass is run while it would end the window nearer to
    ``seconds`` than stopping does, judged by the median pass so far.
    """
    passes: list[Pass] = []
    counters = cpu_counters()
    start = time.monotonic()
    while len(passes) < min_passes or (
        time.monotonic() - start + median(p.wall_s for p in passes) / 2 < seconds
    ):
        passes.append(workload.run_pass())
    return passes, steal_share(counters, cpu_counters())


def _p50(passes: list[Pass]) -> float:
    """Median latency of the operations callers waited for, in ms."""
    return median(ms for p in passes for ms in p.latencies_ms)


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _digest(canonical) -> str:
    """sha256 of a workload's canonical results."""
    text = json.dumps(canonical, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_digest(workload, seed: int, write: bool) -> list[str]:
    path = EXPECTED_DIR / f"{workload.name}.json"
    got = _digest(workload.canonical())
    if write:
        EXPECTED_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "sha256": got}, indent=2) + "\n")
        return []
    if seed != 0:
        return []
    if not path.is_file():
        return [f"no committed digest at {path}"]
    want = json.loads(path.read_text())["sha256"]
    return [] if got == want else [f"seed-0 results digest {got} != committed {want}"]


def run(name: str, seed: int, seconds: float, trace: bool, write_expected: bool = False) -> dict:
    """Run one workload; returns the full result record."""
    workdir = BUILD / "runs" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sampler = PssSampler(os.getpid()).start()
    workload = WORKLOADS[name](seed, workdir, sampler)
    errors: list[str] = []
    info: dict[str, float] = {}
    setup: list[tuple[float, float]] = []
    try:
        if not trace:
            workload.setup_once()  # unmeasured: the first run in a checkout compiles kernels
            setup = [workload.setup_once() for _ in range(SETUP_REPEATS)]
        workload.prepare()
        # Garbage the preparation left (a cold fill's pool, its graphs) is
        # otherwise freed during the first passes and shows as their peak.
        gc.collect()
        if trace:
            reference, _ = _window(workload, seconds / 3)
            info["pipeline.manifest_gap_s"] = workload.manifest_gap(workdir / "observed")
            workload.start_tracing(workdir / "spans")
        passes, steal = _window(workload, seconds, workload.memory_passes or 1)
        info.update(workload.extras(passes))
        errors += workload.verify()
        errors += _check_digest(workload, seed, write_expected)
        if trace:
            errors += workload.finish_tracing()
            info["trace.overhead_pct"] = 100.0 * (_p50(passes) / _p50(reference) - 1)
            values = per_layer(
                tracing.load(workdir / "spans"),
                passes,
                workload.main_pid,
                sampler.window(passes[0].start, passes[-1].end),
                info,
            )
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
        else:
            info["p50_ms"] = _p50(passes)
            info["setup_wall_s"] = median(wall for wall, _ in setup)
            values = {
                "setup_s": median(cpu for _, cpu in setup),
                "cpu_s": median(p.cpu_s for p in passes),
                "peak_pss_mb": sampler.peak_mb(
                    passes[0].start,
                    passes[: workload.memory_passes][-1].end,
                    exclude=workload.exclude_pids(),
                ),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    finally:
        sampler.stop()
        errors += workload.close()
        left = stop_children()
        if left:
            errors.append(f"processes {left} were still running after the run; killed")
    failed = sum(p.failed for p in passes)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not errors and failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "ops": p.ops} for p in passes],
        "setup": [{"wall_s": wall, "cpu_s": cpu} for wall, cpu in setup],
        "memory_source": sampler.source,
        "errors": errors,
        "environment": environment(steal),
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return record
