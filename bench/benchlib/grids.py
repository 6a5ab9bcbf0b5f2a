"""The two grid workloads: the cold figure grid and a few large cells.

Graphs reach the program as tenant uploads in a store namespace, and
cells run through :class:`~repro.serve.pipeline.ServePipeline` and
:func:`repro.pipeline.run_grid`.  The pool workers ``run_grid`` starts
rebuild their pipeline from ``type(pipeline)`` and the store directory,
so a worker that misses a shared-memory graph rebuilds the same seeded
upload from the store; it cannot fall back to a stock analog.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path

import numpy as np

import repro.pipeline
from repro import observability
from repro.apps.registry import APP_ORDER
from repro.graph.generators.datasets import SKEWED_DATASETS
from repro.observability import TRACER
from repro.pipeline import ArtifactStore, ExperimentConfig
from repro.serve.pipeline import UPLOAD_KIND, ServePipeline, upload_graph_key

from benchlib import tracing
from benchlib.inputs import FIG6_TECHNIQUES, TENANT, analog_payload
from benchlib.passes import Pass, ProcessCpu, startup

__all__ = ["Fig6Cold", "ScaleCell"]


def _canonical(results) -> list[dict]:
    return [
        {name: getattr(r, name) for name in r.__dataclass_fields__} for r in results
    ]


@contextlib.contextmanager
def _engines(choice: str):
    names = [f"REPRO_{domain}_ENGINE" for domain in ("SIM", "TRACE", "GRAPH")]
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update({name: choice for name in names})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class GridWorkload:
    """A grid over seeded uploads; subclasses fix its shape and its pass."""

    name = ""
    apps: list[str] = []
    datasets: list[str] = []
    techniques: list[str] = []
    scale = 1.0
    workers = 1
    #: Passes whose peak memory is reported, and so the fewest a run
    #: measures.  A fixed count: the peak rises with the number of grids
    #: run in one process (fig6-cold: about 405 MB over its first two or
    #: three grids, 470-515 MB over five), so a peak over the whole window
    #: would grow with how many passes fit in it.
    memory_passes = 2

    def __init__(self, seed: int, workdir: Path, sampler) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cpu = ProcessCpu(sampler)
        self.store = ArtifactStore(workdir / "store").namespaced(TENANT)
        self.config = ExperimentConfig(scale=self.scale, num_roots=1)
        self.keys: list[str] = []
        self.expected: list | None = None
        self.errors: list[str] = []
        self.passes_run = 0
        #: The process that is not a pool worker.
        self.main_pid = os.getpid()

    # -- lifecycle -----------------------------------------------------------
    def setup_once(self) -> tuple[float, float]:
        return startup()

    def prepare(self) -> None:
        for name in self.datasets:
            payload = analog_payload(name, self.seed, self.scale)
            key = upload_graph_key(payload)
            self.store.put(UPLOAD_KIND, key, payload)
            self.keys.append(key)

    def exclude_pids(self) -> set[int]:
        return set()

    def start_tracing(self, trace_dir: Path) -> None:
        tracing.install(trace_dir)

    def finish_tracing(self) -> list[str]:
        tracing.flush()
        return []

    def close(self) -> list[str]:
        return []

    # -- work ------------------------------------------------------------------
    @property
    def cells(self) -> list[tuple[str, str, str]]:
        return [(a, d, t) for a in self.apps for d in self.keys for t in self.techniques]

    def grid(self, workers: int) -> list:
        pipeline = ServePipeline(self.config, store=self.store)
        return repro.pipeline.run_grid(
            pipeline, self.apps, self.keys, self.techniques, workers=workers
        )

    def before_pass(self) -> None:
        """Untimed reset before a pass: no artifacts, fresh process state.

        The program's process-wide tracer keeps every event in memory (up
        to 200k); a grid adds hundreds.  Draining it makes each pass start
        with an empty tracer, as a fresh process would.
        """
        TRACER.drain()
        self.store.gc(0, keep_kinds=(UPLOAD_KIND,))

    def run_pass(self) -> Pass:
        self.before_pass()
        cpu0 = self.cpu.read()
        start = time.monotonic()
        results = self.grid(self.workers)
        end = time.monotonic()
        cpu = self.cpu.read() - cpu0
        self.passes_run += 1
        if self.expected is None:
            self.expected = results
        elif results != self.expected:
            self.errors.append(f"pass {self.passes_run} differs from the first pass")
        return Pass(start, end, cpu, ops=len(results), latencies_ms=[1000 * (end - start)])

    def manifest_gap(self, runs_dir: Path) -> float:
        """Pass wall time the run manifest's stage totals leave unexplained."""
        with observability.start_run(runs_dir) as run:
            done = self.run_pass()
        manifest = observability.load_manifest(run.run_dir)
        return done.wall_s - manifest["timings"]["staged_seconds"]

    def extras(self, passes: list[Pass]) -> dict[str, float]:
        return {}

    # -- correctness -------------------------------------------------------------
    def verify(self) -> list[str]:
        return list(self.errors)

    def canonical(self) -> list[dict]:
        return _canonical(self.expected)


class Fig6Cold(GridWorkload):
    """The paper's Fig. 6 grid from an empty store, on two pool workers."""

    name = "fig6-cold"
    apps = list(APP_ORDER)
    datasets = list(SKEWED_DATASETS)
    techniques = list(FIG6_TECHNIQUES)
    scale = 0.25
    workers = 2

    def manifest_gap(self, runs_dir: Path) -> float:
        """Not defined here: two workers' stage totals can exceed the wall time."""
        return 0.0

    def verify(self) -> list[str]:
        """Two seed-chosen cells again, fresh store, reference engines.

        One cell is a Gorder cell (Gorder's placement runs in a C kernel)
        and one is not; the reference engines are pure Python, so these
        two cells cost seconds, not milliseconds.
        """
        errors = super().verify()
        rng = np.random.default_rng([self.seed, 3])
        cells = self.cells
        index = {cell: i for i, cell in enumerate(cells)}
        gorder = [c for c in cells if c[2] == "Gorder"]
        others = [c for c in cells if c[2] != "Gorder"]
        picks = [gorder[rng.integers(len(gorder))], others[rng.integers(len(others))]]
        store = ArtifactStore(self.workdir / "reference-store").namespaced(TENANT)
        for key in {cell[1] for cell in picks}:
            store.put(UPLOAD_KIND, key, self.store.get(UPLOAD_KIND, key))
        with _engines("reference"):
            pipeline = ServePipeline(self.config, store=store)
            for cell in picks:
                got = pipeline.cell(*cell)
                if got != self.expected[index[cell]]:
                    errors.append(f"reference engines disagree on cell {cell}")
        return errors


class ScaleCell(GridWorkload):
    """Few, large cells, run serially in one process."""

    name = "scale-cell"
    apps = ["PR", "Radii"]
    datasets = ["kr", "sd"]
    techniques = ["Original", "DBG"]
    scale = 4.0
