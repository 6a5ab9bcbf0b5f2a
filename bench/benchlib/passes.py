"""One timed unit of a workload's work, and the clocks around it."""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

from benchlib.env import ROOT, child_env

__all__ = ["Pass", "ProcessCpu", "startup"]


@dataclass
class Pass:
    """Timestamps (``time.monotonic``), CPU and outcome of one pass."""

    start: float
    end: float
    cpu_s: float
    ops: int
    failed: int = 0
    #: Latency of each operation a caller waited for, in ms.
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class ProcessCpu:
    """CPU time of this process and its reaped children.

    Pool workers are reaped when their pool shuts down, inside the pass,
    so their CPU lands in ``RUSAGE_CHILDREN`` before the pass ends.  The
    memory sampler's thread runs in this process; its CPU is taken out.
    """

    def __init__(self, sampler) -> None:
        self._sampler = sampler

    def read(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            - self._sampler.own_cpu_s()
        )


#: What a grid workload's program does before it can take work: import
#: the pipeline and load (compiling on first use) the three C kernels.
_STARTUP = (
    "import repro.pipeline, repro.serve.pipeline\n"
    "from repro import engines\n"
    "engines.status()\n"
)


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def startup() -> tuple[float, float]:
    """``(wall, CPU)`` seconds of one fresh interpreter importing the program until ready."""
    cpu0 = _children_cpu()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"program start-up failed:\n{proc.stderr[-2000:]}")
    return elapsed, _children_cpu() - cpu0
