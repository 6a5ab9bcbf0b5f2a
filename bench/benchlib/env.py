"""Where the benchmark finds the program, where it writes, what it ran on.

The benchmark runs from the root of a source checkout: the program is
``src/repro`` next to ``bench/``, used straight from source.  Everything
the benchmark writes (compiled kernels and bytecode, artifact stores,
temp files, result files) goes under ``.bench_build/`` in that checkout.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = [
    "BENCH_DIR",
    "ROOT",
    "SRC",
    "BUILD",
    "ProgramMissing",
    "activate",
    "child_env",
    "environment",
]

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def activate() -> None:
    """Point this process (and its children) at the checkout's program.

    Compiled kernels are cached under ``.bench_build/kernels``, so the
    first run in a checkout compiles them and later runs reuse them; temp
    files (such as the grid's graph spill directory) go under
    ``.bench_build/tmp``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for sub in ("kernels", "tmp", "runs", "results"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_DIR"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def child_env() -> dict[str, str]:
    """Environment for subprocesses running the program or the launcher.

    Bytecode is always cached, under ``.bench_build/pycache``: as with
    kernels, the first start-up compiles and later ones load, as an
    installed program does, whether or not the caller's environment
    disables bytecode writing.  Otherwise ``setup_s`` would include
    compiling every module in one environment and not in another.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(steal: float) -> dict:
    """The block every result carries: machine, versions, engines, steal."""
    import numpy

    from repro import engines

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "engines": engines.status(),
        "cpu_steal_share": steal,
    }
