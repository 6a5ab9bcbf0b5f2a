"""Make ``benchlib`` and the program importable for the harness self-tests."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from benchlib import env  # noqa: E402

env.activate()
