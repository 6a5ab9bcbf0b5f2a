"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
the memoized experiment pipeline, asserts its headline shape, prints the
rendered rows and archives them under ``results/``.  The first full run
populates ``.repro_cache/`` (Gorder mappings dominate); subsequent runs
replay from the cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import CellPipeline
from repro.analysis.render import render_result

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def pipeline() -> CellPipeline:
    """One shared pipeline (and disk cache) for the whole benchmark session."""
    return CellPipeline()


@pytest.fixture(scope="session")
def archive():
    """Callable that renders a result, stores it and echoes it."""

    def _archive(name: str, result: dict) -> str:
        text = render_result(result)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")
        return text

    return _archive
