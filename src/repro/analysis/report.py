"""Markdown report generation: the whole evaluation in one document.

``generate_report`` writes already computed experiment results as a
self-contained markdown file — rendered tables in code fences, notes as
prose — suitable for dropping into a repository or an issue.  Used by
``repro-experiments --output report.md``, which computes each result
once and both prints it and hands it here.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.render import ascii_table

__all__ = ["generate_report"]

_PREAMBLE = """# Reproduction report

Generated by `repro-experiments` for *A Closer Look at Lightweight Graph
Reordering* (Faldu, Diamond & Grot, IISWC 2019).  Methodology and
substitutions: see DESIGN.md; paper-vs-measured discussion: EXPERIMENTS.md.
"""


def generate_report(results: list[dict], path: str | Path) -> Path:
    """Write ``results`` (experiment result dicts, in order) as markdown to
    ``path``; returns the written path."""
    sections = [_PREAMBLE]
    for result in results:
        sections.append(f"## {result['title']}\n")
        sections.append("```")
        sections.append(ascii_table(result["headers"], result["rows"]))
        sections.append("```")
        if result.get("notes"):
            sections.append(f"\n*{result['notes']}*\n")
    path = Path(path)
    path.write_text("\n".join(sections) + "\n")
    return path
