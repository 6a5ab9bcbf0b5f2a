#!/usr/bin/env python3
"""Should you reorder?  A deployment-planning example (paper Section VI-D).

Reordering is a preprocessing investment: it pays off only if the graph is
traversed enough times afterwards.  This example answers, for a chosen
dataset and application, the questions an operator would ask:

* how long does each technique take to reorder (modelled cycles)?
* how much faster is each traversal afterwards?
* after how many traversals does each technique break even?
* what is the net gain at my expected query volume?

Run:  python examples/amortization_planner.py [dataset] [traversals]
e.g.  python examples/amortization_planner.py tw 16
"""

import math
import sys

from repro.pipeline import CellPipeline
from repro.perfmodel import amortization_supersteps


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "tw"
    expected_traversals = int(sys.argv[2]) if len(sys.argv) > 2 else 16

    pipeline = CellPipeline()
    app = "SSSP"
    base = pipeline.cell(app, dataset, "Original")
    print(f"{app} on the '{dataset}' analog, planning for "
          f"{expected_traversals} traversals\n")
    print(f"{'technique':12s} {'reorder':>10s} {'per-trav.':>10s} "
          f"{'break-even':>11s} {'net @ N':>9s}")

    for technique in ("Sort", "HubSort", "HubCluster", "DBG"):
        cell = pipeline.cell(app, dataset, technique)
        breakeven = amortization_supersteps(
            base.unit_cycles, cell.unit_cycles, cell.reorder_cycles
        )
        total_base = base.unit_cycles * expected_traversals
        total = cell.unit_cycles * expected_traversals + cell.reorder_cycles
        net = (total_base / total - 1.0) * 100.0
        breakeven_text = (
            f"{breakeven:10.1f}" if math.isfinite(breakeven) else "     never"
        )
        print(
            f"{technique:12s} {cell.reorder_cycles / 1e6:9.1f}M "
            f"{cell.unit_cycles / 1e6:9.1f}M {breakeven_text:>11s} "
            f"{net:+8.1f}%"
        )

    print(
        "\n('reorder' and 'per-trav.' are modelled cycles; 'break-even' is "
        "the traversal count where reordering starts paying off — the "
        "paper's Fig. 11 sweeps exactly this.)"
    )


if __name__ == "__main__":
    main()
