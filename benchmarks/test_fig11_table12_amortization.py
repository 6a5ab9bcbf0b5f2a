"""Fig. 11 + Table XII: how fast each technique amortizes its cost.

Fig. 11 sweeps SSSP traversal counts (1, 8, 16, 32); Table XII reports the
minimum number of PageRank iterations before reordering pays off.
"""

import math

from repro.analysis import figures, tables


def test_fig11_traversal_sweep(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig11(pipeline), rounds=1, iterations=1)
    archive("fig11", result)
    header = result["headers"]
    gmeans = {
        row[0]: dict(zip(header[2:], row[2:]))
        for row in result["rows"]
        if row[1] == "GMean"
    }

    # One traversal never amortizes: every technique is net-negative.
    for technique in ("Sort", "HubSort", "HubCluster", "DBG", "Gorder"):
        assert gmeans[1][technique] < 0, technique

    # Net speed-up grows monotonically with the traversal count.
    for technique in ("Sort", "HubSort", "HubCluster", "DBG"):
        series = [gmeans[count][technique] for count in (1, 8, 16, 32)]
        assert series == sorted(series), technique

    # DBG amortizes fastest: best net speed-up at 8 traversals (paper:
    # +11.5% vs +2.1% for the next best), and positive by 32.
    assert gmeans[8]["DBG"] == max(
        gmeans[8][t] for t in ("Sort", "HubSort", "HubCluster", "DBG", "Gorder")
    )
    assert gmeans[32]["DBG"] > 0

    # Gorder stays clearly negative even at 32 traversals (paper: -45..-68
    # per dataset; our modelled cost is at the gentle end of that band).
    assert gmeans[32]["Gorder"] < -10


def test_table12_pr_amortization(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: tables.table12(pipeline), rounds=1, iterations=1)
    archive("table12", result)
    header = result["headers"]
    for row in result["rows"]:
        dbg = row[header.index("DBG")]
        gorder = row[header.index("Gorder")]
        assert isinstance(dbg, float) and dbg < 15, "DBG amortizes in a few iterations"
        # Gorder needs orders of magnitude longer (paper: 112-1359 iters).
        if isinstance(gorder, float) and math.isfinite(gorder):
            assert gorder > 10 * dbg
