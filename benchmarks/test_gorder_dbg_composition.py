"""Section VII: composing DBG on top of Gorder.

The paper proposes Gorder+DBG for hardware schemes that need hot vertices
in a contiguous region: the composition retains most of Gorder's gain
(17.2% vs 18.6% average in the paper) because DBG's coarse stable groups
barely disturb Gorder's layout.
"""

from repro.analysis import figures


def test_gorder_dbg_composition(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: figures.gorder_dbg_composition(pipeline), rounds=1, iterations=1
    )
    archive("gorder_dbg", result)
    gmean_row = next(r for r in result["rows"] if r[0] == "GMean")
    gorder, gorder_dbg, dbg = gmean_row[2], gmean_row[3], gmean_row[4]

    # The composition keeps most of Gorder's average speed-up...
    assert gorder_dbg > gorder - 6.0
    # ...and remains clearly profitable on its own terms.
    assert gorder_dbg > 0
