"""Fig. 5 + Table XI: DBG-framework implementations vs the originals.

The paper reimplemented HubSort and HubCluster inside the DBG framework
and found its versions both faster to compute and more effective; this
bench regenerates both the speed-up comparison and the reordering-time
table (operation-count model + measured wall-clock of this package's
implementations, each normalized to Sort).
"""

from repro.analysis import figures, tables


def test_fig5_implementations(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig5(pipeline), rounds=1, iterations=1)
    archive("fig5", result)
    gmean = dict(zip(result["headers"][1:], result["rows"][-1][1:]))
    # The DBG-framework variants must not lose to their -O originals.
    assert gmean["HubSort"] >= gmean["HubSort-O"] - 0.5
    assert gmean["HubCluster"] >= gmean["HubCluster-O"] - 0.5


def test_table11_reordering_time(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table11(pipeline), rounds=1, iterations=1
    )
    archive("table11", result)
    header = result["headers"]
    for row in result["rows"]:
        # Model columns reproduce the paper's ordering: the -O hub sort is
        # pricier than Sort (ratio > 1); everything else is cheaper.
        assert row[header.index("HubSort-O model")] > 1.0
        for tech in ("HubSort", "HubCluster-O", "HubCluster", "DBG"):
            assert row[header.index(f"{tech} model")] < 1.0, tech
