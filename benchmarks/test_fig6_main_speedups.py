"""Fig. 6: the paper's headline grid — speed-up excluding reordering time.

5 applications x 8 datasets x 5 techniques.  The first run computes Gorder
mappings for every dataset (minutes); everything is disk-memoized after
that.
"""

from repro.analysis import figures


def test_fig6_main_grid(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig6(pipeline), rounds=1, iterations=1)
    archive("fig6", result)
    header = result["headers"]
    gmeans = {row[1]: dict(zip(header[2:], row[2:]))
              for row in result["rows"] if row[0] == "GMean"}

    overall = gmeans["all"]
    # Paper: DBG 16.8% beats Sort 8.4%, HubSort 7.9%, HubCluster 11.6%.
    assert overall["DBG"] > overall["Sort"]
    assert overall["DBG"] > overall["HubSort"]
    assert overall["DBG"] > overall["HubCluster"]
    assert overall["DBG"] > 5.0, "DBG average speed-up must be substantial"

    unstructured = gmeans["unstructured"]
    # Paper: on unstructured datasets every skew-aware technique helps and
    # DBG leads (28.1 vs 22.1 / 19.8 / 18.3).
    for technique in ("Sort", "HubSort", "HubCluster", "DBG"):
        assert unstructured[technique] > 0, technique
    assert unstructured["DBG"] == max(
        unstructured[t] for t in ("Sort", "HubSort", "HubCluster", "DBG")
    )

    structured = gmeans["structured"]
    # Paper: Sort/HubSort are net losers on structured datasets (-3.7 /
    # -2.8) while DBG and HubCluster stay positive (6.5 / 5.3).
    assert structured["DBG"] > structured["Sort"] + 3.0
    assert structured["DBG"] > structured["HubSort"]
    assert structured["DBG"] > 0
    assert structured["Sort"] < 2.0
