"""Benchmarks regenerating the characterization tables (I, II, III, IV, V, IX/X).

These are the paper's Section II/III workload-characterization artifacts;
they only need the dataset analogs, so they are the cheap end of the
harness.
"""

from repro.analysis import tables


def test_table1_skew(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table1(pipeline), rounds=1, iterations=1
    )
    archive("table1", result)
    for row in result["rows"]:
        hot_pct, coverage_pct = row[1], row[3]
        assert hot_pct < 35, "hot vertices are a small minority"
        assert coverage_pct > 60, "hot vertices own the bulk of the edges"


def test_table2_hot_per_block(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table2(pipeline), rounds=1, iterations=1
    )
    archive("table2", result)
    values = {row[0]: row[1] for row in result["rows"]}
    # Far below the bound of 8 everywhere: the packing opportunity exists.
    assert all(v < 4.0 for v in values.values())
    # Structured analogs pack hubs denser than unstructured ones (paper
    # Table II: 2.6-3.5 vs 1.3-1.8).
    assert min(values["lj"], values["wl"]) > max(values["tw"], values["sd"])


def test_table3_hot_footprint(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table3(pipeline), rounds=1, iterations=1
    )
    archive("table3", result)
    ratios = {row[0]: row[3] for row in result["rows"]}
    # Large datasets thrash the LLC; lj fits comfortably (paper Sec. VI-B).
    for name in ("kr", "pl", "tw", "sd", "fr", "mp"):
        assert ratios[name] > 1.0, name
    assert ratios["lj"] < 1.0


def test_table4_hot_degree_distribution(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table4(pipeline), rounds=1, iterations=1
    )
    archive("table4", result)
    shares = [row[1] for row in result["rows"]]
    assert shares[0] == max(shares), "least-hot range is the most numerous"
    assert sum(shares) > 99.9


def test_table5_dbg_framework(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table5(pipeline), rounds=1, iterations=1
    )
    archive("table5", result)
    groups = {row[0]: row[1] for row in result["rows"]}
    assert groups["Sort"] > groups["HubSort"] > groups["HubCluster"]
    assert groups["HubCluster"] == 2
    assert groups["HubCluster"] < groups["DBG"] < groups["HubSort"]


def test_table9_10_datasets(benchmark, pipeline, archive):
    result = benchmark.pedantic(
        lambda: tables.table9_10(pipeline), rounds=1, iterations=1
    )
    archive("table9_10", result)
    assert len(result["rows"]) == 10
