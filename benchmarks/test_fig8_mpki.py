"""Fig. 8: L1/L2/L3 MPKI for PageRank across datasets and orderings.

The paper's cache-hierarchy characterization: all skew-aware techniques
attack L3 misses, but the fine-grain ones (Sort, HubSort) pay for it with
extra L1/L2 misses on structured datasets — the central tension of the
paper.
"""

from repro.analysis import figures


def test_fig8_mpki(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig8(pipeline), rounds=1, iterations=1)
    archive("fig8", result)
    header = result["headers"]
    cells = {
        (row[0], row[1]): dict(zip(header[2:], row[2:])) for row in result["rows"]
    }

    # Memory-bound baseline: L1 MPKI around or above 100 on the large
    # datasets, and nearly everything that misses L1 misses L2 too.
    for dataset in ("kr", "tw", "sd", "mp"):
        assert cells[("L1", dataset)]["Original"] > 80, dataset
        assert (
            cells[("L2", dataset)]["Original"]
            > 0.75 * cells[("L1", dataset)]["Original"]
        ), dataset

    # Skew-aware techniques cut L3 MPKI on the unstructured datasets.
    for dataset in ("kr", "pl", "tw", "sd"):
        base = cells[("L3", dataset)]["Original"]
        for technique in ("Sort", "HubSort", "HubCluster", "DBG"):
            assert cells[("L3", dataset)][technique] < base, (dataset, technique)

    # ...but fine-grain reordering inflates L1/L2 on structured datasets,
    # while DBG largely does not (the paper's key observation).
    for dataset in ("lj", "fr"):
        base_l2 = cells[("L2", dataset)]["Original"]
        assert cells[("L2", dataset)]["Sort"] > base_l2 * 1.05, dataset
        assert cells[("L2", dataset)]["DBG"] < cells[("L2", dataset)]["Sort"], dataset

    # Small datasets have little L3 headroom (lj vs sd).
    assert cells[("L3", "lj")]["Original"] < 0.6 * cells[("L3", "sd")]["Original"]
