"""Fig. 10: net speed-up once reordering time is charged.

The decisive comparison: Gorder's analysis cost annihilates its gains,
while DBG is the only technique with a positive average net speed-up.
"""

from repro.analysis import figures
from repro.analysis.experiments import geomean_speedup


def test_fig10_net_speedup(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig10(pipeline), rounds=1, iterations=1)
    archive("fig10", result)
    header = result["headers"]
    gmean = dict(
        zip(header[2:], next(r[2:] for r in result["rows"] if r[0] == "GMean"))
    )

    # Gorder: catastrophic net slowdowns (paper: up to -96.5%).
    assert gmean["Gorder"] < -50.0

    # DBG: the only technique expected to keep a positive average.
    assert gmean["DBG"] > 0.0
    for technique in ("Sort", "HubSort", "HubCluster", "Gorder"):
        assert gmean["DBG"] > gmean[technique], technique

    # Per-cell: Gorder loses everywhere once its cost is charged.
    for row in result["rows"]:
        if row[0] == "GMean":
            continue
        assert row[header.index("Gorder")] < 0
