"""Fig. 3: slowdown of the Radii application under random reordering.

The paper's structure-value study: RV destroys both structure and
hot-vertex packing; RCB-n destroys only structure, progressively less at
coarser granularity; kr (synthetic) is oblivious to all of it.
"""

from repro.analysis import figures


def test_fig3_random_reordering(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig3(pipeline), rounds=1, iterations=1)
    archive("fig3", result)
    rows = {row[0]: dict(zip(result["headers"][1:], row[1:])) for row in result["rows"]}

    # kr has no structure: every random reordering is near-neutral.
    assert all(abs(v) < 6.0 for v in rows["kr"].values())

    # Real datasets suffer; structured ones suffer most under RV.
    for dataset in ("lj", "wl", "fr", "mp"):
        assert rows[dataset]["RV"] > 10.0, dataset

    # Coarser granularity preserves more structure (RCB-1 >= RCB-4).
    for dataset in ("pl", "tw", "sd", "lj", "wl", "fr", "mp"):
        assert rows[dataset]["RCB-1"] >= rows[dataset]["RCB-4"] - 0.5, dataset

    # RV >= RCB-1 everywhere real: vertex-granularity also scatters hubs.
    for dataset in ("pl", "tw", "sd", "lj", "wl", "fr", "mp"):
        assert rows[dataset]["RV"] >= rows[dataset]["RCB-1"] - 0.5, dataset
