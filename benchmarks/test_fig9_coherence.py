"""Fig. 9: L2-miss breakdown for the push-dominated applications.

PRD pushes an update on every out-edge unconditionally, so its irregular
writes make misses land on lines dirty in other cores' caches (snoops);
SSSP writes only on successful relaxations and snoops far less.  DBG moves
a large share of both apps' misses on-chip.
"""

from repro.analysis import figures


def test_fig9_coherence(benchmark, pipeline, archive):
    result = benchmark.pedantic(lambda: figures.fig9(pipeline), rounds=1, iterations=1)
    archive("fig9", result)
    header = result["headers"]
    rows = {
        (r[0], r[1], r[2]): dict(zip(header[3:], r[3:])) for r in result["rows"]
    }

    def snoop_share(app, dataset, ordering):
        cell = rows[(app, dataset, ordering)]
        return cell["snoop local"] + cell["snoop remote"]

    for dataset in ("tw", "sd", "fr", "mp"):
        # PRD is the coherence-heavy application (paper: 26.9-69.4% of its
        # L2 misses snoop vs <= 14.5% for SSSP on hardware; the ordering is
        # the reproducible claim).
        assert snoop_share("PRD", dataset, "Original") > snoop_share(
            "SSSP", dataset, "Original"
        ), dataset

        # DBG converts off-chip accesses into on-chip service for both apps:
        # LLC hits rise sharply...
        for app in ("SSSP", "PRD"):
            base = rows[(app, dataset, "Original")]["L3 hit"]
            dbg = rows[(app, dataset, "DBG")]["L3 hit"]
            assert dbg > base * 1.8, (app, dataset)

        # ...and for PRD a meaningful share of DBG's on-chip service still
        # pays a snoop latency, which is why PRD gains least from DBG.
        dbg_prd = rows[("PRD", dataset, "DBG")]
        assert dbg_prd["snoop local"] + dbg_prd["snoop remote"] > 10.0, dataset
