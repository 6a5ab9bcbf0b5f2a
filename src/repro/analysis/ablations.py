"""Ablation studies on the design choices DESIGN.md calls out.

The paper fixes several knobs by argument rather than measurement: 8
geometric DBG groups, the average degree as the hot threshold, and one
cache hierarchy.  These studies sweep each knob through the full pipeline:

* :func:`dbg_group_sweep` — the coarse-vs-fine tension curve.  One group
  per side degenerates toward HubCluster; many narrow groups approach
  HubSort; the paper's 8 sit on the plateau.
* :func:`dbg_threshold_sweep` — scaling the group boundaries (and hence
  the hot classification) up or down.
* :func:`cache_scale_sweep` — growing the simulated hierarchy until hot
  vertices fit, which must erode the benefit of any skew-aware technique
  (the paper's lj observation, generalized).
* :func:`extended_techniques` — the related-work traversal orderings
  (BFS, DFS, RCM) and the Gorder+DBG composition next to the paper's set.
* :func:`extension_apps` — reordering effects on CC and KCore, beyond the
  paper's five applications.
* :func:`diameter_sweep` — DBG benefit vs graph diameter (Satav et al.,
  arXiv:2111.12281), on the ring-window generator.

Every sweep routes its cells through the shared store-backed
:func:`repro.pipeline.run_grid` path before reading speedups, so stage
artifacts dedup exactly-once per store (not per sweep call) and a warm
re-invocation replays with zero recompute spans — the property the
``repro-ablate`` harness and ``tests/analysis/test_ablations_warm.py``
gate on.  Sweeps over the cache hierarchy or the replacement policy run
each variant as a :meth:`CellPipeline.view
<repro.pipeline.cells.CellPipeline.view>` of the caller's pipeline: the
caller's config is kept but for the swept knob, and graphs, plans,
mappings and relabelled graphs are built once across the variants.  The
``workers`` parameter fans the pre-warm out over the grid scheduler's
process pool.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments import geomean_speedup, speedup
from repro.graph.generators import SKEWED_DATASETS
from repro.pipeline import CellPipeline, run_grid

__all__ = [
    "slicing_comparison",
    "dbg_group_sweep",
    "dbg_threshold_sweep",
    "cache_scale_sweep",
    "replacement_policy_sweep",
    "degree_kind_sweep",
    "gorder_window_sweep",
    "extended_techniques",
    "extension_apps",
    "diameter_sweep",
]


def _speedup_rows(
    pipeline: CellPipeline,
    app: str,
    datasets: list[str] | tuple[str, ...],
    labels: list[str],
    workers: int | None,
    gmean: bool = True,
) -> list[list]:
    """One speed-up row per dataset over ``labels``, plus a GMean row.

    The cells run through one ``run_grid`` first, so the sweep's stage
    artifacts dedup in the store like any other grid's.
    """
    run_grid(pipeline, [app], list(datasets), ["Original"] + labels, workers=workers)
    rows = [
        [dataset]
        + [round(speedup(pipeline, app, dataset, label), 1) for label in labels]
        for dataset in datasets
    ]
    if gmean:
        rows.append(
            ["GMean"]
            + [
                round(geomean_speedup([row[idx + 1] for row in rows]), 1)
                for idx in range(len(labels))
            ]
        )
    return rows


def slicing_comparison(
    pipeline: CellPipeline | None = None,
    datasets: tuple[str, ...] = ("kr", "sd", "fr"),
) -> dict:
    """Section VII: graph slicing vs lightweight reordering (PR).

    Slicing processes LLC-sized source partitions one pass at a time: its
    locality is unbeatable (watch the L3 MPKI column) but the pass overhead
    grows with the graph : LLC ratio — the paper's stated reason to prefer
    a preprocessing-only technique like DBG.
    """
    from repro.apps import PageRank
    from repro.cachesim import simulate_trace
    from repro.framework.slicing import num_slices_for, sliced_pull_trace
    from repro.perfmodel.timing import superstep_cycles

    pipeline = pipeline or CellPipeline()
    app = PageRank()
    rows = []
    for dataset in datasets:
        base = pipeline.cell("PR", dataset, "Original")
        dbg = pipeline.cell("PR", dataset, "DBG")
        graph = pipeline.graph(dataset)
        slices = num_slices_for(
            graph,
            pipeline.config.hierarchy.l3.size_bytes,
            app.irregular_property_bytes,
        )
        trace = sliced_pull_trace(
            graph, slices, property_bytes=app.irregular_property_bytes
        )
        stats = simulate_trace(trace.trace, pipeline.config.hierarchy)
        sliced_cycles = superstep_cycles(trace, stats, pipeline.config.latencies)
        rows.append(
            [
                dataset,
                slices,
                round(base.mpki["l3"], 1),
                round(dbg.mpki["l3"], 1),
                round(stats.mpki(trace.instructions)["l3"], 1),
                round(speedup(pipeline, "PR", dataset, "DBG"), 1),
                round((base.superstep_cycles / sliced_cycles - 1.0) * 100.0, 1),
            ]
        )
    return {
        "title": "Sec. VII: graph slicing vs DBG (PR, per-iteration)",
        "headers": [
            "dataset", "slices",
            "L3 MPKI orig", "L3 MPKI DBG", "L3 MPKI sliced",
            "DBG speedup%", "sliced speedup%",
        ],
        "rows": rows,
        "notes": (
            "Slicing wins the cache war but loses the overhead war at this "
            "graph:LLC ratio — the regime the paper's Section VII warns about."
        ),
    }


def dbg_group_sweep(
    pipeline: CellPipeline | None = None,
    group_counts: tuple[int, ...] = (1, 2, 4, 6, 9, 12),
    app: str = "PR",
    workers: int | None = None,
) -> dict:
    """Speed-up of DBG as a function of its hot-group count."""
    labels = ["DBG" if c == 6 else f"DBG-g{c}" for c in group_counts]
    return {
        "title": f"Ablation: {app} speed-up (%) vs DBG hot-group count",
        "headers": ["dataset"] + [f"{c} groups" for c in group_counts],
        "rows": _speedup_rows(
            pipeline or CellPipeline(), app, SKEWED_DATASETS, labels, workers
        ),
        "notes": (
            "Expected: a plateau around the paper's choice (6 hot groups + "
            "2 cold); very few groups forfeit hottest-vertex packing, while "
            "structured datasets punish very many groups."
        ),
    }


def dbg_threshold_sweep(
    pipeline: CellPipeline | None = None,
    scales: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    app: str = "PR",
    workers: int | None = None,
) -> dict:
    """Speed-up of DBG as the group boundaries are scaled by a factor."""
    labels = ["DBG" if s == 1.0 else f"DBG-t{s}" for s in scales]
    return {
        "title": f"Ablation: {app} speed-up (%) vs DBG boundary scale",
        "headers": ["dataset"] + [f"x{s}" for s in scales],
        "rows": _speedup_rows(
            pipeline or CellPipeline(), app, SKEWED_DATASETS, labels, workers
        ),
        "notes": "The paper's threshold (x1.0, i.e. the average degree) should sit near the top.",
    }


def cache_scale_sweep(
    pipeline: CellPipeline | None = None,
    factors: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    app: str = "PR",
    datasets: tuple[str, ...] = ("sd", "fr"),
    workers: int | None = None,
) -> dict:
    """DBG's benefit as the whole hierarchy grows.

    Non-monotonic by nature: mid-size caches are where packing matters
    most (the hot set fits *only if packed*); once the LLC holds the hot
    set even unpacked, the skew opportunity disappears — the paper
    observes the collapsed end of this curve on its small datasets
    (lj, wl).  Each factor runs as a view of ``pipeline`` that differs
    from it only in the hierarchy.
    """
    pipeline = pipeline or CellPipeline()
    config = pipeline.config
    views = {
        factor: pipeline.view(
            dataclasses.replace(config, hierarchy=config.hierarchy.scaled(factor))
        )
        for factor in factors
    }
    for view in views.values():
        run_grid(view, [app], list(datasets), ["Original", "DBG"], workers=workers)
    rows = [
        [dataset]
        + [round(speedup(views[f], app, dataset, "DBG"), 1) for f in factors]
        for dataset in datasets
    ]
    return {
        "title": f"Ablation: DBG {app} speed-up (%) vs cache-hierarchy scale",
        "headers": ["dataset"] + [f"x{f} caches" for f in factors],
        "rows": rows,
        "notes": (
            "Rises while packing decides whether the hot set fits, then "
            "collapses once it fits even unpacked (the paper's lj/wl regime)."
        ),
    }


def replacement_policy_sweep(
    pipeline: CellPipeline | None = None,
    policies: tuple[str, ...] | None = None,
    app: str = "PR",
    datasets: tuple[str, ...] = ("sd", "fr", "kr"),
    workers: int | None = None,
) -> dict:
    """DBG's benefit under different cache replacement policies.

    The paper's related work points at hardware cache-management schemes as
    orthogonal to reordering; this sweep checks the claim's premise — that
    the reordering benefit is not an artifact of LRU specifically.  The
    default policy set is every policy in the replacement-policy
    registry, so newly registered policies join the sweep automatically.

    The whole policy axis runs through one ``run_grid`` call, then
    speedups are read back through each policy's view of ``pipeline``.
    """
    from repro.cachesim.policies import policy_names

    if policies is None:
        policies = tuple(policy_names())
    pipeline = pipeline or CellPipeline()
    run_grid(
        pipeline,
        [app],
        list(datasets),
        ["Original", "DBG"],
        workers=workers,
        policies=list(policies),
    )
    rows = [
        [dataset]
        + [
            round(speedup(pipeline.policy_view(policy), app, dataset, "DBG"), 1)
            for policy in policies
        ]
        for dataset in datasets
    ]
    return {
        "title": f"Ablation: DBG {app} speed-up (%) vs cache replacement policy",
        "headers": ["dataset"] + list(policies),
        "rows": rows,
        "notes": "The skew-packing benefit must survive any reasonable policy.",
    }


def gorder_window_sweep(
    pipeline: CellPipeline | None = None,
    windows: tuple[int, ...] = (2, 5, 10),
    app: str = "PR",
    datasets: tuple[str, ...] = ("pl", "wl"),
    workers: int | None = None,
) -> dict:
    """Gorder's one tuning knob: the placement window.

    Wei et al. default to w=5; a tiny window under-exploits sibling
    locality and a large one dilutes it.  Swept on the two smallest
    skewed analogs (Gorder's analysis cost is the practical limit).
    """
    labels = ["Gorder" if w == 5 else f"Gorder-w{w}" for w in windows]
    return {
        "title": f"Ablation: {app} speed-up (%) vs Gorder window size",
        "headers": ["dataset"] + [f"w={w}" for w in windows],
        "rows": _speedup_rows(
            pipeline or CellPipeline(), app, datasets, labels, workers, gmean=False
        ),
        "notes": "Wei et al.'s default (w=5) should be competitive across datasets.",
    }


def extended_techniques(
    pipeline: CellPipeline | None = None,
    app: str = "PR",
    techniques: tuple[str, ...] = ("DBG", "BFS", "DFS", "RCM", "Community", "Gorder", "Gorder+DBG"),
    workers: int | None = None,
) -> dict:
    """Related-work orderings beside the paper's winner."""
    return {
        "title": f"Extended comparison: {app} speed-up (%), traversal orderings vs DBG",
        "headers": ["dataset"] + list(techniques),
        "rows": _speedup_rows(
            pipeline or CellPipeline(), app, SKEWED_DATASETS, list(techniques), workers
        ),
        "notes": (
            "BFS/DFS/RCM are structure-only: they rebuild locality but never "
            "pack hot vertices, so skewed datasets favour DBG."
        ),
    }


def degree_kind_sweep(
    pipeline: CellPipeline | None = None,
    app: str = "PR",
    kinds: tuple[str, ...] = ("out", "in", "both"),
    workers: int | None = None,
) -> dict:
    """Which degrees should drive the reordering?

    The paper reorders by out-degree for pull-dominated apps and by
    in-degree for push-dominated ones (Table VIII) because that is the
    degree that predicts the *reuse* of the irregularly-accessed property.
    This sweep re-runs DBG with each choice.
    """
    labels = [f"DBG@{kind}" for kind in kinds]
    default_kind = {"PR": "out", "Radii": "out", "BC": "out"}.get(app, "in")
    return {
        "title": f"Ablation: {app} speed-up (%) vs DBG reordering degree kind",
        "headers": ["dataset"] + list(kinds),
        "rows": _speedup_rows(
            pipeline or CellPipeline(), app, SKEWED_DATASETS, labels, workers
        ),
        "notes": f"Paper Table VIII uses '{default_kind}' for {app}.",
    }


def extension_apps(
    pipeline: CellPipeline | None = None,
    apps: tuple[str, ...] = ("CC", "KCore"),
    techniques: tuple[str, ...] = ("Sort", "HubCluster", "DBG"),
    workers: int | None = None,
) -> dict:
    """Reordering effects on workloads beyond the paper's suite."""
    pipeline = pipeline or CellPipeline()
    run_grid(
        pipeline,
        list(apps),
        list(SKEWED_DATASETS),
        ["Original"] + list(techniques),
        workers=workers,
    )
    rows = []
    per_tech: dict[str, list[float]] = {t: [] for t in techniques}
    for app in apps:
        for dataset in SKEWED_DATASETS:
            row = [app, dataset]
            for technique in techniques:
                s = speedup(pipeline, app, dataset, technique)
                per_tech[technique].append(s)
                row.append(round(s, 1))
            rows.append(row)
    rows.append(
        ["GMean", "all"]
        + [round(geomean_speedup(per_tech[t]), 1) for t in techniques]
    )
    return {
        "title": "Extension apps: speed-up (%) on CC and KCore",
        "headers": ["app", "dataset"] + list(techniques),
        "rows": rows,
        "notes": "The skew argument is application-agnostic: any kernel with "
        "degree-proportional reuse benefits.",
    }


def diameter_sweep(
    pipeline: CellPipeline | None = None,
    datasets: tuple[str, ...] = ("swl", "swh"),
    app: str = "PR",
    techniques: tuple[str, ...] = ("DBG", "HubSort"),
    workers: int | None = None,
) -> dict:
    """Reordering benefit vs graph diameter (Satav et al.'s axis).

    The registry's small-world analogs (``swl``/``swh``) share one
    degree distribution and differ only in their ring window — i.e. in
    diameter.  Satav et al. (arXiv:2111.12281) observe that lightweight
    reordering pays on low-diameter graphs and not on high-diameter
    ones; here the effect has a visible mechanism: the narrow window
    that creates the long paths also gives the *original* order strong
    locality, which degree-based packing then destroys.
    """
    from repro.graph.properties import approximate_diameter

    pipeline = pipeline or CellPipeline()
    run_grid(
        pipeline, [app], list(datasets), ["Original", *techniques], workers=workers
    )
    rows = []
    for dataset in datasets:
        diameter = approximate_diameter(pipeline.graph(dataset), samples=4)
        row = [dataset, diameter]
        for technique in techniques:
            row.append(round(speedup(pipeline, app, dataset, technique), 1))
        rows.append(row)
    return {
        "title": f"Ablation: {app} speed-up (%) vs graph diameter",
        "headers": ["dataset", "diam~"] + list(techniques),
        "rows": rows,
        "notes": (
            "Same degree skew, opposite diameters: the benefit should "
            "collapse (and typically invert) on the high-diameter analog, "
            "matching Satav et al.'s hardware observation."
        ),
    }
