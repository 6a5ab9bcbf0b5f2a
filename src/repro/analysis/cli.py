"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-experiments table1 table2
    repro-experiments fig6 --scale 0.5
    repro-experiments all
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro import engines, observability
from repro.analysis import ablations, figures, tables
from repro.analysis.charts import render_chart
from repro.analysis.render import render_result
from repro.pipeline import CellPipeline, ExperimentConfig, run_grid

__all__ = ["main"]

EXPERIMENTS = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "table9_10": tables.table9_10,
    "table11": tables.table11,
    "table12": tables.table12,
    "fig3": figures.fig3,
    "fig5": figures.fig5,
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "gorder_dbg": figures.gorder_dbg_composition,
    "ablation_groups": ablations.dbg_group_sweep,
    "ablation_threshold": ablations.dbg_threshold_sweep,
    "ablation_cache_scale": ablations.cache_scale_sweep,
    "ablation_replacement": ablations.replacement_policy_sweep,
    "slicing": ablations.slicing_comparison,
    "ablation_degree_kind": ablations.degree_kind_sweep,
    "ablation_gorder_window": ablations.gorder_window_sweep,
    "ablation_diameter": ablations.diameter_sweep,
    "extended_techniques": ablations.extended_techniques,
    "extension_apps": ablations.extension_apps,
}

#: Order in which ``all`` runs things: cheap characterization first.
ALL_ORDER = [
    "table9_10", "table1", "table2", "table3", "table4", "table5",
    "fig3", "fig5", "table11", "fig8", "fig9", "fig6", "fig7",
    "fig10", "fig11", "table12", "gorder_dbg",
    "ablation_groups", "ablation_threshold", "ablation_cache_scale",
    "ablation_replacement", "slicing", "ablation_degree_kind", "ablation_gorder_window",
    "ablation_diameter", "extended_techniques", "extension_apps",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate tables/figures from 'A Closer Look at "
        "Lightweight Graph Reordering' (IISWC 2019)."
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset size multiplier"
    )
    parser.add_argument(
        "--roots", type=int, default=2, help="roots per root-dependent cell"
    )
    parser.add_argument(
        "--chart", action="store_true", help="render results as ASCII bar charts"
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="also write a markdown report of the selected experiments",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="processes for pre-warming the main experiment grid into the "
        "artifact store before the (serial) tables/figures replay it",
    )
    parser.add_argument(
        "--policy", type=str, default=None,
        help="cache replacement policy for every simulated hierarchy "
        f"level ({', '.join(engines.sim_policies())}; default: the "
        "hierarchy's configured policy, lru)",
    )
    parser.add_argument(
        "--engine", choices=engines.ENGINE_CHOICES, default=None,
        help="cache-simulation engine (default: auto — compiled kernel "
        "when available, else the pure-Python reference loop)",
    )
    parser.add_argument(
        "--trace-engine", choices=engines.ENGINE_CHOICES, default=None,
        help="trace-construction engine (gather/merge/Gorder kernels; "
        "default: auto)",
    )
    parser.add_argument(
        "--graph-engine", choices=engines.ENGINE_CHOICES, default=None,
        help="graph-structure engine (CSR relabel/build kernels; "
        "default: auto)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-stage pipeline time breakdown "
        "(generate/mapping/relabel/trace/simulate/model) after the run",
    )
    parser.add_argument(
        "--run-dir", type=str, default=None,
        help="record this invocation as an observed run (span event log + "
        "manifest) under the given runs directory; defaults to "
        "$REPRO_RUNS_DIR when that is set, else no run is recorded",
    )
    args = parser.parse_args(argv)
    if args.engine:
        # Campaign-wide override, inherited by grid worker processes.
        os.environ["REPRO_SIM_ENGINE"] = args.engine
    if args.trace_engine:
        os.environ["REPRO_TRACE_ENGINE"] = args.trace_engine
    if args.graph_engine:
        os.environ["REPRO_GRAPH_ENGINE"] = args.graph_engine
    try:
        # Fail on a misconfigured engine variable before any work starts.
        engines.validate_env()
    except ValueError as exc:
        parser.error(str(exc))

    names = list(args.experiments)
    if names == ["all"]:
        names = ALL_ORDER
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    config = ExperimentConfig(scale=args.scale, num_roots=args.roots)
    if args.policy:
        try:
            engines.validate_policy(args.policy, context="--policy")
        except ValueError as exc:
            parser.error(str(exc))
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(
                config.hierarchy, replacement=args.policy
            ),
        )
    pipeline = CellPipeline(config)
    run = None
    if args.run_dir or os.environ.get(observability.run.RUNS_DIR_ENV):
        run = observability.start_run(args.run_dir)
        run.set_config(config)
        run.attach_store(pipeline.store)
        print(f"observing run {run.run_id} -> {run.run_dir}")
    if args.workers > 1:
        from repro.apps.registry import APP_ORDER
        from repro.analysis.figures import MAIN_TECHNIQUES
        from repro.graph.generators.datasets import NO_SKEW_DATASETS, SKEWED_DATASETS

        print(f"pre-warming main grid with {args.workers} workers ...")
        run_grid(
            pipeline,
            list(APP_ORDER),
            # The paper's Table IX/X grid only: auxiliary analogs (the
            # diameter-axis pair) warm up in the sweeps that use them.
            list(SKEWED_DATASETS) + list(NO_SKEW_DATASETS),
            ["Original"] + MAIN_TECHNIQUES,
            workers=args.workers,
        )
    results = []
    try:
        for name in names:
            with observability.TRACER.span("experiment", kind="experiment", experiment=name):
                result = EXPERIMENTS[name](pipeline)
            results.append(result)
            if args.chart:
                print(render_chart(result))
            else:
                print(render_result(result))
            print()
    except Exception as exc:
        if run is not None:
            run.record_failure("experiment", f"{type(exc).__name__}: {exc}")
            run.finish()
            print(f"run manifest (failed): {run.manifest_path}")
        raise
    if args.output:
        from repro.analysis.report import generate_report

        print(f"report written to {generate_report(results, args.output)}")
    if args.profile:
        # Observed runs fold every stage event (workers' included) into
        # their timings; otherwise worker events join this process's
        # tracer buffer, so folding the buffer covers the same spans.
        stages = (
            run.timings()["stages"]
            if run is not None
            else observability.fold_stage_events(observability.TRACER.snapshot())
        )
        print("pipeline stage breakdown (this run, workers included):")
        print(observability.format_stage_table(stages))
    if run is not None:
        run.finish()
        print(f"run manifest: {run.manifest_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
