"""Ablations as declarative data.

An :class:`Ablation` is one component toggle, expressed purely as
overrides (environment variables, experiment-config fields, grid axes,
runtime knobs) against a baseline grid an :class:`AblationSuite` fixes.
Enumerating a suite yields :class:`AblationRun` records whose ids are
content-derived (:mod:`repro.analysis.ablate.ids`): re-enumerating — in
any order, in any process — reproduces the same ids.

Two execution classes of ablation exist, and the distinction decides
their store placement (see :mod:`repro.analysis.ablate.runner`):

* **semantic** ablations (DBG group count / threshold, replacement
  policy, dataset diameter) change *what is computed*.  Their cells have
  distinct content addresses already, so they share the root store and
  dedup common stage artifacts (graphs, Original traces) exactly-once
  across the whole suite.
* **infrastructure** ablations (``isolate=True``: engine selection,
  fused-streaming threshold) change *how* the same
  values are computed.  Against a warm shared store they would replay
  cached results and never exercise their code path, so each runs in a
  store namespace keyed by its component — still warm on re-execution,
  but never short-circuited by the baseline's artifacts.
* ``ephemeral_store=True`` is the store ablation itself: no persistence
  at all, every execution recomputes from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ablate.ids import run_id as _run_id

__all__ = [
    "SPEC_VERSION",
    "Ablation",
    "AblationSuite",
    "AblationRun",
    "BASELINE_NAME",
    "run_spec",
    "baseline_run",
    "enumerate_runs",
    "smoke_suite",
    "full_suite",
    "golden_suite",
    "SUITES",
    "suite_by_name",
]

#: Version of the spec -> run-id mapping.  Bumping it (e.g. when a new
#: override field joins the content hash) re-keys every run on purpose.
SPEC_VERSION = 1

#: Reserved name of the no-overrides run every suite starts with.
BASELINE_NAME = "baseline"


@dataclass(frozen=True)
class Ablation:
    """One component toggle, expressed as overrides against the suite.

    ``env`` / ``config`` / ``runtime`` are tuples of ``(key, value)``
    pairs (hashable, order-insensitive under canonicalization).
    ``config`` keys are dotted :class:`ExperimentConfig` paths
    (``hierarchy.replacement``); the one ``runtime`` key read is
    ``workers``, passed to :func:`repro.pipeline.run_grid`.
    """

    name: str
    component: str
    description: str = ""
    env: tuple[tuple[str, str], ...] = ()
    config: tuple[tuple[str, object], ...] = ()
    runtime: tuple[tuple[str, object], ...] = ()
    techniques: tuple[str, ...] | None = None
    datasets: tuple[str, ...] | None = None
    isolate: bool = False
    ephemeral_store: bool = False

    def overrides(self) -> dict:
        """The behavioural content of this ablation (hash input)."""
        return {
            "env": dict(self.env),
            "config": dict(self.config),
            "runtime": dict(self.runtime),
            "techniques": list(self.techniques) if self.techniques else None,
            "datasets": list(self.datasets) if self.datasets else None,
            "isolate": self.isolate,
            "ephemeral_store": self.ephemeral_store,
        }


@dataclass(frozen=True)
class AblationSuite:
    """The baseline grid and the ablations measured against it."""

    name: str
    apps: tuple[str, ...]
    datasets: tuple[str, ...]
    techniques: tuple[str, ...]
    scale: float = 1.0
    num_roots: int = 1
    ablations: tuple[Ablation, ...] = ()

    def __post_init__(self) -> None:
        if "Original" not in self.techniques:
            raise ValueError("suite techniques must include 'Original'")
        names = [BASELINE_NAME] + [a.name for a in self.ablations]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate ablation names: {dupes}")


@dataclass(frozen=True)
class AblationRun:
    """One enumerated run: a content id plus everything needed to execute."""

    suite: str
    name: str
    component: str
    run_id: str
    spec: dict = field(compare=False)
    ablation: Ablation | None = field(compare=False)


def run_spec(suite: AblationSuite, ablation: Ablation | None) -> dict:
    """The content dict a run's id is derived from.

    Deliberately excludes the display ``name``/``description`` — two
    labels for the same configuration are the same measurement — and
    includes everything that changes what or how the run computes.
    """
    grid = {
        "apps": list(suite.apps),
        "datasets": list(
            ablation.datasets if ablation and ablation.datasets else suite.datasets
        ),
        "techniques": list(
            ablation.techniques if ablation and ablation.techniques else suite.techniques
        ),
        "scale": suite.scale,
        "num_roots": suite.num_roots,
    }
    overrides = ablation.overrides() if ablation else Ablation("x", "x").overrides()
    return {"spec_version": SPEC_VERSION, "grid": grid, "overrides": overrides}


def _make_run(suite: AblationSuite, ablation: Ablation | None) -> AblationRun:
    spec = run_spec(suite, ablation)
    return AblationRun(
        suite=suite.name,
        name=ablation.name if ablation else BASELINE_NAME,
        component=ablation.component if ablation else BASELINE_NAME,
        run_id=_run_id(spec),
        spec=spec,
        ablation=ablation,
    )


def baseline_run(suite: AblationSuite) -> AblationRun:
    """The no-overrides run every delta in the report is measured against."""
    return _make_run(suite, None)


def enumerate_runs(suite: AblationSuite) -> list[AblationRun]:
    """All runs of a suite, baseline first, then ablations in suite order.

    The *ids* carry no trace of this order — only the listing does — so
    any enumeration (filtered, reversed, resumed) addresses the same run
    directories and report rows.
    """
    return [baseline_run(suite)] + [_make_run(suite, a) for a in suite.ablations]


# -- the shipped suites ------------------------------------------------------

def _component_ablations() -> tuple[Ablation, ...]:
    """The infrastructure + knob toggles shared by the shipped suites."""
    return (
        Ablation(
            name="sim-reference",
            component="engine.sim",
            description="cache simulation on the pure-python reference loop",
            env=(("REPRO_SIM_ENGINE", "reference"),),
            isolate=True,
        ),
        Ablation(
            name="trace-reference",
            component="engine.trace",
            description="trace construction on the numpy reference path",
            env=(("REPRO_TRACE_ENGINE", "reference"),),
            isolate=True,
        ),
        Ablation(
            name="graph-reference",
            component="engine.graph",
            description="CSR build/relabel on the numpy reference path",
            env=(("REPRO_GRAPH_ENGINE", "reference"),),
            isolate=True,
        ),
        Ablation(
            name="fused-streaming",
            component="pipeline.fused-trace",
            description="fused streaming trace+simulate forced on for "
            "every cell (threshold 1 byte)",
            env=(("REPRO_FUSED_TRACE_BYTES", "1"),),
            isolate=True,
        ),
        Ablation(
            name="store-off",
            component="store.artifact-cache",
            description="artifact store disabled: every stage recomputes",
            ephemeral_store=True,
        ),
        Ablation(
            name="dbg-groups-2",
            component="dbg.groups",
            description="DBG with 2 hot groups instead of the paper's 6",
            techniques=("Original", "DBG-g2"),
        ),
        Ablation(
            name="dbg-threshold-half",
            component="dbg.threshold",
            description="DBG hot threshold halved (boundary scale x0.5)",
            techniques=("Original", "DBG-t0.5"),
        ),
        Ablation(
            name="policy-lip",
            component="cache.replacement",
            description="LIP replacement in every simulated cache level",
            config=(("hierarchy.replacement", "lip"),),
        ),
        Ablation(
            name="policy-grasp",
            component="cache.replacement",
            description="GRASP hot-block protection in every level",
            config=(("hierarchy.replacement", "grasp"),),
        ),
    )


def smoke_suite() -> AblationSuite:
    """CI-sized suite: one app, one dataset, every component toggled once."""
    return AblationSuite(
        name="smoke",
        apps=("PR",),
        datasets=("wl",),
        techniques=("Original", "DBG"),
        scale=0.2,
        num_roots=1,
        ablations=_component_ablations(),
    )


def full_suite() -> AblationSuite:
    """Paper-scale suite: the component toggles plus the diameter axis."""
    diameter = Ablation(
        name="diameter-axis",
        component="dataset.diameter",
        description="small-world analogs at low vs high diameter "
        "(Satav et al.'s axis): the DBG benefit should shrink as "
        "diameter grows",
        datasets=("swl", "swh"),
    )
    return AblationSuite(
        name="full",
        apps=("PR", "BFS"),
        datasets=("kr", "sd", "wl", "fr"),
        techniques=("Original", "DBG", "HubSort"),
        scale=1.0,
        num_roots=2,
        ablations=_component_ablations() + (diameter,),
    )


def golden_suite() -> AblationSuite:
    """Tiny fixed grid behind the committed golden ``ablation_report.json``.

    Semantic ablations only (plus one reference engine, which must be
    bit-identical): small enough for the tier-1 test budget, rich enough
    that the ranking has non-trivial order to freeze.
    """
    return AblationSuite(
        name="golden",
        apps=("PR",),
        datasets=("wl",),
        techniques=("Original", "DBG"),
        scale=0.15,
        num_roots=1,
        ablations=(
            Ablation(
                name="dbg-groups-2",
                component="dbg.groups",
                techniques=("Original", "DBG-g2"),
            ),
            Ablation(
                name="dbg-threshold-half",
                component="dbg.threshold",
                techniques=("Original", "DBG-t0.5"),
            ),
            Ablation(
                name="policy-lip",
                component="cache.replacement",
                config=(("hierarchy.replacement", "lip"),),
            ),
            Ablation(
                name="sim-reference",
                component="engine.sim",
                env=(("REPRO_SIM_ENGINE", "reference"),),
                isolate=True,
            ),
        ),
    )


#: Named suites the CLI exposes.
SUITES = {
    "smoke": smoke_suite,
    "full": full_suite,
    "golden": golden_suite,
}


def suite_by_name(name: str) -> AblationSuite:
    try:
        factory = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; known: {sorted(SUITES)}"
        ) from None
    return factory()
