"""The multi-name experiment harness behind Table 2 and Fig 4.

A run scores one pipeline variant on a set of ambiguous names against the
ground truth: references of each name are prepared once (the expensive
profiling + pair features), then clustered once per variant and cut at
each min-sim (:func:`resolution_at`) — which is what makes the paper's
per-variant best-min-sim sweep affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.distinct import Distinct, NamePreparation, NameResolution, row_clusters
from repro.core.variants import VariantSpec
from repro.data.world import GroundTruth
from repro.eval.metrics import ClusterScores, pairwise_scores
from repro.obs import get_logger, span

log = get_logger("eval.experiment")

#: Default threshold grid for the per-variant best-min-sim sweep. Spans the
#: scales of the three cluster measures (walk probabilities live orders of
#: magnitude below resemblances).
DEFAULT_MIN_SIM_GRID: tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5,
)


@dataclass
class NameResult:
    """Scores for one ambiguous name under one variant."""

    name: str
    n_refs: int
    n_entities: int
    n_clusters: int
    scores: ClusterScores


@dataclass
class ExperimentResult:
    """Scores for one variant across all evaluated names."""

    variant_key: str
    min_sim: float
    names: list[NameResult] = field(default_factory=list)

    def _mean(self, attr: str) -> float:
        if not self.names:
            return 0.0
        return float(np.mean([getattr(r.scores, attr) for r in self.names]))

    @property
    def avg_precision(self) -> float:
        return self._mean("precision")

    @property
    def avg_recall(self) -> float:
        return self._mean("recall")

    @property
    def avg_f1(self) -> float:
        return self._mean("f1")

    @property
    def avg_accuracy(self) -> float:
        return self._mean("accuracy")


def prepare_names(distinct: Distinct, names: list[str]) -> dict[str, NamePreparation]:
    """Prepare every name once (profiles + pair features)."""
    with span("experiment.prepare", n_names=len(names)):
        preparations = {name: distinct.prepare(name) for name in names}
    log.info("prepared %d names", len(names))
    return preparations


def score_resolution(resolution, truth: GroundTruth) -> NameResult:
    """Score one resolved name against the ground truth."""
    gold = list(truth.clusters_for(resolution.name).values())
    scores = pairwise_scores(resolution.clusters, gold)
    return NameResult(
        name=resolution.name,
        n_refs=len(resolution.rows),
        n_entities=len(gold),
        n_clusters=resolution.n_clusters,
        scores=scores,
    )


def run_variant(
    distinct: Distinct,
    preparations: dict[str, NamePreparation],
    truth: GroundTruth,
    variant: VariantSpec,
    min_sim: float,
) -> ExperimentResult:
    """Cluster every prepared name under one variant at one threshold."""
    result = ExperimentResult(variant_key=variant.key, min_sim=min_sim)
    with span("experiment.variant", variant=variant.key, min_sim=min_sim) as sp:
        for name, prep in preparations.items():
            resolution = distinct.cluster_prepared(
                prep,
                min_sim=min_sim,
                measure=variant.measure,
                supervised=variant.supervised,
            )
            result.names.append(score_resolution(resolution, truth))
        sp.annotate(avg_f1=round(result.avg_f1, 4))
    log.debug(
        "variant %s @ min_sim=%g: avg f1 %.4f over %d names",
        variant.key, min_sim, result.avg_f1, len(result.names),
    )
    return result


def resolution_at(resolution: NameResolution, min_sim: float) -> NameResolution:
    """``resolution``, clustered at ``min_sim = 0``, with the clusters of a
    run at ``min_sim``: a cut of its merge history
    (:meth:`repro.cluster.Dendrogram.cut`)."""
    if resolution.clustering is None:  # at most one reference
        return resolution
    leaves = resolution.clustering.dendrogram.cut(min_sim)
    return replace(resolution, clusters=row_clusters(resolution.rows, leaves))


def sweep_min_sim(
    distinct: Distinct,
    preparations: dict[str, NamePreparation],
    truth: GroundTruth,
    variant: VariantSpec,
    grid: tuple[float, ...] = DEFAULT_MIN_SIM_GRID,
) -> tuple[ExperimentResult, list[ExperimentResult]]:
    """Run a variant across a threshold grid; return (best by avg accuracy, all).

    This mirrors the paper: "For each approach except DISTINCT, we choose
    the min-sim that maximizes average accuracy." Each grid point scores
    a cut of one run at ``min_sim = 0`` (:func:`resolution_at`).
    """
    with span("experiment.sweep", variant=variant.key, grid_size=len(grid)):
        histories = [
            distinct.cluster_prepared(prep, 0.0, variant.measure, variant.supervised)
            for prep in preparations.values()
        ]
        runs = [
            ExperimentResult(variant.key, min_sim, [
                score_resolution(resolution_at(history, min_sim), truth)
                for history in histories
            ])
            for min_sim in grid
        ]
    best = max(runs, key=lambda r: (r.avg_accuracy, r.avg_f1))
    return best, runs


def run_experiment(
    distinct: Distinct,
    truth: GroundTruth,
    names: list[str],
    variants: list[VariantSpec],
    grid: tuple[float, ...] = DEFAULT_MIN_SIM_GRID,
) -> dict[str, ExperimentResult]:
    """Fig-4 style comparison: each variant at its best threshold.

    DISTINCT itself (``sweep_min_sim=False``) runs at the configured
    ``min_sim``; every other variant gets its best threshold from the grid.
    """
    preparations = prepare_names(distinct, names)
    results: dict[str, ExperimentResult] = {}
    for variant in variants:
        if variant.sweep_min_sim:
            best, _ = sweep_min_sim(distinct, preparations, truth, variant, grid)
            results[variant.key] = best
        else:
            results[variant.key] = run_variant(
                distinct, preparations, truth, variant, distinct.config.min_sim
            )
    return results
