"""The DISTINCT facade: fit once per database, resolve any name.

``fit(db)`` implements §3: enumerate join paths, construct the training set
automatically from rare names, compute per-pair per-path similarity
features, and train two linear SVMs (one per measure) whose raw-space
weights become the Eq-1 combiners. The training references of every rare
name propagate in one batch, each under its own name's exclusions.

``resolve(name)`` implements §2 + §4: profile the name's references along
every path, combine per-path similarities with the learned weights, and
agglomeratively cluster with the composite geometric-mean measure until the
best similarity falls below ``min_sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.agglomerative import AgglomerativeClusterer, ClusteringResult
from repro.cluster.composite import CollectiveWalkMeasure, CompositeMeasure
from repro.cluster.linkage import AverageLinkMeasure
from repro.config import DistinctConfig
from repro.core.features import (
    PairFeatures,
    all_pairs,
    compute_pair_features,
    pair_matrix,
)
from repro.core.references import (
    NameReferences,
    exclusions_for_name,
    extract_references,
    live_paths,
    shared_paths,
)
from repro.errors import NotFittedError
from repro.ml.model import PathWeightModel
from repro.ml.validation import cross_validate
from repro.ml.svm import LinearSVM
from repro.ml.trainingset import TrainingSet, build_training_set
from repro.obs import counter, get_logger, span, timed
from repro.paths.enumerate import enumerate_paths
from repro.paths.joinpath import JoinPath
from repro.paths.profiles import ProfileBuilder
from repro.paths.propagation import Exclusions
from repro.perf.csr import Csr
from repro.perf.transitions import StepMatrices
from repro.reldb.database import Database
from repro.resilience.faults import fault_check

MEASURES = ("combined", "resemblance", "walk")

log = get_logger("core.distinct")
_PAIRS_SCORED = counter("pairs.scored")
_NAMES_RESOLVED = counter("names.resolved")


@dataclass
class NameResolution:
    """The outcome of resolving one name.

    ``clusters`` hold reference row ids (of the reference relation); the
    raw pair features and combined matrices are kept for inspection,
    evaluation, and visualization.
    """

    name: str
    rows: list[int]
    clusters: list[set[int]]
    clustering: ClusteringResult | None
    features: PairFeatures | None
    resem_matrix: np.ndarray | None = None
    walk_matrix: np.ndarray | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> dict[int, int]:
        """reference row id -> predicted cluster index."""
        out: dict[int, int] = {}
        for label, cluster in enumerate(self.clusters):
            for row in cluster:
                out[row] = label
        return out


@dataclass
class FitReport:
    """What happened during :meth:`Distinct.fit` (timings in seconds)."""

    n_paths: int
    n_training_pairs: int
    n_rare_names: int
    train_accuracy_resem: float
    train_accuracy_walk: float
    seconds_training_set: float
    seconds_features: float
    seconds_svm: float

    @property
    def seconds_total(self) -> float:
        return self.seconds_training_set + self.seconds_features + self.seconds_svm


class Distinct:
    """The full DISTINCT methodology bound to one configuration.

    ``steps`` holds the join-step matrices of the database; every batch
    the pipeline propagates (:attr:`profiles`) reads them, so each step
    is built once whatever the number of names, and extended by the
    appended rows when its relations grow.

    ``paths_`` holds the enumerated join paths the exclusion rule leaves
    alive (:func:`~repro.core.references.live_paths`), one feature
    column each; ``n_enumerated_paths_`` counts them all.
    :attr:`shared_paths_` are the live paths whose features are their
    prefix's (:func:`~repro.core.references.shared_paths`): no batch
    finalizes them and no kernel scores them.
    """

    def __init__(self, config: DistinctConfig | None = None) -> None:
        self.config = config or DistinctConfig()
        self.db: Database | None = None
        self.paths_: list[JoinPath] | None = None
        self.n_enumerated_paths_: int | None = None
        self.resem_model_: PathWeightModel | None = None
        self.walk_model_: PathWeightModel | None = None
        self.training_set_: TrainingSet | None = None
        self.fit_report_: FitReport | None = None
        self.steps = StepMatrices()

    @classmethod
    def from_models(
        cls,
        db: Database,
        resem_model: PathWeightModel,
        walk_model: PathWeightModel,
        config: DistinctConfig | None = None,
    ) -> "Distinct":
        """Build a resolvable pipeline from previously trained models.

        Paths are re-enumerated from the schema and the models aligned by
        signature, so a model trained on one database instance applies to
        any database with the same schema (e.g. a fresh DBLP load).
        """
        distinct = cls(config)
        distinct.db = db
        distinct._enumerate_paths()
        distinct.resem_model_ = resem_model.align_to(distinct.paths_)
        distinct.walk_model_ = walk_model.align_to(distinct.paths_)
        return distinct

    # -- training (§3) -----------------------------------------------------

    def fit(self, db: Database) -> "Distinct":
        """Learn per-path weights from the automatically built training set."""
        config = self.config
        self.db = db
        with span("fit", reference_relation=config.reference_relation) as fit_span:
            self._enumerate_paths()

            with timed("fit.training_set") as sp_training:
                training_set = build_training_set(
                    db,
                    n_positive=config.n_positive,
                    n_negative=config.n_negative,
                    max_token_count=config.max_token_count,
                    min_refs=config.min_refs,
                    max_refs=config.max_refs,
                    seed=config.seed,
                    reference_relation=config.reference_relation,
                    object_relation=config.object_relation,
                    object_key=config.object_key,
                    name_attribute=config.name_attribute,
                )

            with timed("fit.features", n_pairs=len(training_set.pairs)) as sp_features:
                features = self._training_features(training_set)

            with timed("fit.svm") as sp_svm:
                labels = np.asarray(training_set.labels(), dtype=float)
                self.resem_model_, acc_resem = self._train_measure(
                    "resemblance", features.resemblance, labels
                )
                self.walk_model_, acc_walk = self._train_measure(
                    "walk", features.walk, labels
                )

            self.training_set_ = training_set
            self.fit_report_ = FitReport(
                n_paths=len(self.paths_),
                n_training_pairs=len(training_set.pairs),
                n_rare_names=len(training_set.rare_names),
                train_accuracy_resem=acc_resem,
                train_accuracy_walk=acc_walk,
                seconds_training_set=sp_training.duration,
                seconds_features=sp_features.duration,
                seconds_svm=sp_svm.duration,
            )
            fit_span.annotate(
                n_paths=len(self.paths_), n_training_pairs=len(training_set.pairs)
            )
        log.info(
            "fit: %d paths, %d training pairs, train acc resem=%.3f walk=%.3f "
            "(%.2fs)",
            len(self.paths_),
            len(training_set.pairs),
            acc_resem,
            acc_walk,
            self.fit_report_.seconds_total,
        )
        return self

    def _enumerate_paths(self) -> None:
        """Enumerate the schema's join paths; keep the live ones."""
        assert self.db is not None
        enumerated = enumerate_paths(
            self.db.schema, self.config.reference_relation, self.config.path_config
        )
        self.paths_ = live_paths(enumerated, self.config)
        self.n_enumerated_paths_ = len(enumerated)

    def _training_features(self, training_set: TrainingSet) -> PairFeatures:
        """Features for training pairs from one batch over every training
        reference, each under its own name's exclusions (the same as at
        resolve time)."""
        assert self.db is not None
        by_name: dict[str, Exclusions] = {}
        by_row: dict[int, Exclusions] = {}
        for pair in training_set.pairs:
            for row, name in ((pair.row_a, pair.name_a), (pair.row_b, pair.name_b)):
                if name not in by_name:
                    by_name[name] = exclusions_for_name(self.db, name, self.config)
                by_row.setdefault(row, by_name[name])
        rows = list(by_row)
        matrices = self.profiles.matrices_for(rows, [by_row[row] for row in rows])
        pairs = np.array([(p.row_a, p.row_b) for p in training_set.pairs], dtype=np.int64)
        return compute_pair_features(self.paths_, pairs, matrices, self.shared_paths_)

    @property
    def shared_paths_(self) -> dict[JoinPath, JoinPath]:
        """Each live path whose features are its prefix's, mapped to that
        prefix (:func:`~repro.core.references.shared_paths`)."""
        if self.paths_ is None:
            raise NotFittedError("call fit(db) before reading the paths")
        return shared_paths(self.paths_, self.config)

    @property
    def profiles(self) -> ProfileBuilder:
        """The pipeline's one way into propagation: its live paths, less
        the shared ones, over the shared ``steps``. Every feature
        computation, whatever the caller, propagates here, each reference
        under its own name's exclusions, so resolution, training,
        calibration, explanation and ingest see the same values."""
        if self.db is None or self.paths_ is None:
            raise NotFittedError("call fit(db) before building profiles")
        shared = self.shared_paths_
        return ProfileBuilder(
            self.db, [path for path in self.paths_ if path not in shared], self.steps
        )

    def _train_measure(
        self, measure: str, X: np.ndarray, labels: np.ndarray
    ) -> tuple[PathWeightModel, float]:
        """Train one per-measure SVM on *raw* features.

        Training in raw feature space is deliberate: the learned weights are
        used directly as the Eq-1 similarity combiners, so they must respect
        the natural magnitude gap between strong paths (coauthor walk
        probabilities ~1e-1) and weak ubiquitous ones (conference or year
        overlap). Rescaling features before training and mapping weights
        back inflates the weak paths' weights by 1/scale, which floods the
        combined similarity with noise (see DESIGN.md §6).
        """
        assert self.paths_ is not None
        cost = self.config.svm_C
        if cost is None:
            cost = self._select_cost(X, labels)
        svm = self._make_svm(cost).fit(X, labels)
        accuracy = svm.accuracy(X, labels)
        model = PathWeightModel(
            measure=measure,
            signatures=[p.signature() for p in self.paths_],
            weights=[float(w) for w in svm.weights_],
            bias=float(svm.bias_),
            metadata={
                "train_accuracy": accuracy,
                "n_train": int(len(labels)),
                "C": cost,
            },
        )
        return model, accuracy

    def _make_svm(self, cost: float) -> LinearSVM:
        return LinearSVM(C=cost)

    def _select_cost(self, X: np.ndarray, labels: np.ndarray) -> float:
        """Pick C by k-fold cross-validation over the config grid: the
        smallest C whose mean accuracy is within one standard error of the
        best mean (the one-standard-error rule).

        Pair accuracy keeps creeping up with C until a fit is effectively
        unregularized, so the plain argmax lands near the top of whatever
        grid is given; the smallest C the folds cannot tell from the best
        does not move when the grid grows past the plateau.
        """
        k = self.config.svm_cv_folds
        scores = {
            cost: cross_validate(
                lambda: self._make_svm(cost), X, labels, k=k, seed=self.config.seed
            )
            for cost in self.config.svm_C_grid
        }
        best = max(scores.values(), key=lambda result: result["accuracy_mean"])
        bar = best["accuracy_mean"] - best["accuracy_std"] / math.sqrt(k)
        return min(c for c, result in scores.items() if result["accuracy_mean"] >= bar)

    # -- resolution (§2 + §4) --------------------------------------------------

    def resolve(
        self,
        name: str,
        min_sim: float | None = None,
        measure: str = "combined",
        supervised: bool = True,
    ) -> NameResolution:
        """Cluster the references carrying ``name``.

        ``measure`` selects the cluster similarity: ``"combined"`` (the
        DISTINCT composite), ``"resemblance"`` (Average-Link set resemblance
        only), or ``"walk"`` (collective walk probability only) — the Fig-4
        variants. ``supervised=False`` replaces the learned weights with
        uniform weights over the raw per-path features.
        """
        return self.cluster_prepared(
            self.prepare(name), min_sim=min_sim, measure=measure, supervised=supervised
        )

    def prepare(self, name: str) -> "NamePreparation":
        """Profile a name's references and compute all pair features once.

        The expensive part of resolution (propagation + per-path pair
        similarities) does not depend on ``min_sim``, ``measure``, or the
        supervision flag, so threshold sweeps and variant comparisons should
        prepare once and call :meth:`cluster_prepared` repeatedly.
        """
        if self.db is None or self.paths_ is None:
            raise NotFittedError("call fit(db) before prepare()")
        with span("resolve.prepare", name=name) as prep_span:
            fault_check("profile", name)
            refs = extract_references(self.db, name, self.config)
            prep = self.prepare_references(refs)
            prep_span.annotate(n_refs=len(prep.rows))
            if prep.features is not None:
                prep_span.annotate(n_pairs=prep.features.n_pairs)
        return prep

    def prepare_references(
        self,
        refs: NameReferences,
        trace: dict[str, Csr] | None = None,
    ) -> "NamePreparation":
        """:meth:`prepare` once the references are known: one batch over
        ``refs.rows``, each under ``refs.exclusions``, then every pair
        (:func:`all_pairs` order) through the pair kernel. ``trace``
        collects the batch's visited patterns
        (:func:`repro.paths.batch.batch_profile_matrices`)."""
        if len(refs.rows) <= 1:
            return NamePreparation(name=refs.name, rows=list(refs.rows), features=None)
        with span("resolve.profiles", name=refs.name, n_refs=len(refs.rows)):
            matrices = self.profiles.matrices_for(
                refs.rows, [refs.exclusions] * len(refs.rows), trace
            )
        pairs = all_pairs(refs.rows)
        with span("resolve.similarity", name=refs.name, n_pairs=len(pairs)):
            features = compute_pair_features(
                self.paths_, pairs, matrices, self.shared_paths_
            )
        _PAIRS_SCORED.inc(len(pairs))
        log.debug("prepared %r: %d references, %d pairs", refs.name, len(refs.rows),
                  len(pairs))
        return NamePreparation(name=refs.name, rows=list(refs.rows), features=features)

    def pair_features(self, exclusions: Exclusions, pairs: np.ndarray) -> PairFeatures:
        """Features of ``pairs`` (an ``(n_pairs, 2)`` array) of one name's
        references: one batch over the pairs' rows, all under the name's
        ``exclusions``, so each pair scores as in :meth:`prepare`."""
        rows = list(dict.fromkeys(np.ravel(pairs).tolist()))
        matrices = self.profiles.matrices_for(rows, [exclusions] * len(rows))
        return compute_pair_features(self.paths_, pairs, matrices, self.shared_paths_)

    def cluster_prepared(
        self,
        prep: "NamePreparation",
        min_sim: float | None = None,
        measure: str = "combined",
        supervised: bool = True,
    ) -> NameResolution:
        """Cluster an already prepared name (see :meth:`prepare`)."""
        if measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}")
        fault_check("cluster", prep.name)
        if supervised and (self.resem_model_ is None or self.walk_model_ is None):
            raise NotFittedError("supervised resolution requires a fitted model")
        min_sim = self.config.min_sim if min_sim is None else min_sim

        if prep.features is None:  # zero or one reference
            return NameResolution(
                name=prep.name,
                rows=list(prep.rows),
                clusters=[{row} for row in prep.rows],
                clustering=None,
                features=None,
            )

        features = prep.features
        with span(
            "resolve.cluster", name=prep.name, measure=measure, min_sim=min_sim
        ) as sp:
            resem_values, walk_values = self._combined_pair_values(features, supervised)
            resem_matrix = pair_matrix(len(prep.rows), resem_values)
            walk_matrix = pair_matrix(len(prep.rows), walk_values)
            cluster_measure = self._make_measure(measure, resem_matrix, walk_matrix)
            result = AgglomerativeClusterer(min_sim=min_sim).cluster(cluster_measure)
            sp.annotate(n_clusters=result.n_clusters)
        _NAMES_RESOLVED.inc()

        return NameResolution(
            name=prep.name,
            rows=list(prep.rows),
            clusters=row_clusters(prep.rows, result.clusters),
            clustering=result,
            features=features,
            resem_matrix=resem_matrix,
            walk_matrix=walk_matrix,
        )

    def _combined_pair_values(
        self, features: PairFeatures, supervised: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        if supervised:
            return features.combined(*self.combiners(features.paths))
        # Unsupervised: uniform weights over *raw* per-path similarities.
        # This mirrors the unweighted prior work ([1], [9]) the paper
        # compares against, which sums raw resemblances / walk probabilities
        # over all linkage types without learning per-path pertinence.
        # Each path weighs 1 / (enumerated paths), not 1 / (live paths): the
        # paths live_paths drops only add zeros, and the variants' min-sim
        # grid is read on this scale.
        assert self.n_enumerated_paths_ is not None
        uniform = np.full(len(features.paths), 1.0 / self.n_enumerated_paths_)
        return features.combined(uniform, uniform)

    def combiners(self, paths: list[JoinPath]) -> tuple[np.ndarray, np.ndarray]:
        """The Eq-1 (resemblance, walk) weight arrays over ``paths``: each
        model's weights aligned to ``paths`` by signature, negative
        weights clamped to 0, then rescaled to sum to 1 (all-zero weights
        stay zero).

        A positive global rescale of one measure rescales every composite
        similarity equally, so cluster merge order is unchanged — but the
        combined resemblance becomes a convex combination of per-path
        Jaccard values in [0, 1], giving ``min_sim`` a stable,
        interpretable scale across worlds and seeds.
        """
        if self.resem_model_ is None or self.walk_model_ is None:
            raise NotFittedError("the combiners need the supervised models")
        return (
            _eq1_weights(self.resem_model_.align_to(paths).weights),
            _eq1_weights(self.walk_model_.align_to(paths).weights),
        )

    @staticmethod
    def _make_measure(
        measure: str, resem_matrix: np.ndarray, walk_matrix: np.ndarray
    ):
        if measure == "combined":
            return CompositeMeasure(resem_matrix, walk_matrix)
        if measure == "resemblance":
            return AverageLinkMeasure(resem_matrix)
        return CollectiveWalkMeasure(walk_matrix)


def _eq1_weights(weights: list[float]) -> np.ndarray:
    """Clamp negative weights to 0, then divide by their sum (taken in
    list order), unless every weight is 0."""
    clamped = [max(0.0, w) for w in weights]
    total = sum(clamped)
    return np.array(
        clamped if total == 0.0 else [w / total for w in clamped], dtype=float
    )


def row_clusters(rows: list[int], leaf_clusters: list[set[int]]) -> list[set[int]]:
    """A clustering of leaf indices (positions in ``rows``) as clusters
    of reference rows."""
    return [{rows[i] for i in cluster} for cluster in leaf_clusters]


@dataclass
class NamePreparation:
    """Cached expensive state for one name: rows + pair features.

    ``features`` is None when the name has at most one reference.
    """

    name: str
    rows: list[int]
    features: PairFeatures | None
