"""The DISTINCT facade: fit once per database, resolve any name.

``fit(db)`` implements §3: enumerate join paths, construct the training set
automatically from rare names, compute per-pair per-path similarity
features, and train two linear SVMs (one per measure) whose raw-space
weights become the Eq-1 combiners.

``resolve(name)`` implements §2 + §4: profile the name's references along
every path, combine per-path similarities with the learned weights, and
agglomeratively cluster with the composite geometric-mean measure until the
best similarity falls below ``min_sim``.
"""

from __future__ import annotations

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
    exclusions_for_name,
    extract_references,
    live_paths,
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
from repro.perf.transitions import StepMatrices
from repro.reldb.database import Database
from repro.resilience.faults import fault_check
from repro.similarity.combine import PathWeights

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

    ``steps`` holds the join-step matrices of the current database epoch;
    every profile builder of the pipeline reads them, so each step is
    built once per epoch whatever the number of names.

    ``paths_`` holds the enumerated join paths the exclusion rule leaves
    alive (:func:`~repro.core.references.live_paths`);
    ``n_enumerated_paths_`` counts them all.
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
        """Features for training pairs, routing each reference through the
        profile builder of its own name (same exclusions as at resolve time)."""
        builders: dict[str, ProfileBuilder] = {}

        def builder_for(name: str) -> ProfileBuilder:
            if name not in builders:
                builders[name] = self.profile_builder(name)
            return builders[name]

        router = _RoutedProfiles(self.paths_, {})
        for pair in training_set.pairs:
            router.route[pair.row_a] = builder_for(pair.name_a)
            router.route[pair.row_b] = builder_for(pair.name_b)
        pairs = [(p.row_a, p.row_b) for p in training_set.pairs]
        return compute_pair_features(router, pairs)

    def profile_builder(self, name: str) -> ProfileBuilder:
        """The profile builder of ``name``: its exclusions over the shared
        step matrices. Every feature computation for a real name goes
        through one of these, so resolution, training, explanation and
        ingest see the same values."""
        if self.db is None or self.paths_ is None:
            raise NotFittedError("call fit(db) before building profiles")
        return self._builder(exclusions_for_name(self.db, name, self.config))

    def _builder(self, exclusions: Exclusions) -> ProfileBuilder:
        """A profile builder under ``exclusions`` that reads ``steps``."""
        assert self.db is not None and self.paths_ is not None
        builder = ProfileBuilder(self.db, self.paths_, exclusions)
        builder.engine.steps = self.steps
        return builder

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
        return LinearSVM(
            C=cost,
            loss=self.config.svm_loss,
            tol=self.config.svm_tol,
            max_epochs=self.config.svm_max_epochs,
            seed=self.config.seed,
            strict=self.config.svm_retries > 0,
            class_weight=self.config.svm_class_weight,
            retries=self.config.svm_retries,
        )

    def _select_cost(self, X: np.ndarray, labels: np.ndarray) -> float:
        """Pick C by k-fold cross-validated accuracy over the config grid."""
        best_cost = self.config.svm_C_grid[0]
        best_score = -1.0
        for cost in self.config.svm_C_grid:
            result = cross_validate(
                lambda: self._make_svm(cost),
                X,
                labels,
                k=self.config.svm_cv_folds,
                seed=self.config.seed,
            )
            if result["accuracy_mean"] > best_score:
                best_score = result["accuracy_mean"]
                best_cost = cost
        return best_cost

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
            if len(refs.rows) <= 1:
                prep_span.annotate(n_refs=len(refs.rows))
                return NamePreparation(name=name, rows=list(refs.rows), features=None)
            builder = self.profile_builder(name)
            with span("resolve.profiles", name=name, n_refs=len(refs.rows)):
                matrices = builder.matrices_for(refs.rows)
            pairs = all_pairs(refs.rows)
            with span("resolve.similarity", name=name, n_pairs=len(pairs)):
                features = compute_pair_features(builder, pairs, matrices)
            _PAIRS_SCORED.inc(len(pairs))
            prep_span.annotate(n_refs=len(refs.rows), n_pairs=len(pairs))
        log.debug("prepared %r: %d references, %d pairs", name, len(refs.rows),
                  len(pairs))
        return NamePreparation(name=name, rows=list(refs.rows), features=features)

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
            resem_matrix = pair_matrix(prep.rows, features.pairs, resem_values)
            walk_matrix = pair_matrix(prep.rows, features.pairs, walk_values)
            cluster_measure = self._make_measure(measure, resem_matrix, walk_matrix)
            result = AgglomerativeClusterer(min_sim=min_sim).cluster(cluster_measure)
            sp.annotate(n_clusters=result.n_clusters)
        _NAMES_RESOLVED.inc()

        clusters = [{prep.rows[i] for i in cluster} for cluster in result.clusters]
        return NameResolution(
            name=prep.name,
            rows=list(prep.rows),
            clusters=clusters,
            clustering=result,
            features=features,
            resem_matrix=resem_matrix,
            walk_matrix=walk_matrix,
        )

    def _combined_pair_values(
        self, features: PairFeatures, supervised: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        if supervised:
            assert self.resem_model_ is not None and self.walk_model_ is not None
            clamp = self.config.clamp_negative_weights
            resem_weights = self.resem_model_.align_to(features.paths).combiner(clamp)
            walk_weights = self.walk_model_.align_to(features.paths).combiner(clamp)
            if self.config.normalize_weights:
                resem_weights = resem_weights.normalized()
                walk_weights = walk_weights.normalized()
            return features.combined(resem_weights, walk_weights)
        # Unsupervised: uniform weights over *raw* per-path similarities.
        # This mirrors the unweighted prior work ([1], [9]) the paper
        # compares against, which sums raw resemblances / walk probabilities
        # over all linkage types without learning per-path pertinence.
        # Each path weighs 1 / (enumerated paths), not 1 / (live paths): the
        # paths live_paths drops only add zeros, and the variants' min-sim
        # grid is read on this scale.
        assert self.n_enumerated_paths_ is not None
        uniform = PathWeights(
            [1.0 / self.n_enumerated_paths_] * len(features.paths), clamp_negative=False
        )
        return features.combined(uniform, uniform)

    @staticmethod
    def _make_measure(
        measure: str, resem_matrix: np.ndarray, walk_matrix: np.ndarray
    ):
        if measure == "combined":
            return CompositeMeasure(resem_matrix, walk_matrix)
        if measure == "resemblance":
            return AverageLinkMeasure(resem_matrix)
        return CollectiveWalkMeasure(walk_matrix)


@dataclass
class NamePreparation:
    """Cached expensive state for one name: rows + pair features.

    ``features`` is None when the name has at most one reference.
    """

    name: str
    rows: list[int]
    features: PairFeatures | None


class _RoutedProfiles:
    """ProfileBuilder-compatible view routing each row to its name's builder."""

    def __init__(self, paths: list[JoinPath], route: dict[int, ProfileBuilder]) -> None:
        self.paths = paths
        self.route = route

    def matrices_for(self, rows: list[int]):
        """Batched matrices across builders: one batch per builder, merged.

        Each name's references propagate under that name's exclusions, so
        the batch splits along the route; all builders share one database,
        so the per-path matrices have identical column spaces and stack.
        """
        from repro.paths.batch import merge_batched

        groups: dict[ProfileBuilder, list[int]] = {}
        for row in rows:
            groups.setdefault(self.route[row], []).append(row)
        batched = [
            builder.matrices_for(group_rows)
            for builder, group_rows in groups.items()
        ]
        return merge_batched(list(rows), batched)
