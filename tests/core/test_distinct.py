import numpy as np
import pytest
from scipy import sparse

from repro import Distinct, DistinctConfig
from repro.core.distinct import NamePreparation
from repro.core.features import compute_pair_features
from repro.core.references import exclusions_for_name
from repro.obs import get_metrics
from repro.paths.batch import BatchedProfiles
from repro.core.variants import FIG4_VARIANTS, variant_by_key
from repro.errors import NotFittedError
from repro.eval.metrics import pairwise_scores

from tests.oracle import ScalarProfileBuilder, scalar_pair_features


class TestFit:
    def test_fit_report(self, fitted):
        report = fitted.fit_report_
        assert report.n_paths == len(fitted.paths_)
        assert report.n_training_pairs == 600
        assert report.n_rare_names > 5
        assert 0.6 <= report.train_accuracy_resem <= 1.0
        assert report.seconds_total > 0

    def test_models_cover_all_paths(self, fitted):
        signatures = [p.signature() for p in fitted.paths_]
        assert fitted.resem_model_.signatures == signatures
        assert fitted.walk_model_.signatures == signatures

    def test_coauthor_family_path_has_top_resemblance_weight(self, fitted):
        top_signature, weight = fitted.resem_model_.top_paths(1)[0]
        assert weight > 0
        # The strongest path involves the coauthor hop through Authors.
        assert "Authors" in top_signature

    def test_unfitted_resolve_raises(self):
        with pytest.raises(NotFittedError):
            Distinct(DistinctConfig()).resolve("Wei Wang")

    def test_unfitted_prepare_raises(self):
        with pytest.raises(NotFittedError):
            Distinct(DistinctConfig()).prepare("Wei Wang")


class TestTrainingFeatures:
    def test_one_batch_equals_a_batch_per_name(self, fitted):
        """Every training pair's bytes, against the pair assembled from
        its two rows' profiles, each row propagated in a batch of its own
        name's training rows under that name's exclusions."""
        training_set = fitted.training_set_
        rows_of: dict[str, list[int]] = {}
        for pair in training_set.pairs:
            for row, name in ((pair.row_a, pair.name_a), (pair.row_b, pair.name_b)):
                rows = rows_of.setdefault(name, [])
                if row not in rows:
                    rows.append(row)
        profile_of = {}
        for name, rows in rows_of.items():
            exclusions = exclusions_for_name(fitted.db, name, fitted.config)
            batch = fitted.profiles.matrices_for(rows, [exclusions] * len(rows))
            for k, row in enumerate(rows):
                profile_of[row] = {
                    path: (stacked.forward[k], stacked.backward[k])
                    for path, stacked in batch.items()
                }
        got = fitted._training_features(training_set)
        assert got.resemblance.shape[1] == len(fitted.paths_)
        for k, pair in enumerate(training_set.pairs):
            a, b = profile_of[pair.row_a], profile_of[pair.row_b]
            two_rows = {
                path: BatchedProfiles(
                    path,
                    [pair.row_a, pair.row_b],
                    sparse.vstack([a[path][0], b[path][0]], format="csr"),
                    sparse.vstack([a[path][1], b[path][1]], format="csr"),
                )
                for path in a
            }
            want = compute_pair_features(
                fitted.paths_,
                np.array([[pair.row_a, pair.row_b]]),
                two_rows,
                fitted.shared_paths_,
            )
            assert got.resemblance[k].tobytes() == want.resemblance[0].tobytes()
            assert got.walk[k].tobytes() == want.walk[0].tobytes()

    def test_fit_propagates_one_batch(self, small_db):
        db, _ = small_db
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        distinct = Distinct(DistinctConfig(n_positive=40, n_negative=40, svm_C=10.0))
        distinct.fit(db)
        assert len(distinct.training_set_.rare_names) > 1
        assert runs.value - before == 1


class TestBackendEquivalentResolutions:
    def test_resolutions_identical_across_backends(self, fitted):
        """The production route clusters exactly as the scalar reference."""
        for name in ("Wei Wang", "Jim Smith"):
            prep = fitted.prepare(name)
            oracle = ScalarProfileBuilder(
                fitted.db, fitted.paths_,
                exclusions_for_name(fitted.db, name, fitted.config),
            )
            scalar = NamePreparation(
                name, prep.rows, scalar_pair_features(oracle, prep.features.pairs)
            )
            assert fitted.cluster_prepared(prep).clusters == (
                fitted.cluster_prepared(scalar).clusters
            )


class TestResolve:
    def test_resolution_covers_all_references(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Wei Wang")
        covered = sorted(row for cluster in resolution.clusters for row in cluster)
        assert covered == sorted(truth.rows_of_name["Wei Wang"])

    def test_resolution_quality_on_small_world(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Wei Wang")
        gold = list(truth.clusters_for("Wei Wang").values())
        scores = pairwise_scores(resolution.clusters, gold)
        assert scores.f1 > 0.75

    def test_two_entity_name_resolved(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Rakesh Kumar")
        gold = list(truth.clusters_for("Rakesh Kumar").values())
        scores = pairwise_scores(resolution.clusters, gold)
        assert scores.f1 > 0.8

    def test_labels_consistent_with_clusters(self, fitted):
        resolution = fitted.resolve("Wei Wang")
        labels = resolution.labels()
        for idx, cluster in enumerate(resolution.clusters):
            for row in cluster:
                assert labels[row] == idx

    def test_bad_measure_rejected(self, fitted):
        with pytest.raises(ValueError):
            fitted.resolve("Wei Wang", measure="cosine")

    def test_min_sim_monotone_in_cluster_count(self, fitted):
        prep = fitted.prepare("Wei Wang")
        low = fitted.cluster_prepared(prep, min_sim=1e-6)
        high = fitted.cluster_prepared(prep, min_sim=0.5)
        assert low.n_clusters <= high.n_clusters

    def test_prepare_then_cluster_matches_resolve(self, fitted):
        direct = fitted.resolve("Jim Smith")
        prep = fitted.prepare("Jim Smith")
        via_prep = fitted.cluster_prepared(prep)
        assert direct.clusters == via_prep.clusters

    def test_matrices_symmetric_nonnegative(self, fitted):
        resolution = fitted.resolve("Rakesh Kumar")
        for matrix in (resolution.resem_matrix, resolution.walk_matrix):
            assert np.allclose(matrix, matrix.T)
            assert np.all(matrix >= 0.0)


class TestVariants:
    def test_fig4_variant_list(self):
        keys = [v.key for v in FIG4_VARIANTS]
        assert keys[0] == "distinct"
        assert len(keys) == 6
        assert len(set(keys)) == 6

    def test_variant_by_key(self):
        assert variant_by_key("sup_walk").measure == "walk"
        with pytest.raises(KeyError):
            variant_by_key("nope")

    def test_only_distinct_skips_sweep(self):
        no_sweep = [v for v in FIG4_VARIANTS if not v.sweep_min_sim]
        assert [v.key for v in no_sweep] == ["distinct"]

    def test_all_variants_resolve(self, fitted):
        prep = fitted.prepare("Rakesh Kumar")
        for variant in FIG4_VARIANTS:
            resolution = fitted.cluster_prepared(
                prep, measure=variant.measure, supervised=variant.supervised
            )
            assert resolution.n_clusters >= 1

    def test_supervised_beats_unsupervised_on_small_world(self, fitted, small_db):
        # Shape assertion from Fig 4: at each variant's best threshold over
        # a small grid, DISTINCT >= the unsupervised combined variant.
        db, truth = small_db
        names = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
        preps = {name: fitted.prepare(name) for name in names}
        grid = (1e-4, 1e-3, 0.003, 0.006, 0.01, 0.03, 0.1)

        def best_f(measure, supervised):
            scores = []
            for min_sim in grid:
                fs = []
                for name in names:
                    res = fitted.cluster_prepared(
                        preps[name], min_sim=min_sim, measure=measure, supervised=supervised
                    )
                    gold = list(truth.clusters_for(name).values())
                    fs.append(pairwise_scores(res.clusters, gold).f1)
                scores.append(np.mean(fs))
            return max(scores)

        assert best_f("combined", True) >= best_f("combined", False) - 1e-9


class TestSingleReferenceEdgeCases:
    def test_single_reference_name(self):
        from tests.minidb import build_minidb

        db = build_minidb()
        distinct = Distinct(DistinctConfig())
        distinct.db = db
        from repro.paths.enumerate import enumerate_paths

        distinct.paths_ = enumerate_paths(
            db.schema, "Publish", distinct.config.path_config
        )
        resolution = distinct.resolve("Jiawei Han", supervised=False)
        assert resolution.n_clusters == 1
        assert resolution.clustering is None
