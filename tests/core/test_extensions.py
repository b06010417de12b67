"""Tests for the extension modules: calibration, graph views, incremental
assignment, candidate discovery."""

import networkx as nx
import pytest

from repro.cluster.agglomerative import AgglomerativeClusterer
from repro.cluster.linkage import SingleLinkMeasure
from repro.core.candidates import find_ambiguous_candidates
from repro.ingest.greedy import extend_resolution
from repro.eval.metrics import pairwise_scores
from repro.graph import (
    connected_component_clusters,
    coauthor_graph,
    reference_graph,
    shared_coauthor_count,
    similarity_histogram,
)
from repro.eval.calibration import (
    calibrate_min_sim,
    make_synthetic_names,
    prepare_synthetic,
)


class TestCalibration:
    @pytest.fixture(scope="class")
    def calibration(self, fitted):
        return calibrate_min_sim(fitted, n_names=8, members=2, seed=3)

    def test_synthetic_names_pool_disjoint_rare_names(self, fitted):
        synthetic = make_synthetic_names(fitted, n_names=5, members=3, seed=1)
        assert len(synthetic) == 5
        for syn in synthetic:
            assert len(set(syn.member_names)) == 3
            assert sum(len(g) for g in syn.gold) == len(syn.rows)

    def test_prepared_synthetic_has_features(self, fitted):
        synthetic = make_synthetic_names(fitted, n_names=1, members=2, seed=2)[0]
        prep = prepare_synthetic(fitted, synthetic)
        assert prep.features is not None
        assert prep.rows == synthetic.rows

    def test_best_threshold_in_grid(self, calibration):
        assert calibration.best_min_sim in calibration.f1_by_min_sim
        assert calibration.f1_by_min_sim[calibration.best_min_sim] == max(
            calibration.f1_by_min_sim.values()
        )

    def test_calibrated_threshold_performs_well_on_synthetic(self, calibration):
        # Pooled rare names in mostly different communities should resolve
        # cleanly at the calibrated threshold.
        assert calibration.f1_by_min_sim[calibration.best_min_sim] > 0.8

    def test_calibrated_threshold_close_to_shipped_default(self, calibration, fitted):
        # Order-of-magnitude agreement with the configured default.
        assert 0.001 <= calibration.best_min_sim <= 0.05


class TestReferenceGraph:
    def test_graph_nodes_are_reference_rows(self, fitted):
        resolution = fitted.resolve("Wei Wang")
        graph = reference_graph(resolution)
        assert set(graph.nodes) == set(resolution.rows)

    def test_edge_weights_positive(self, fitted):
        resolution = fitted.resolve("Wei Wang")
        graph = reference_graph(resolution)
        assert graph.number_of_edges() > 0
        assert all(d["weight"] > 0 for _, _, d in graph.edges(data=True))

    def test_components_match_single_link(self, fitted):
        # Independent implementations must agree: connected components over
        # edges >= t == Single-Link agglomerative clustering at min_sim=t.
        resolution = fitted.resolve("Wei Wang")
        graph = reference_graph(resolution)
        threshold = 0.01

        components = connected_component_clusters(graph, threshold)

        from repro.similarity.combine import geometric_mean
        import numpy as np

        n = len(resolution.rows)
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = geometric_mean(
                    resolution.resem_matrix[i, j], resolution.walk_matrix[i, j]
                )
        result = AgglomerativeClusterer(threshold).cluster(SingleLinkMeasure(matrix))
        single_link = sorted(
            ({resolution.rows[i] for i in c} for c in result.clusters),
            key=lambda c: (-len(c), min(c)),
        )
        assert components == single_link

    def test_histogram_covers_all_edges(self, fitted):
        resolution = fitted.resolve("Wei Wang")
        graph = reference_graph(resolution)
        hist = similarity_histogram(graph, bins=5)
        assert sum(count for _, _, count in hist) == graph.number_of_edges()

    def test_requires_matrices(self, fitted):
        from repro.core.distinct import NameResolution

        empty = NameResolution("x", [1], [{1}], None, None)
        with pytest.raises(ValueError):
            reference_graph(empty)


class TestCoauthorGraph:
    def test_counts_shared_papers(self, small_db):
        db, _ = small_db
        graph = coauthor_graph(db)
        assert graph.number_of_nodes() == len(db.table("Authors"))
        assert graph.number_of_edges() > 0
        counts = [d["count"] for _, _, d in graph.edges(data=True)]
        assert max(counts) > 1  # repeat collaborations exist

    def test_shared_coauthor_count(self, small_db):
        db, _ = small_db
        graph = coauthor_graph(db)
        some_edge = next(iter(graph.edges))
        assert shared_coauthor_count(graph, *some_edge) >= 0
        assert shared_coauthor_count(graph, "nope", some_edge[0]) == 0


class TestIncrementalAssignment:
    def test_held_out_references_return_to_their_cluster(self, fitted, small_db):
        db, truth = small_db
        full = fitted.resolve("Wei Wang")
        # Hold out two references, resolve the rest, then add them back.
        held_out = [max(cluster) for cluster in full.clusters if len(cluster) > 3][:2]
        assert held_out

        prep = fitted.prepare("Wei Wang")
        remaining = [r for r in prep.rows if r not in held_out]
        keep_idx = [i for i, r in enumerate(prep.rows) if r not in held_out]
        import numpy as np

        base = fitted.cluster_prepared(prep)
        reduced_clusters = [
            {r for r in c if r not in held_out} for c in base.clusters
        ]
        reduced_clusters = [c for c in reduced_clusters if c]
        from repro.core.distinct import NameResolution

        reduced = NameResolution(
            name="Wei Wang",
            rows=remaining,
            clusters=reduced_clusters,
            clustering=None,
            features=None,
            resem_matrix=base.resem_matrix[np.ix_(keep_idx, keep_idx)],
            walk_matrix=base.walk_matrix[np.ix_(keep_idx, keep_idx)],
        )

        extended, assignments = extend_resolution(fitted, reduced, held_out)
        batch_labels = base.labels()
        for assignment in assignments:
            assert not assignment.created_new_cluster
            # The incremental cluster must contain the batch cluster-mates.
            batch_mates = {
                r for r in base.rows
                if batch_labels[r] == batch_labels[assignment.row] and r != assignment.row
            }
            incremental_cluster = extended.clusters[assignment.cluster_index]
            assert batch_mates & incremental_cluster

    def test_unrelated_reference_gets_new_cluster(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Rakesh Kumar")
        # A Wei Wang reference is not a Rakesh Kumar; in the small fixture
        # world communities overlap, so force a strict threshold to verify
        # the new-cluster path.
        foreign_row = truth.rows_of_name["Wei Wang"][0]
        extended, assignments = extend_resolution(
            fitted, resolution, [foreign_row], min_sim=0.2
        )
        assert assignments[0].created_new_cluster
        assert {foreign_row} in extended.clusters

    def test_already_resolved_row_rejected(self, fitted):
        resolution = fitted.resolve("Rakesh Kumar")
        with pytest.raises(ValueError):
            extend_resolution(fitted, resolution, [resolution.rows[0]])

    def test_input_resolution_not_mutated(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Rakesh Kumar")
        before = [set(c) for c in resolution.clusters]
        foreign_row = truth.rows_of_name["Jim Smith"][0]
        extend_resolution(fitted, resolution, [foreign_row])
        assert [set(c) for c in resolution.clusters] == before


class TestCandidateDiscovery:
    def test_ambiguous_names_rank_high(self, small_db):
        db, truth = small_db
        candidates = find_ambiguous_candidates(db, min_refs=5, min_score=0.1)
        names = [c.name for c in candidates]
        assert "Wei Wang" in names
        assert "Rakesh Kumar" in names

    def test_scores_in_range(self, small_db):
        db, _ = small_db
        for candidate in find_ambiguous_candidates(db, min_refs=5, min_score=0.0):
            assert 0.0 <= candidate.score < 1.0
            assert candidate.n_components >= 1

    def test_limit(self, small_db):
        db, _ = small_db
        assert len(find_ambiguous_candidates(db, min_refs=3, limit=3)) <= 3

    def test_most_unique_names_not_flagged(self, small_db):
        db, truth = small_db
        candidates = find_ambiguous_candidates(db, min_refs=5, min_score=0.3)
        flagged = {c.name for c in candidates}
        unique_names = [
            name
            for name, rows in truth.rows_of_name.items()
            if len({truth.entity_of_row[r] for r in rows}) == 1 and len(rows) >= 5
        ]
        if unique_names:
            flagged_unique = sum(1 for n in unique_names if n in flagged)
            assert flagged_unique / len(unique_names) < 0.5

    def test_str_rendering(self, small_db):
        db, _ = small_db
        candidates = find_ambiguous_candidates(db, min_refs=5, min_score=0.1)
        assert "refs in" in str(candidates[0])
