"""Unit tests for the greedy assigner."""

from __future__ import annotations

import pytest

from repro.core.distinct import Distinct
from repro.core.references import exclusions_for_name, extract_references
from repro.data.deltas import grow_world, split_world
from repro.ingest import Assignment, extend_resolution
from repro.reldb.delta import apply_delta

from tests.oracle import greedy_assignments

MIN_SIM = 0.4


def warm_preparation(fitted, small_world, name, n_delta=4, seed=19):
    """A name prepared on a pre-delta base, the base then grown by a delta
    of papers by the name's entities, and the rows the delta added."""
    pool = [e.entity_id for e in small_world.entities if e.name == name]
    grown = grow_world(small_world, n_delta, seed=seed, author_pool=pool)
    split = split_world(grown, n_delta)
    warm = Distinct.from_models(
        split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
    )
    prep = warm.prepare(name)
    apply_delta(warm.db, split.delta)
    refs = extract_references(warm.db, name, warm.config)
    new_rows = [r for r in refs.rows if r not in set(prep.rows)]
    return warm, prep, new_rows


def warm_resolution(fitted, small_world, name, n_delta=4, seed=19):
    warm, prep, new_rows = warm_preparation(fitted, small_world, name, n_delta, seed)
    return warm, warm.cluster_prepared(prep, min_sim=MIN_SIM), new_rows


def confident(step, min_sim, rel=1e-9):
    """The oracle's pick leads the runner-up, and clears ``min_sim``, by
    more than ``rel`` relative (or no cluster scored above 0)."""
    ranked = sorted(step.candidates, reverse=True)
    best = ranked[0] if ranked else 0.0
    if best <= 0.0:
        return True
    runner_up = ranked[1] if len(ranked) > 1 else 0.0
    return best - runner_up > rel * best and abs(best - min_sim) > rel * best


class TestExtendResolution:
    def test_new_rows_join_without_mutating_the_input(self, fitted, small_world):
        warm, resolution, new_rows = warm_resolution(
            fitted, small_world, "Jim Smith"
        )
        assert new_rows  # the author pool guarantees fresh references
        n_before = len(resolution.rows)
        extended, assignments = extend_resolution(
            warm, resolution, new_rows, min_sim=MIN_SIM
        )
        assert len(resolution.rows) == n_before  # input untouched
        assert extended.rows == resolution.rows + new_rows
        assert [a.row for a in assignments] == new_rows
        assert extended.resem_matrix.shape == (len(extended.rows),) * 2
        for a in assignments:
            assert isinstance(a, Assignment)
            assert a.row in extended.clusters[a.cluster_index]

    def test_impossible_threshold_creates_singletons(self, fitted, small_world):
        warm, resolution, new_rows = warm_resolution(
            fitted, small_world, "Jim Smith"
        )
        extended, assignments = extend_resolution(
            warm, resolution, new_rows, min_sim=1.1
        )
        assert all(a.created_new_cluster for a in assignments)
        assert len(extended.clusters) == len(resolution.clusters) + len(new_rows)

    def test_already_resolved_row_rejected(self, fitted, small_world):
        warm, resolution, _ = warm_resolution(fitted, small_world, "Jim Smith")
        with pytest.raises(ValueError, match="already resolved"):
            extend_resolution(warm, resolution, [resolution.rows[0]])

    def test_extended_resolution_carries_no_stale_merge_history(
        self, fitted, small_world
    ):
        warm, resolution, new_rows = warm_resolution(
            fitted, small_world, "Jim Smith"
        )
        assert resolution.clustering is not None
        extended, _ = extend_resolution(warm, resolution, new_rows, min_sim=MIN_SIM)
        # Greedy assignment makes no merges: a history of the old leaves
        # alone would label fewer rows than the resolution holds.
        assert extended.clustering is None


class TestMatchesScalarOracle:
    """The fold through :class:`~repro.cluster.composite.CompositeMeasure`
    sums each cluster's pair values in another order than the scalar loop
    once arrivals join, so similarities agree to 1e-12 relative and
    assignments wherever the oracle's pick is not a near tie."""

    @pytest.mark.parametrize(
        "name,seed",
        [("Wei Wang", 19), ("Wei Wang", 5), ("Rakesh Kumar", 19), ("Jim Smith", 7)],
    )
    def test_assignments_and_similarities(self, fitted, small_world, name, seed):
        warm, prep, new_rows = warm_preparation(
            fitted, small_world, name, n_delta=8, seed=seed
        )
        assert len(new_rows) >= 3
        for min_sim in (0.0, 0.006, 0.05, MIN_SIM):
            resolution = warm.cluster_prepared(prep, min_sim=min_sim)
            extended, assignments = extend_resolution(
                warm, resolution, new_rows, min_sim=min_sim
            )
            rows, clusters, resem, walk, steps = greedy_assignments(
                warm, resolution, new_rows, min_sim
            )
            assert extended.rows == rows
            assert extended.resem_matrix.tobytes() == resem.tobytes()
            assert extended.walk_matrix.tobytes() == walk.tobytes()
            for got, want in zip(assignments, steps, strict=True):
                assert got.row == want.row
                assert got.similarity == pytest.approx(want.similarity, rel=1e-12)
                if (got.cluster_index, got.created_new_cluster) != (
                    want.cluster_index,
                    want.created_new_cluster,
                ):
                    # A near tie may go either way; the clusters the later
                    # arrivals see differ from here on.
                    assert not confident(want, min_sim)
                    break
            else:
                assert extended.clusters == clusters

    def test_an_arrival_linked_to_no_cluster_starts_one(self, fitted):
        # At min_sim = 0 only the positivity rule keeps an arrival that
        # shares nothing with any cluster out of the first one.
        name = "Jim Smith"
        resolution = fitted.cluster_prepared(fitted.prepare(name), min_sim=0.0)
        n_refs = fitted.db.relation_sizes()[fitted.config.reference_relation]
        others = [r for r in range(n_refs) if r not in set(resolution.rows)]
        k = len(resolution.rows)
        features = fitted.pair_features(
            exclusions_for_name(fitted.db, name, fitted.config),
            [(other, row) for other in others for row in resolution.rows],
        )
        resem, walk = features.combined(*fitted.combiners(features.paths))
        unlinked = next(
            other
            for i, other in enumerate(others)
            if not (resem[i * k : (i + 1) * k] > 0).any()
            or not (walk[i * k : (i + 1) * k] > 0).any()
        )
        extended, (assignment,) = extend_resolution(
            fitted, resolution, [unlinked], min_sim=0.0
        )
        *_, (step,) = greedy_assignments(fitted, resolution, [unlinked], 0.0)
        assert assignment.created_new_cluster and step.created_new_cluster
        assert assignment.similarity == step.similarity == 0.0
        assert extended.clusters[-1] == {unlinked}
