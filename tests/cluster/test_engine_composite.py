import math

import numpy as np
import pytest

from repro.cluster import (
    AgglomerativeClusterer,
    AverageLinkMeasure,
    CompositeMeasure,
    Dendrogram,
)


def matrix(entries, n):
    m = np.zeros((n, n))
    for i, j, v in entries:
        m[i, j] = m[j, i] = v
    return m


RESEM = matrix([(0, 1, 0.8), (0, 2, 0.6), (1, 2, 0.7), (3, 4, 0.9), (2, 3, 0.1)], 5)
WALK = matrix([(0, 1, 0.4), (0, 2, 0.3), (1, 2, 0.2), (3, 4, 0.5), (2, 3, 0.05)], 5)


class TestCompositeMeasure:
    def test_singleton_similarity_is_geometric_mean(self):
        measure = CompositeMeasure(RESEM, WALK)
        assert measure.similarities(0)[1] == pytest.approx(math.sqrt(0.8 * 0.4))

    def test_zero_when_either_component_zero(self):
        measure = CompositeMeasure(RESEM, WALK)
        assert measure.similarities(0)[4] == 0.0

    def test_average_resemblance_after_merge(self):
        measure = CompositeMeasure(RESEM, WALK)
        measure.merge(0, 1)
        # {0,1} vs {2}: (0.6 + 0.7) / 2
        assert measure.resemblance.similarities(0)[2] == pytest.approx(0.65)

    def test_collective_walk_after_merge(self):
        measure = CompositeMeasure(RESEM, WALK)
        measure.merge(0, 1)
        # W = 0.3 + 0.2 ; (W/2 + W/1) / 2
        assert measure.walk.similarities(0)[2] == pytest.approx(
            0.5 * (0.5 / 2 + 0.5 / 1)
        )

    def test_collective_walk_rewards_many_linkages(self):
        # Average-link dilutes by |C1||C2|; collective walk divides by
        # cluster sizes only once, so many weak cross links still count.
        measure = CompositeMeasure(RESEM, WALK)
        measure.merge(0, 1)
        avg_walk = (0.3 + 0.2) / 2  # what average-link would compute
        assert measure.walk.similarities(0)[2] > avg_walk

    def test_merge_is_equivalent_to_recomputing_sums(self):
        measure = CompositeMeasure(RESEM, WALK)
        measure.merge(0, 1)
        measure.merge(0, 2)
        # {0,1,2} vs {3}: resem sum = RESEM[2,3] only
        assert measure.resemblance.similarities(0)[3] == pytest.approx(0.1 / 3)
        assert measure.walk.similarities(0)[3] == pytest.approx(
            0.5 * (0.05 / 3 + 0.05 / 1)
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CompositeMeasure(RESEM, WALK[:4, :4])
        with pytest.raises(ValueError):
            CompositeMeasure(np.zeros((2, 3)), np.zeros((2, 3)))
        bad = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(ValueError):
            CompositeMeasure(bad, bad)


class TestEngine:
    def test_min_sim_zero_still_requires_positive_similarity(self):
        result = AgglomerativeClusterer(min_sim=0.0).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        clusters = {frozenset(c) for c in result.clusters}
        # (2,3) link is positive, so everything eventually chains together.
        assert frozenset({0, 1, 2, 3, 4}) in clusters

    def test_threshold_separates_groups(self):
        result = AgglomerativeClusterer(min_sim=0.2).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert clusters == {frozenset({0, 1, 2}), frozenset({3, 4})}

    def test_merge_similarities_recorded(self):
        result = AgglomerativeClusterer(min_sim=0.2).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        assert len(result.merge_similarities) == result.dendrogram.n_merges
        assert all(s >= 0.2 for s in result.merge_similarities)

    def test_first_merge_is_best_pair(self):
        result = AgglomerativeClusterer(min_sim=0.0).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        first = result.dendrogram.merges[0]
        assert {first.left, first.right} == {3, 4}  # sqrt(0.9*0.5) is max

    def test_labels_align_with_clusters(self):
        result = AgglomerativeClusterer(min_sim=0.2).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        labels = result.labels()
        assert len(labels) == 5
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_empty_input(self):
        result = AgglomerativeClusterer(min_sim=0.5).cluster(
            CompositeMeasure(np.zeros((0, 0)), np.zeros((0, 0)))
        )
        assert result.clusters == []

    def test_single_item(self):
        result = AgglomerativeClusterer(min_sim=0.5).cluster(
            CompositeMeasure(np.zeros((1, 1)), np.zeros((1, 1)))
        )
        assert result.clusters == [{0}]

    def test_negative_min_sim_rejected(self):
        with pytest.raises(ValueError):
            AgglomerativeClusterer(min_sim=-0.1)

    def test_high_threshold_keeps_singletons(self):
        result = AgglomerativeClusterer(min_sim=10.0).cluster(
            CompositeMeasure(RESEM, WALK)
        )
        assert result.n_clusters == 5


class TestDendrogram:
    def test_cut_replays_merges(self):
        d = Dendrogram(n_leaves=4)
        d.record(0, 1, 0.9)  # -> 4
        d.record(4, 2, 0.5)  # -> 5
        d.record(5, 3, 0.1)  # -> 6
        assert d.cut(0.05) == [{0, 1, 2, 3}]
        assert d.cut(0.4) == [{0, 1, 2}, {3}]
        assert d.cut(0.95) == [{0}, {1}, {2}, {3}]

    def test_cut_k(self):
        d = Dendrogram(n_leaves=4)
        d.record(0, 1, 0.9)
        d.record(4, 2, 0.5)
        d.record(5, 3, 0.1)
        assert d.cut_k(2) == [{0, 1, 2}, {3}]
        assert d.cut_k(1) == [{0, 1, 2, 3}]
        with pytest.raises(ValueError):
            d.cut_k(0)

    def test_cut_skips_orphaned_merges(self):
        d = Dendrogram(n_leaves=3)
        d.record(0, 1, 0.2)  # below a 0.5 cut -> children stay apart
        d.record(3, 2, 0.8)  # references cluster 3 which the cut never formed
        assert d.cut(0.5) == [{0}, {1}, {2}]
