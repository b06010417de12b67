import numpy as np
import pytest

from repro.cluster import (
    AgglomerativeClusterer,
    AverageLinkMeasure,
    CompleteLinkMeasure,
    SingleLinkMeasure,
)


def matrix(entries, n):
    m = np.zeros((n, n))
    for i, j, v in entries:
        m[i, j] = m[j, i] = v
    return m


# Two tight groups {0,1,2} and {3,4}, with one weak cross link (1,3).
TWO_GROUPS = matrix(
    [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.85), (3, 4, 0.9), (1, 3, 0.2)], 5
)


class TestMeasureValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SingleLinkMeasure(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError):
            AverageLinkMeasure(m)


class TestSingleLink:
    def test_initial_similarity_is_pair_value(self):
        measure = SingleLinkMeasure(TWO_GROUPS)
        assert measure.similarities(0)[1] == pytest.approx(0.9)
        assert measure.similarities(0)[4] == 0.0

    def test_merge_takes_max(self):
        measure = SingleLinkMeasure(TWO_GROUPS)
        measure.merge(0, 2)
        assert measure.similarities(0)[1] == pytest.approx(0.9)

    def test_chains_through_weak_link(self):
        # Single-link merges everything reachable above the threshold.
        result = AgglomerativeClusterer(min_sim=0.1).cluster(
            SingleLinkMeasure(TWO_GROUPS)
        )
        assert result.n_clusters == 1


class TestCompleteLink:
    def test_merge_takes_min(self):
        measure = CompleteLinkMeasure(TWO_GROUPS)
        measure.merge(0, 1)
        assert measure.similarities(0)[2] == pytest.approx(0.8)

    def test_one_sided_linkage_becomes_zero(self):
        measure = CompleteLinkMeasure(TWO_GROUPS)
        measure.merge(1, 3)  # cluster {1,3}: 0 has no link to 3
        assert measure.similarities(1)[0] == 0.0

    def test_refuses_weakly_linked_partitions(self):
        result = AgglomerativeClusterer(min_sim=0.1).cluster(
            CompleteLinkMeasure(TWO_GROUPS)
        )
        # (1,3) link is killed by the zero pairs, groups stay apart.
        clusters = {frozenset(c) for c in result.clusters}
        assert frozenset({3, 4}) in clusters

    def test_initial_similarity(self):
        measure = CompleteLinkMeasure(TWO_GROUPS)
        assert measure.similarities(3)[4] == pytest.approx(0.9)


class TestAverageLink:
    def test_merge_averages(self):
        measure = AverageLinkMeasure(TWO_GROUPS)
        measure.merge(0, 2)  # cluster {0,2} vs {1}: (0.9 + 0.85) / 2
        assert measure.similarities(0)[1] == pytest.approx(0.875)

    def test_weak_link_diluted(self):
        measure = AverageLinkMeasure(TWO_GROUPS)
        measure.merge(0, 1)
        measure.merge(0, 2)  # {0,1,2}
        # vs {3}: only (1,3)=0.2 -> 0.2/3
        assert measure.similarities(0)[3] == pytest.approx(0.2 / 3)

    def test_clusters_two_groups_at_moderate_threshold(self):
        result = AgglomerativeClusterer(min_sim=0.3).cluster(
            AverageLinkMeasure(TWO_GROUPS)
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert clusters == {frozenset({0, 1, 2}), frozenset({3, 4})}

    def test_sizes_tracked(self):
        measure = AverageLinkMeasure(TWO_GROUPS)
        measure.merge(0, 1)
        assert measure.size(0) == 2
        assert measure.size(3) == 1
