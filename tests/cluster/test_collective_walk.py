"""CollectiveWalkMeasure: the walk-only Fig-4 variant's cluster measure."""

import numpy as np
import pytest

from repro.cluster.composite import CollectiveWalkMeasure, CompositeMeasure


def matrix(entries, n):
    m = np.zeros((n, n))
    for i, j, v in entries:
        m[i, j] = m[j, i] = v
    return m


WALK = matrix([(0, 1, 0.4), (1, 2, 0.2), (3, 4, 0.5)], 5)


class TestCollectiveWalkMeasure:
    def test_singleton_similarity_is_pair_walk(self):
        measure = CollectiveWalkMeasure(WALK)
        assert measure.similarities(0)[1] == pytest.approx(0.4)
        assert measure.similarities(0)[3] == 0.0

    def test_resemblance_term_ignored(self):
        measure = CollectiveWalkMeasure(WALK)
        # With zero resemblance the composite is zero, but the walk-only
        # similarity is still positive.
        assert CompositeMeasure(np.zeros_like(WALK), WALK).similarities(0)[1] == 0.0
        assert measure.similarities(0)[1] > 0.0

    def test_collective_aggregation_after_merge(self):
        measure = CollectiveWalkMeasure(WALK)
        measure.merge(0, 1)
        # {0,1} vs {2}: W = 0.2 ; (W/2 + W/1)/2
        assert measure.similarities(0)[2] == pytest.approx(0.5 * (0.2 / 2 + 0.2))

    def test_accumulates_many_weak_links(self):
        # Two groups with many weak cross links: collective walk grows with
        # the number of linkages while average-link would dilute them.
        n = 8
        weak = np.full((n, n), 0.01)
        np.fill_diagonal(weak, 0.0)
        measure = CollectiveWalkMeasure(weak)
        measure.merge(0, 1)
        measure.merge(0, 2)  # {0,1,2}
        measure.merge(3, 4)
        measure.merge(3, 5)  # {3,4,5}
        collective = measure.similarities(0)[3]
        # 9 cross pairs x 0.01 = 0.09 total; (0.09/3 + 0.09/3)/2 = 0.03 —
        # three times the individual pair value.
        assert collective == pytest.approx(0.03)
        assert collective > 0.01

    def test_works_with_engine(self):
        from repro.cluster.agglomerative import AgglomerativeClusterer

        result = AgglomerativeClusterer(min_sim=0.1).cluster(
            CollectiveWalkMeasure(WALK)
        )
        clusters = {frozenset(c) for c in result.clusters}
        assert frozenset({3, 4}) in clusters
        assert frozenset({0, 1, 2}) in clusters
