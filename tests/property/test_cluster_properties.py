"""Property-based tests for the clustering layer.

The central invariant (§4.2): the *incrementally* maintained cluster
similarities must equal a brute-force recomputation from the original pair
matrices after any sequence of merges. The dense-array merge loop must
reproduce the heap-loop oracle (:func:`tests.oracle.heap_merges`) merge for
merge, ties included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    AgglomerativeClusterer,
    AverageLinkMeasure,
    CompleteLinkMeasure,
    CompositeMeasure,
    SingleLinkMeasure,
)
from repro.cluster.composite import CollectiveWalkMeasure
from tests.oracle import DictCompositeMeasure, DictPairMeasure, heap_merges


@st.composite
def pair_matrix(draw, n_min=2, n_max=8):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    values = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = values[k]
            k += 1
    return matrix


def brute_force(matrix, members_a, members_b, kind):
    values = [matrix[i, j] for i in members_a for j in members_b]
    if kind == "single":
        return max(values)
    if kind == "complete":
        return min(values)
    return sum(values) / len(values)


@st.composite
def matrix_and_merges(draw):
    matrix = draw(pair_matrix(n_min=4))
    n = matrix.shape[0]
    merges = draw(st.integers(min_value=1, max_value=n - 2))
    return matrix, merges


def merge_random_slots(measures, n, n_merges, rng):
    """Fold random live slot pairs in every measure; the members per slot."""
    members = {i: {i} for i in range(n)}
    for _ in range(n_merges):
        i, j = rng.sample(sorted(members), 2)
        for measure in measures:
            measure.merge(i, j)
        members[i] |= members.pop(j)
    return members


class TestIncrementalEqualsBruteForce:
    @given(matrix_and_merges(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_linkage_measures(self, matrix_merges, rng):
        matrix, n_merges = matrix_merges
        n = matrix.shape[0]
        measures = {
            "single": SingleLinkMeasure(matrix),
            "complete": CompleteLinkMeasure(matrix),
            "average": AverageLinkMeasure(matrix),
        }
        members = merge_random_slots(measures.values(), n, n_merges, rng)

        active = sorted(members)
        for x_idx in range(len(active)):
            for y_idx in range(x_idx + 1, len(active)):
                x, y = active[x_idx], active[y_idx]
                for kind, measure in measures.items():
                    expected = brute_force(matrix, members[x], members[y], kind)
                    assert measure.similarities(x)[y] == pytest.approx(
                        expected, abs=1e-9
                    ), kind

    @given(matrix_and_merges(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_composite_measure(self, matrix_merges, rng):
        resem, n_merges = matrix_merges
        walk = resem * 0.25  # any symmetric non-negative matrix works
        measure = CompositeMeasure(resem, walk)
        members = merge_random_slots([measure], resem.shape[0], n_merges, rng)

        active = sorted(members)
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                x, y = active[i], active[j]
                ma, mb = members[x], members[y]
                r_sum = sum(resem[p, q] for p in ma for q in mb)
                w_sum = sum(walk[p, q] for p in ma for q in mb)
                avg_resem = r_sum / (len(ma) * len(mb))
                coll_walk = 0.5 * (w_sum / len(ma) + w_sum / len(mb))
                expected = (
                    math.sqrt(avg_resem * coll_walk)
                    if avg_resem > 0 and coll_walk > 0
                    else 0.0
                )
                assert measure.similarities(x)[y] == pytest.approx(
                    expected, abs=1e-9
                )


#: Few distinct values, so equal similarities (and zeros) are common.
TIE_VALUES = (0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0)


@st.composite
def tied_matrix(draw, n):
    values = draw(
        st.lists(
            st.sampled_from(TIE_VALUES),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    return symmetric_matrix(n, values)


def symmetric_matrix(n, values):
    """The symmetric n x n matrix with ``values`` above the diagonal."""
    matrix = np.zeros((n, n))
    matrix[np.triu_indices(n, k=1)] = values
    return matrix + matrix.T


#: (array measure, oracle measure) per kind, over (resemblance, walk).
MEASURE_PAIRS = {
    "composite": (
        CompositeMeasure,
        lambda r, w: DictCompositeMeasure(r, w),
    ),
    "walk": (
        lambda r, w: CollectiveWalkMeasure(w),
        lambda r, w: DictCompositeMeasure(r, w, walk_only=True),
    ),
    "average": (
        lambda r, w: AverageLinkMeasure(r),
        lambda r, w: DictPairMeasure(r, "average"),
    ),
    "single": (
        lambda r, w: SingleLinkMeasure(r),
        lambda r, w: DictPairMeasure(r, "single"),
    ),
    "complete": (
        lambda r, w: CompleteLinkMeasure(r),
        lambda r, w: DictPairMeasure(r, "complete"),
    ),
}


def merge_bytes(merges):
    return [
        (m.left, m.right, m.merged, np.float64(m.similarity).tobytes())
        for m in merges
    ]


class TestArrayLoopMatchesHeapOracle:
    """The dense-array engine merges exactly as the lazy heap loop did."""

    @pytest.mark.parametrize("kind", sorted(MEASURE_PAIRS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_merges_and_similarity_bytes(self, kind, data):
        n = data.draw(st.integers(min_value=1, max_value=10), label="n")
        resem = data.draw(tied_matrix(n), label="resem")
        walk = data.draw(tied_matrix(n), label="walk")
        make_array, make_oracle = MEASURE_PAIRS[kind]
        full = heap_merges(make_oracle(resem, walk), 0.0)
        # 0, or a merge similarity of the full tree: a threshold that cuts
        # it exactly at one of its own (possibly tied) values.
        cuts = [0.0] + [m.similarity for m in full]
        min_sim = data.draw(st.sampled_from(cuts), label="min_sim")

        expected = heap_merges(make_oracle(resem, walk), min_sim)
        result = AgglomerativeClusterer(min_sim).cluster(make_array(resem, walk))
        assert merge_bytes(result.dendrogram.merges) == merge_bytes(expected)
        assert np.asarray(result.merge_similarities).tobytes() == np.asarray(
            [m.similarity for m in expected], dtype=float
        ).tobytes()


def cut_thresholds(similarities):
    """0, every merge similarity, a point between each two adjacent
    distinct ones, and one above them all."""
    values = sorted(set(similarities))
    between = [(lo + hi) / 2 for lo, hi in zip(values, values[1:])]
    return [0.0, *values, *between, values[-1] * 2 + 1 if values else 1.0]


def reversals(merges):
    """Merges whose similarity exceeds the merge before them."""
    return sum(b.similarity > a.similarity for a, b in zip(merges, merges[1:]))


class TestCutEqualsRerun:
    """``Dendrogram.cut(s)`` of the ``min_sim = 0`` run is the run at ``s``
    (the proof is in :meth:`repro.cluster.Dendrogram.cut`), reversals
    included."""

    @pytest.mark.parametrize("kind", sorted(MEASURE_PAIRS))
    def test_cut_of_the_zero_run_equals_a_rerun(self, kind):
        make_array, _ = MEASURE_PAIRS[kind]
        seen_reversals = []

        @given(data=st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            n = data.draw(st.integers(min_value=1, max_value=10), label="n")
            values = st.one_of(
                tied_matrix(n),
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ).map(lambda v: symmetric_matrix(n, v)),
            )
            resem = data.draw(values, label="resem")
            walk = data.draw(values, label="walk")
            full = AgglomerativeClusterer(0.0).cluster(make_array(resem, walk))
            merges = full.dendrogram.merges
            seen_reversals.append(reversals(merges))
            for min_sim in cut_thresholds(full.merge_similarities):
                rerun = AgglomerativeClusterer(min_sim).cluster(make_array(resem, walk))
                assert full.dendrogram.cut(min_sim) == rerun.clusters
                kept = rerun.dendrogram.merges
                assert merge_bytes(kept) == merge_bytes(merges[: len(kept)])

        check()
        if kind in ("composite", "walk"):
            assert sum(seen_reversals) > 0


class TestEngineInvariants:
    @given(pair_matrix())
    @settings(max_examples=80, deadline=None)
    def test_clusters_partition_items(self, matrix):
        result = AgglomerativeClusterer(min_sim=0.3).cluster(
            AverageLinkMeasure(matrix)
        )
        items = sorted(i for cluster in result.clusters for i in cluster)
        assert items == list(range(matrix.shape[0]))

    @given(pair_matrix(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_all_merges_meet_threshold(self, matrix, min_sim):
        result = AgglomerativeClusterer(min_sim=min_sim).cluster(
            AverageLinkMeasure(matrix)
        )
        assert all(s >= min_sim for s in result.merge_similarities)

    @given(pair_matrix())
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, matrix):
        low = AgglomerativeClusterer(min_sim=0.1).cluster(AverageLinkMeasure(matrix))
        high = AgglomerativeClusterer(min_sim=0.6).cluster(AverageLinkMeasure(matrix))
        assert low.n_clusters <= high.n_clusters
