"""Property-based tests: k-medoids partitions, dendrogram cuts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.dendrogram import Dendrogram
from repro.cluster.kmedoids import kmedoids


@st.composite
def sim_matrix(draw, n_min=2, n_max=9):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    vals = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    m = np.ones((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = vals[k]
            k += 1
    return m


class TestKMedoidsProperties:
    @given(sim_matrix(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_with_k_clusters(self, matrix, data):
        n = matrix.shape[0]
        k = data.draw(st.integers(min_value=1, max_value=n))
        clusters = kmedoids(matrix, k=k)
        assert len(clusters) == k
        items = sorted(i for c in clusters for i in c)
        assert items == list(range(n))

    @given(sim_matrix())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, matrix):
        k = max(1, matrix.shape[0] // 2)
        assert kmedoids(matrix, k=k) == kmedoids(matrix, k=k)


@st.composite
def random_dendrogram(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    dendrogram = Dendrogram(n_leaves=n)
    active = list(range(n))
    rng_values = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n - 1, max_size=n - 1)
    )
    for sim in rng_values:
        if len(active) < 2:
            break
        left, right = active[0], active[1]
        merged = dendrogram.record(left, right, sim)
        active = active[2:] + [merged]
    return dendrogram


class TestDendrogramProperties:
    @given(random_dendrogram(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_cut_is_partition(self, dendrogram, threshold):
        clusters = dendrogram.cut(threshold)
        items = sorted(i for c in clusters for i in c)
        assert items == list(range(dendrogram.n_leaves))

    @given(random_dendrogram())
    @settings(max_examples=60, deadline=None)
    def test_cut_monotone_in_threshold(self, dendrogram):
        low = dendrogram.cut(0.0)
        high = dendrogram.cut(1.1)
        assert len(low) <= len(high)
        assert len(high) == dendrogram.n_leaves
