"""Property-based tests for the similarity measures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paths import JoinPath
from repro.paths.profiles import NeighborProfile
from repro.reldb.joins import JoinStep
from repro.similarity import (
    directed_walk_probability,
    geometric_mean,
    set_resemblance,
    walk_probability,
)
from repro.similarity.combine import PathWeights

PATH = JoinPath([JoinStep("A", "x", "B", "y", "n1")])

probability = st.floats(
    min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def profiles(draw):
    """Random profiles honoring the propagation invariants: the forward
    values form a sub-distribution (sum <= 1) and backward values are
    probabilities in (0, 1]."""
    support = draw(st.sets(st.integers(min_value=0, max_value=12), max_size=8))
    forwards = {t: draw(probability) for t in support}
    total = sum(forwards.values())
    if total > 1.0:
        forwards = {t: v / total for t, v in forwards.items()}
    weights = {t: (forwards[t], draw(probability)) for t in support}
    return NeighborProfile(path=PATH, origin_row=0, weights=weights)


class TestResemblanceProperties:
    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_bounds(self, a, b):
        value = set_resemblance(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_symmetry(self, a, b):
        assert set_resemblance(a, b) == pytest.approx(set_resemblance(b, a))

    @given(profiles())
    @settings(max_examples=80, deadline=None)
    def test_identity(self, a):
        if a.is_empty():
            assert set_resemblance(a, a) == 0.0
        else:
            assert set_resemblance(a, a) == pytest.approx(1.0)

    @given(profiles(), profiles(), profiles())
    @settings(max_examples=100, deadline=None)
    def test_jaccard_distance_triangle_inequality(self, a, b, c):
        # 1 - weighted Jaccard is a metric on non-empty weighted sets.
        if a.is_empty() or b.is_empty() or c.is_empty():
            return
        d_ab = 1 - set_resemblance(a, b)
        d_bc = 1 - set_resemblance(b, c)
        d_ac = 1 - set_resemblance(a, c)
        assert d_ac <= d_ab + d_bc + 1e-9


class TestWalkProperties:
    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_bounds(self, a, b):
        assert 0.0 <= directed_walk_probability(a, b) <= 1.0 + 1e-9
        assert 0.0 <= walk_probability(a, b) <= 1.0 + 1e-9

    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_symmetric_measure(self, a, b):
        assert walk_probability(a, b) == pytest.approx(walk_probability(b, a))

    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_zero_iff_disjoint_support(self, a, b):
        value = walk_probability(a, b)
        if a.support & b.support:
            assert value > 0.0
        else:
            assert value == 0.0


class TestCombineProperties:
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_clamped_weights_nonnegative(self, raw):
        weights = PathWeights(raw)
        assert all(w >= 0.0 for w in weights.weights)

    @given(
        st.lists(st.floats(0.01, 5, allow_nan=False), min_size=1, max_size=8)
    )
    @settings(max_examples=100, deadline=None)
    def test_normalized_sums_to_one(self, raw):
        assert PathWeights(raw).normalized().total() == pytest.approx(1.0)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_geometric_mean_between_zero_and_max(self, a, b):
        value = geometric_mean(a, b)
        assert 0.0 <= value <= max(a, b) + 1e-12

