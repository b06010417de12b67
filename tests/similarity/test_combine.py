import math

import pytest

from repro.similarity import (
    PathWeights,
    combine,
    geometric_mean,
    uniform_weights,
)


class TestPathWeights:
    def test_negative_weights_clamped_by_default(self):
        weights = PathWeights([0.5, -0.2, 0.0])
        assert weights.weights == [0.5, 0.0, 0.0]

    def test_clamping_can_be_disabled(self):
        weights = PathWeights([0.5, -0.2], clamp_negative=False)
        assert weights.weights == [0.5, -0.2]

    def test_apply_is_dot_product(self):
        weights = PathWeights([2.0, 3.0])
        assert weights.apply([1.0, 1.0]) == pytest.approx(5.0)
        assert combine(weights, [0.5, 0.0]) == pytest.approx(1.0)

    def test_apply_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PathWeights([1.0]).apply([1.0, 2.0])

    def test_normalized_sums_to_one(self):
        weights = PathWeights([2.0, 6.0]).normalized()
        assert weights.total() == pytest.approx(1.0)
        assert weights.weights == pytest.approx([0.25, 0.75])

    def test_normalized_all_zero_is_identity(self):
        weights = PathWeights([0.0, 0.0]).normalized()
        assert weights.weights == [0.0, 0.0]

    def test_uniform_weights(self):
        weights = uniform_weights(4)
        assert weights.total() == pytest.approx(1.0)
        assert len(weights) == 4
        with pytest.raises(ValueError):
            uniform_weights(0)


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean(0.25, 1.0) == pytest.approx(0.5)

    def test_zero_if_either_zero(self):
        assert geometric_mean(0.0, 0.9) == 0.0
        assert geometric_mean(0.9, 0.0) == 0.0

    def test_negative_treated_as_zero(self):
        assert geometric_mean(-0.1, 0.5) == 0.0

    def test_bounded_by_max_ingredient(self):
        assert geometric_mean(0.4, 0.9) <= 0.9

    def test_symmetry(self):
        assert geometric_mean(0.3, 0.7) == geometric_mean(0.7, 0.3)
