import math

import numpy as np
import pytest

from repro.core.distinct import Distinct
from repro.ml import PathWeightModel
from repro.paths import JoinPath
from repro.reldb.joins import JoinStep
from repro.similarity import geometric_mean

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
CHAIN = [PUB_PAP, PUB_PAP.reverse()] * 8


def combiner(raw: list[float]) -> np.ndarray:
    """The Eq-1 weights :meth:`Distinct.combiners` makes of a model whose
    signed weights are ``raw``, one distinct path each."""
    paths = [JoinPath(CHAIN[: k + 1]) for k in range(len(raw))]
    distinct = Distinct()
    distinct.resem_model_ = distinct.walk_model_ = PathWeightModel(
        "resemblance", [p.signature() for p in paths], list(raw)
    )
    resem, walk = distinct.combiners(paths)
    assert resem.dtype == walk.dtype == np.float64
    assert resem.tobytes() == walk.tobytes()
    return resem


class TestPathWeights:
    def test_negative_weights_clamped_by_default(self):
        assert combiner([0.5, -0.2, 0.0]).tolist() == [1.0, 0.0, 0.0]

    def test_normalized_sums_to_one(self):
        weights = combiner([2.0, 6.0])
        assert weights.sum() == pytest.approx(1.0)
        assert weights.tolist() == [0.25, 0.75]

    def test_normalized_all_zero_is_identity(self):
        assert combiner([0.0, 0.0]).tolist() == [0.0, 0.0]
        assert combiner([-1.0, 0.0]).tolist() == [0.0, 0.0]

    def test_divides_by_the_sum_in_list_order(self):
        raw = [0.1, -3.0, 0.2, 0.7, 1e-17]
        total = 0.0
        for w in raw:
            total += max(0.0, w)
        assert combiner(raw).tolist() == [max(0.0, w) / total for w in raw]


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
