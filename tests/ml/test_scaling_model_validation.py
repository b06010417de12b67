import numpy as np
import pytest

from repro.core.distinct import Distinct
from repro.errors import NotFittedError
from repro.ml import (
    LinearSVM,
    PathWeightModel,
    classification_report,
    cross_validate,
)
from repro.ml.validation import kfold_indices
from repro.paths import JoinPath
from repro.reldb.joins import JoinStep

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PATHS = [JoinPath([PUB_PAP]), JoinPath([PUB_PAP, PUB_PAP.reverse()])]


class TestPathWeightModel:
    def make_model(self):
        return PathWeightModel(
            measure="resemblance",
            signatures=[p.signature() for p in PATHS],
            weights=[0.8, -0.1],
            bias=0.2,
            metadata={"n_train": 10},
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PathWeightModel("walk", ["a", "b"], [1.0])

    def test_combiner_clamps_negative(self):
        model = self.make_model()
        distinct = Distinct()
        distinct.resem_model_ = distinct.walk_model_ = model
        resem, walk = distinct.combiners(PATHS)
        assert resem.tolist() == walk.tolist() == [1.0, 0.0]
        assert model.weights == [0.8, -0.1]  # the signed weights stay

    def test_decision_value(self):
        model = self.make_model()
        assert model.decision_value([1.0, 1.0]) == pytest.approx(0.9)

    def test_align_to_reorders_and_fills_zero(self):
        model = self.make_model()
        reordered = model.align_to(list(reversed(PATHS)))
        assert reordered.weights == [-0.1, 0.8]
        extra = JoinPath([JoinStep("Publish", "author_key", "Authors", "author_key", "n1")])
        extended = model.align_to(PATHS + [extra])
        assert extended.weights == [0.8, -0.1, 0.0]

    def test_top_paths(self):
        model = self.make_model()
        top = model.top_paths(1)
        assert top == [(PATHS[0].signature(), 0.8)]

    def test_round_trip_json(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        model.save(path)
        loaded = PathWeightModel.load(path)
        assert loaded.to_dict() == model.to_dict()


class TestValidation:
    def test_classification_report_values(self):
        y_true = [1, 1, -1, -1, 1]
        y_pred = [1, -1, -1, 1, 1]
        report = classification_report(y_true, y_pred)
        assert report.accuracy == pytest.approx(0.6)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)
        assert report.n == 5

    def test_classification_report_degenerate(self):
        report = classification_report([-1, -1], [-1, -1])
        assert report.accuracy == 1.0
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_report_shape_mismatch(self):
        with pytest.raises(ValueError):
            classification_report([1], [1, -1])

    def test_kfold_partitions_everything_once(self):
        folds = kfold_indices(23, 5, seed=1)
        all_test = sorted(idx for _, test in folds for idx in test)
        assert all_test == list(range(23))
        for train, test in folds:
            assert not set(train) & set(test)
            assert len(train) + len(test) == 23

    def test_kfold_validation_args(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)

    def test_cross_validate_on_separable_problem(self):
        rng = np.random.default_rng(0)
        X = np.vstack(
            [rng.normal(2, 0.3, (30, 2)), rng.normal(-2, 0.3, (30, 2))]
        )
        y = np.array([1.0] * 30 + [-1.0] * 30)
        result = cross_validate(lambda: LinearSVM(C=1.0), X, y, k=5)
        assert result["accuracy_mean"] > 0.95
        assert result["folds"] == 5
