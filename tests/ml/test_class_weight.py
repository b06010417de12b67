import numpy as np
import pytest

from repro.ml import LinearSVM
from tests.oracle import optimality


def imbalanced_data(seed=0, n_pos=80, n_neg=12):
    rng = np.random.default_rng(seed)
    X_pos = rng.normal(loc=[1.0, 0.6], scale=0.9, size=(n_pos, 2))
    X_neg = rng.normal(loc=[-1.0, -0.6], scale=0.9, size=(n_neg, 2))
    X = np.vstack([X_pos, X_neg])
    y = np.array([1.0] * n_pos + [-1.0] * n_neg)
    return X, y


class TestClassWeight:
    def test_invalid_class_weight_rejected(self):
        with pytest.raises(ValueError):
            LinearSVM(class_weight="boosted")

    def test_balanced_costs(self):
        svm = LinearSVM(C=2.0, class_weight="balanced")
        y = np.array([1.0, 1.0, 1.0, -1.0])
        costs = svm._per_example_cost(y)
        # positives: C*4/(2*3), negatives: C*4/(2*1)
        assert costs[:3] == pytest.approx([2.0 * 4 / 6] * 3)
        assert costs[3] == pytest.approx(4.0)

    def test_dict_class_weight(self):
        svm = LinearSVM(C=1.0, class_weight={1: 0.5, -1: 3.0})
        y = np.array([1.0, -1.0])
        assert svm._per_example_cost(y) == pytest.approx([0.5, 3.0])

    def test_none_is_uniform(self):
        svm = LinearSVM(C=1.5)
        assert svm._per_example_cost(np.array([1.0, -1.0])) == pytest.approx(
            [1.5, 1.5]
        )

    def test_balanced_improves_minority_recall(self):
        X, y = imbalanced_data()
        plain = LinearSVM(C=1.0).fit(X, y)
        balanced = LinearSVM(C=1.0, class_weight="balanced").fit(X, y)

        minority = y == -1.0
        recall_plain = float(np.mean(plain.predict(X[minority]) == -1.0))
        recall_balanced = float(np.mean(balanced.predict(X[minority]) == -1.0))
        assert recall_balanced >= recall_plain

    def test_weighted_duality_gap_small(self):
        X, y = imbalanced_data(n_pos=30, n_neg=10)
        svm = LinearSVM(C=1.0, class_weight="balanced").fit(X, y)
        grad_norm, tol, gap = optimality(svm, X, y)
        assert grad_norm <= tol
        assert gap == pytest.approx(0.0, abs=1e-9)


class TestXYChart:
    def test_renders_grid(self):
        from repro.eval.reporting import format_xy_chart

        points = [(0.001, 0.2), (0.01, 0.8), (0.1, 0.5)]
        text = format_xy_chart(points, title="sweep", x_label="min-sim", y_label="f1")
        assert "sweep" in text
        assert text.count("*") == 3
        assert "min-sim" in text
        assert "f1 in [0.200, 0.800]" in text

    def test_empty_points(self):
        from repro.eval.reporting import format_xy_chart

        assert format_xy_chart([], title="t") == "t"

    def test_single_point(self):
        from repro.eval.reporting import format_xy_chart

        text = format_xy_chart([(1.0, 0.5)])
        assert text.count("*") == 1
