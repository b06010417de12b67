"""Property-based tests for metrics and the SVM solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.metrics import bcubed_scores, pairwise_scores
from repro.ml.svm import LinearSVM
from tests.oracle import optimality


@st.composite
def clustering_pair(draw):
    """(predicted, gold) clusterings over the same items."""
    n = draw(st.integers(min_value=1, max_value=12))
    pred_labels = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
    )
    gold_labels = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
    )

    def to_clusters(labels):
        clusters: dict[int, set[int]] = {}
        for item, label in enumerate(labels):
            clusters.setdefault(label, set()).add(item)
        return list(clusters.values())

    return to_clusters(pred_labels), to_clusters(gold_labels)


def brute_force_pairwise(pred, gold):
    def label_of(clusters):
        out = {}
        for k, cluster in enumerate(clusters):
            for item in cluster:
                out[item] = k
        return out

    pl, gl = label_of(pred), label_of(gold)
    items = sorted(pl)
    tp = fp = fn = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            same_pred = pl[a] == pl[b]
            same_gold = gl[a] == gl[b]
            tp += same_pred and same_gold
            fp += same_pred and not same_gold
            fn += same_gold and not same_pred
    return tp, fp, fn


class TestPairwiseScoreProperties:
    @given(clustering_pair())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_brute_force(self, pair):
        pred, gold = pair
        scores = pairwise_scores(pred, gold)
        tp, fp, fn = brute_force_pairwise(pred, gold)
        assert (scores.tp, scores.fp, scores.fn) == (tp, fp, fn)

    @given(clustering_pair())
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, pair):
        pred, gold = pair
        for scores in (pairwise_scores(pred, gold), bcubed_scores(pred, gold)):
            assert 0.0 <= scores.precision <= 1.0
            assert 0.0 <= scores.recall <= 1.0
            assert 0.0 <= scores.f1 <= 1.0

    @given(clustering_pair())
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_perfect(self, pair):
        pred, _ = pair
        scores = pairwise_scores(pred, pred)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.accuracy == 1.0

    @given(clustering_pair())
    @settings(max_examples=100, deadline=None)
    def test_precision_recall_duality(self, pair):
        pred, gold = pair
        forward = pairwise_scores(pred, gold)
        backward = pairwise_scores(gold, pred)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)


def labeled_set(n: int, d: int, seed: int):
    """``n`` points in ``d`` dimensions labelled by a random hyperplane,
    both classes present."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = np.sign(X @ w + 1e-9)
    y[y == 0] = 1.0
    if len(set(y.tolist())) < 2:
        y[0] = -y[0]
    return X, y


@st.composite
def labeled_data(draw):
    n = draw(st.integers(min_value=6, max_value=30))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return labeled_set(n, d, seed)


class TestSVMProperties:
    @given(
        labeled_data(),
        st.sampled_from([0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_weak_duality(self, data, C):
        # At the exact optimum weak duality is tight: the gradient vanishes
        # to the solver's tolerance and the KKT dual point closes the gap.
        X, y = data
        svm = LinearSVM(C=C).fit(X, y)
        grad_norm, tol, gap = optimality(svm, X, y)
        assert grad_norm <= tol
        scale = max(1.0, svm.primal_objective(X, y))
        assert gap == pytest.approx(0.0, abs=1e-9 * scale)

    @pytest.mark.parametrize("seed", [395, 2308, 3008, 3147])
    def test_weak_duality_on_sets_the_gradient_test_alone_left_open(self, seed):
        # With C = 1e6 these 10 x 4 sets pass the gradient test with KKT
        # gaps of 3e-8 to 2e-6, above the bound, unless the fit finishes on
        # its active set's exact minimizer.
        X, y = labeled_set(10, 4, seed)
        svm = LinearSVM(C=1e6).fit(X, y)
        grad_norm, tol, gap = optimality(svm, X, y)
        assert grad_norm <= tol
        scale = max(1.0, svm.primal_objective(X, y))
        assert gap == pytest.approx(0.0, abs=1e-9 * scale)

    @given(labeled_data())
    @settings(max_examples=20, deadline=None)
    def test_predictions_deterministic(self, data):
        X, y = data
        a = LinearSVM(C=1.0).fit(X, y)
        b = LinearSVM(C=1.0).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
