"""Auto C selection (cross-validated) in the fit pipeline."""

import numpy as np
import pytest

from repro import Distinct, DistinctConfig


def make_unfit(config=None):
    distinct = Distinct(config or DistinctConfig())
    distinct.paths_ = []
    return distinct


class TestSelectCost:
    def make_data(self, seed=0, n=60, scale=1.0):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [rng.normal(0.6 * scale, 0.4 * scale, (n // 2, 3)),
             rng.normal(-0.6 * scale, 0.4 * scale, (n // 2, 3))]
        )
        y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
        return X, y

    def test_selection_returns_grid_member(self):
        config = DistinctConfig(svm_C_grid=(0.1, 10.0), svm_cv_folds=3)
        distinct = make_unfit(config)
        X, y = self.make_data()
        assert distinct._select_cost(X, y) in (0.1, 10.0)

    def test_tiny_scale_features_prefer_large_C(self):
        # Features scaled down by 1e-3 need a much larger C to reach the
        # margin — the reason auto-selection exists (walk features are tiny).
        config = DistinctConfig(svm_C_grid=(0.1, 1000.0), svm_cv_folds=3)
        distinct = make_unfit(config)
        X, y = self.make_data(scale=1e-3)
        assert distinct._select_cost(X, y) == 1000.0

    def test_smallest_C_within_one_standard_error_of_the_best(self, monkeypatch):
        # Scripted fold results: C=100 has the best mean, and C=10 sits
        # within one standard error (0.06 / sqrt(3) ~ 0.035) of it.
        scripted = {
            0.1: (0.70, 0.02), 1.0: (0.80, 0.02), 10.0: (0.87, 0.05),
            100.0: (0.90, 0.06), 1000.0: (0.89, 0.01),
        }

        def fake_cross_validate(factory, X, y, k, seed):
            mean, std = scripted[factory().C]
            return {"accuracy_mean": mean, "accuracy_std": std}

        monkeypatch.setattr(
            "repro.core.distinct.cross_validate", fake_cross_validate
        )
        config = DistinctConfig(svm_C_grid=tuple(scripted), svm_cv_folds=3)
        X, y = self.make_data()
        assert make_unfit(config)._select_cost(X, y) == 10.0

    def test_fixed_C_skips_selection(self, small_db):
        db, _ = small_db
        config = DistinctConfig(n_positive=100, n_negative=100, svm_C=10.0)
        distinct = Distinct(config).fit(db)
        assert distinct.resem_model_.metadata["C"] == 10.0

    def test_selection_deterministic(self):
        config = DistinctConfig(svm_C_grid=(0.1, 1.0, 10.0), svm_cv_folds=3)
        X, y = self.make_data(seed=5)
        a = make_unfit(config)._select_cost(X, y)
        b = make_unfit(config)._select_cost(X, y)
        assert a == b
