import numpy as np
import pytest
from scipy.optimize import minimize

from repro.errors import ConvergenceError, NotFittedError
from repro.ml import LinearSVM
from tests.oracle import optimality


def separable_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X_pos = rng.normal(loc=[2.0, 2.0], scale=0.4, size=(n // 2, 2))
    X_neg = rng.normal(loc=[-2.0, -2.0], scale=0.4, size=(n // 2, 2))
    X = np.vstack([X_pos, X_neg])
    y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
    return X, y


def noisy_data(seed=1, n=120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    w_true = np.array([1.5, -2.0, 0.5])
    y = np.sign(X @ w_true + 0.3 * rng.normal(size=n))
    y[y == 0] = 1.0
    return X, y


class TestLinearSVMFit:
    def test_separates_separable_data(self):
        X, y = separable_data()
        svm = LinearSVM(C=1.0).fit(X, y)
        assert svm.accuracy(X, y) == 1.0

    def test_noisy_data_high_accuracy(self):
        X, y = noisy_data()
        svm = LinearSVM(C=1.0).fit(X, y)
        assert svm.accuracy(X, y) > 0.9

    def test_decision_function_sign_matches_predict(self):
        X, y = noisy_data()
        svm = LinearSVM().fit(X, y)
        scores = svm.decision_function(X)
        assert np.all((scores >= 0) == (svm.predict(X) == 1.0))

    def test_deterministic(self):
        X, y = noisy_data()
        a = LinearSVM().fit(X, y)
        b = LinearSVM().fit(X, y)
        assert np.array_equal(a.weights_, b.weights_)
        assert a.bias_ == b.bias_
        assert a.n_epochs_ == b.n_epochs_


def scipy_optimum(X, y, C):
    """The squared-hinge primal minimized by BFGS, for reference."""
    Xa = np.hstack([X, np.ones((len(y), 1))])

    def objective(w):
        margins = np.maximum(0.0, 1.0 - y * (Xa @ w))
        return 0.5 * w @ w + C * np.sum(margins**2)

    def gradient(w):
        margins = np.maximum(0.0, 1.0 - y * (Xa @ w))
        return w - 2.0 * C * (margins * y) @ Xa

    ref = minimize(
        objective, np.zeros(Xa.shape[1]), jac=gradient, method="BFGS",
        options={"gtol": 1e-9, "maxiter": 10_000},
    )
    return float(ref.fun)


class TestLinearSVMAgainstScipy:
    def test_squared_hinge_matches_direct_primal_minimization(self):
        # The squared-hinge primal is smooth, so BFGS gives a reference
        # optimum; both solvers regularize the bias (feature augmentation).
        X, y = noisy_data(seed=2, n=80)
        C = 1.0
        svm = LinearSVM(C=C).fit(X, y)

        Xa = np.hstack([X, np.ones((len(y), 1))])

        def objective(w):
            margins = np.maximum(0.0, 1.0 - y * (Xa @ w))
            return 0.5 * w @ w + C * np.sum(margins**2)

        ref = minimize(objective, np.zeros(Xa.shape[1]), method="BFGS")
        ours = objective(np.append(svm.weights_, svm.bias_))
        assert ours <= ref.fun * (1 + 1e-6) + 1e-9

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6])
    def test_grid_fit_is_exact(self, C):
        # The C grid Distinct cross-validates over, on an imbalanced set.
        X, y = noisy_data(seed=2, n=80)
        keep = (y < 0) | (np.arange(len(y)) % 3 == 0)
        X, y = X[keep], y[keep]
        svm = LinearSVM(C=C).fit(X, y)
        reference = scipy_optimum(X, y, C)
        assert svm.primal_objective(X, y) <= reference * (1 + 1e-12)
        grad_norm, tol, gap = optimality(svm, X, y)
        assert grad_norm <= tol
        assert gap == pytest.approx(0.0, abs=1e-9 * svm.primal_objective(X, y))


class TestLinearSVMValidation:
    def test_rejects_bad_labels(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            LinearSVM().fit(X, [0, 1, 0, 1])

    def test_rejects_single_class(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError):
            LinearSVM().fit(X, [1, 1, 1, 1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros((4, 2)), [1, -1])
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros(4), [1, -1, 1, -1])

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            LinearSVM(C=0.0)
        with pytest.raises(ValueError):
            LinearSVM(C=-1.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LinearSVM().decision_function([[1.0, 2.0]])

    def test_convergence_error_when_budget_tiny(self, monkeypatch):
        X, y = noisy_data()
        monkeypatch.setattr("repro.ml.svm.MAX_NEWTON_STEPS", 1)
        svm = LinearSVM()
        with pytest.raises(ConvergenceError):
            svm.fit(X, y)
        assert svm.weights_ is None
