"""A linear-kernel SVM trained by dual coordinate descent.

Solves the L2-regularized hinge-loss problem

    min_w  0.5 ||w||^2 + C * sum_i loss(y_i, w . x_i)

with ``loss`` either the L1 hinge ``max(0, 1 - y f)`` or the squared (L2)
hinge, via the dual coordinate descent method of Hsieh et al., *A Dual
Coordinate Descent Method for Large-scale Linear SVM* (ICML 2008) — the
algorithm behind LIBLINEAR. The bias term is handled by augmenting every
example with a constant feature (regularized bias; standard for this
solver and harmless at these scales).

The paper (§3) trains an SVM with linear kernel on 1000 positive + 1000
negative automatically labeled pairs; this solver sweeps such a set in
shuffled epochs of coordinate updates until the projected gradient falls
below ``tol`` or the ``max_epochs`` budget runs out. The learned weight
vector *is* the per-join-path weighting ``w(P)`` of Eq 1.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import ConvergenceError, NotFittedError
from repro.obs import counter, span
from repro.resilience.retry import retry

_FITS = counter("svm.fits")
_ITERATIONS = counter("svm.iterations")
_RETRIES = counter("svm.convergence_retries")


class LinearSVM:
    """Binary linear SVM; labels must be -1 / +1.

    Parameters
    ----------
    C:
        Soft-margin cost. Larger C fits the training set more tightly.
    loss:
        ``"hinge"`` (L1) or ``"squared_hinge"`` (L2).
    tol:
        Stop when the maximal projected gradient over an epoch falls below
        this.
    max_epochs:
        Epoch budget; exceeding it raises :class:`ConvergenceError` unless
        ``strict=False`` (then the best-so-far model is kept).
    retries:
        Extra fit attempts after a non-converged strict fit. Each retry
        doubles the epoch budget and shifts the shuffle seed (via
        :func:`repro.resilience.retry`), so ``ConvergenceError`` becomes a
        bounded, reported condition: it is raised only once
        ``1 + retries`` attempts have failed. ``0`` (the default)
        preserves the single-attempt behaviour exactly.
    fit_bias:
        Learn an intercept via feature augmentation.
    seed:
        Seed for the per-epoch coordinate shuffle (deterministic training).
    """

    def __init__(
        self,
        C: float = 1.0,
        loss: str = "hinge",
        tol: float = 1e-6,
        max_epochs: int = 2000,
        fit_bias: bool = True,
        seed: int = 0,
        strict: bool = True,
        class_weight: str | dict | None = None,
        retries: int = 0,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if loss not in ("hinge", "squared_hinge"):
            raise ValueError(f"unknown loss {loss!r}")
        if class_weight not in (None, "balanced") and not isinstance(
            class_weight, dict
        ):
            raise ValueError('class_weight must be None, "balanced", or a dict')
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.C = C
        self.loss = loss
        self.tol = tol
        self.max_epochs = max_epochs
        self.fit_bias = fit_bias
        self.seed = seed
        self.strict = strict
        self.class_weight = class_weight
        self.retries = retries
        self.n_fit_attempts_: int = 0
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.n_epochs_: int | None = None
        self.dual_coef_: np.ndarray | None = None

    def _per_example_cost(self, y: np.ndarray) -> np.ndarray:
        """Per-example cost C_i (class weighting scales the box constraint).

        ``"balanced"`` mirrors the usual convention: each class's cost is
        inversely proportional to its frequency, so an asymmetric training
        set (e.g. 1000 positives vs 200 negatives) does not bias the margin.
        """
        costs = np.full(len(y), self.C)
        if self.class_weight is None:
            return costs
        if self.class_weight == "balanced":
            n = len(y)
            for label in (-1.0, 1.0):
                mask = y == label
                count = int(mask.sum())
                if count:
                    costs[mask] = self.C * n / (2.0 * count)
            return costs
        for label, factor in self.class_weight.items():
            costs[y == float(label)] = self.C * factor
        return costs

    # -- training ------------------------------------------------------------

    def fit(self, X, y) -> "LinearSVM":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-dimensional and match X")
        if not set(np.unique(y)) <= {-1.0, 1.0}:
            raise ValueError("labels must be -1 or +1")
        if len(set(np.unique(y))) < 2:
            raise ValueError("training set needs both classes")

        with span("svm.fit", n=int(X.shape[0]), d=int(X.shape[1]), C=self.C) as sp:

            def attempt(k: int) -> None:
                # Widen the epoch budget and reshuffle on every retry so a
                # repeat attempt is not a verbatim replay of the failed one.
                if k:
                    _RETRIES.inc()
                self.n_fit_attempts_ = k + 1
                self._fit_dual(
                    X, y,
                    max_epochs=self.max_epochs * 2**k,
                    seed=self.seed + k,
                )

            retry(
                attempt,
                budget=self.retries + 1,
                retry_on=ConvergenceError,
                seed=self.seed,
            )
            sp.annotate(epochs=self.n_epochs_, attempts=self.n_fit_attempts_)
        _FITS.inc()
        _ITERATIONS.inc(self.n_epochs_ or 0)
        return self

    def _fit_dual(
        self,
        X: np.ndarray,
        y: np.ndarray,
        max_epochs: int | None = None,
        seed: int | None = None,
    ) -> None:
        max_epochs = self.max_epochs if max_epochs is None else max_epochs
        seed = self.seed if seed is None else seed
        n, d = X.shape
        if self.fit_bias:
            X = np.hstack([X, np.ones((n, 1))])

        costs = self._per_example_cost(y)
        if self.loss == "hinge":
            upper = costs
            diag = np.zeros(n)
        else:  # squared hinge: U = inf, extra per-example diagonal term
            upper = np.full(n, np.inf)
            diag = 1.0 / (2.0 * costs)

        q_diag = np.einsum("ij,ij->i", X, X) + diag
        alpha = np.zeros(n)
        w = np.zeros(X.shape[1])
        rng = random.Random(seed)
        order = list(range(n))

        epoch = 0
        converged = False
        for epoch in range(1, max_epochs + 1):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order:
                if q_diag[i] <= 0.0:
                    continue
                grad = y[i] * (X[i] @ w) - 1.0 + diag[i] * alpha[i]
                # Projected gradient for the box constraint 0 <= alpha_i <= U_i.
                if alpha[i] <= 0.0:
                    pg = min(grad, 0.0)
                elif alpha[i] >= upper[i]:
                    pg = max(grad, 0.0)
                else:
                    pg = grad
                if pg == 0.0:
                    continue
                max_violation = max(max_violation, abs(pg))
                new_alpha = min(max(alpha[i] - grad / q_diag[i], 0.0), upper[i])
                delta = new_alpha - alpha[i]
                if delta != 0.0:
                    w += delta * y[i] * X[i]
                    alpha[i] = new_alpha
            if max_violation < self.tol:
                converged = True
                break

        if not converged and self.strict:
            raise ConvergenceError(
                f"dual coordinate descent did not converge in "
                f"{max_epochs} epochs (last violation above {self.tol})"
            )

        if self.fit_bias:
            self.weights_ = w[:-1].copy()
            self.bias_ = float(w[-1])
        else:
            self.weights_ = w.copy()
            self.bias_ = 0.0
        self.n_epochs_ = epoch
        self.dual_coef_ = alpha

    # -- inference ----------------------------------------------------------

    def decision_function(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("fit the SVM before calling decision_function")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.weights_ + self.bias_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, 1.0, -1.0)

    def accuracy(self, X, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.mean(self.predict(X) == y))

    # -- diagnostics ----------------------------------------------------------

    def primal_objective(self, X, y) -> float:
        """0.5||w||^2 + C * sum(loss) — handy for optimality tests."""
        if self.weights_ is None:
            raise NotFittedError("fit the SVM first")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        margins = 1.0 - y * self.decision_function(X)
        hinge = np.maximum(margins, 0.0)
        costs = self._per_example_cost(y)
        if self.loss == "squared_hinge":
            loss_sum = float(np.sum(costs * hinge**2))
        else:
            loss_sum = float(np.sum(costs * hinge))
        reg = 0.5 * float(self.weights_ @ self.weights_ + self.bias_**2)
        return reg + loss_sum
