"""A linear SVM trained exactly by a primal Newton method.

Solves the L2-regularized squared-hinge problem

    min_w  0.5 ||w||^2 + sum_i C_i * max(0, 1 - y_i w . x_i)^2

by the generalized Newton method of Keerthi & DeCoste, *A Modified Finite
Newton Method for Fast Solution of Large Scale Linear SVMs* (JMLR 2005) —
the primal route LIBLINEAR's TRON takes for this loss. The bias term is
handled by augmenting every example with a constant feature (regularized
bias). The objective is piecewise quadratic, so each step is one small
linear solve over the active set and a fit takes a handful of steps.

The paper (§3) trains an SVM with linear kernel on 1000 positive + 1000
negative automatically labeled pairs; this solver iterates until the
gradient norm falls below :data:`GRADIENT_TOL` relative to its starting
value, and a fit that exhausts :data:`MAX_NEWTON_STEPS` raises
:class:`~repro.errors.ConvergenceError` rather than keep a partial
iterate. The learned weight vector *is* the per-join-path weighting
``w(P)`` of Eq 1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, NotFittedError
from repro.obs import counter, span

_FITS = counter("svm.fits")
_ITERATIONS = counter("svm.iterations")

#: Converged once ``||grad|| <= GRADIENT_TOL * max(1, ||grad at w=0||)``.
GRADIENT_TOL = 1e-10
#: Newton steps a fit may take before it raises ``ConvergenceError``.
MAX_NEWTON_STEPS = 50
# Armijo sufficient-decrease fraction, and the most step halvings per line
# search before the step is declared stuck.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


class LinearSVM:
    """Binary linear SVM; labels must be -1 / +1.

    Parameters
    ----------
    C:
        Soft-margin cost. Larger C fits the training set more tightly.
    class_weight:
        ``None``, ``"balanced"`` or a ``{label: factor}`` dict scaling the
        per-example cost.
    """

    # Read-only aliases of the step cap and of the steps the last fit took
    # (``n_epochs_``), under the names the pipebench SVM wrapper reads;
    # ROADMAP's "[benchmark]" item renames both.
    max_epochs: int = MAX_NEWTON_STEPS

    def __init__(
        self, C: float = 1.0, class_weight: str | dict | None = None
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if class_weight not in (None, "balanced") and not isinstance(
            class_weight, dict
        ):
            raise ValueError('class_weight must be None, "balanced", or a dict')
        self.C = C
        self.class_weight = class_weight
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.n_epochs_: int | None = None

    def _per_example_cost(self, y: np.ndarray) -> np.ndarray:
        """Per-example cost C_i (class weighting scales each example's loss).

        ``"balanced"`` mirrors the usual convention: each class's cost is
        inversely proportional to its frequency, so an asymmetric training
        set (e.g. 1000 positives vs 200 negatives) does not bias the margin.
        """
        costs = np.full(len(y), float(self.C))
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
            yX = y[:, None] * np.hstack([X, np.ones((len(y), 1))])
            w = self._fit_newton(yX, self._per_example_cost(y))
            sp.annotate(steps=self.n_epochs_)
        self.weights_ = w[:-1]
        self.bias_ = float(w[-1])
        _FITS.inc()
        _ITERATIONS.inc(self.n_epochs_ or 0)
        return self

    def _fit_newton(self, yX: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Minimize the objective over ``w``; row i of ``yX`` is ``y_i x̃_i``."""
        w = np.zeros(yX.shape[1])
        # At w = 0 every margin is 1, so the starting gradient is -2 X^T(c y).
        tol = GRADIENT_TOL * max(1.0, float(np.linalg.norm(2.0 * costs @ yX)))
        for step in range(MAX_NEWTON_STEPS + 1):
            margins = 1.0 - yX @ w
            active = margins > 0.0
            yX_active = yX[active]
            grad = w - 2.0 * yX_active.T @ (costs[active] * margins[active])
            norm = float(np.linalg.norm(grad))
            if norm <= tol:
                self.n_epochs_ = step
                return w
            if step == MAX_NEWTON_STEPS:
                break
            hessian = np.eye(len(w)) + 2.0 * yX_active.T @ (
                costs[active, None] * yX_active
            )
            direction = np.linalg.solve(hessian, -grad)
            w = w + self._armijo_step(w, direction, grad, margins, yX, costs)
        raise ConvergenceError(
            f"Newton solver did not converge in {MAX_NEWTON_STEPS} steps "
            f"(gradient norm {norm:.3g} above {tol:.3g})"
        )

    @staticmethod
    def _armijo_step(w, direction, grad, margins, yX, costs) -> np.ndarray:
        """Backtrack along ``direction`` until the objective falls enough.

        The change in objective is summed term by term rather than taken as
        a difference of two objective values, so it stays exact to rounding
        even when it is far below the objective's own magnitude.
        """
        slope = float(grad @ direction)
        shift = yX @ direction
        old_hinge = np.maximum(margins, 0.0)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = margins - t * shift
            new_hinge = np.maximum(trial, 0.0)
            delta = np.where(
                (trial > 0.0) & (margins > 0.0), -t * shift, new_hinge - old_hinge
            )
            change = (
                t * float(w @ direction)
                + 0.5 * t * t * float(direction @ direction)
                + float(costs @ (delta * (new_hinge + old_hinge)))
            )
            if change <= _ARMIJO * t * slope:
                return t * direction
            t *= 0.5
        raise ConvergenceError(
            "Newton line search stalled "
            f"(gradient norm {float(np.linalg.norm(grad)):.3g})"
        )

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
        """0.5||w||^2 + sum_i C_i * squared hinge — handy for optimality tests."""
        if self.weights_ is None:
            raise NotFittedError("fit the SVM first")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        hinge = np.maximum(1.0 - y * self.decision_function(X), 0.0)
        costs = self._per_example_cost(y)
        reg = 0.5 * float(self.weights_ @ self.weights_ + self.bias_**2)
        return reg + float(np.sum(costs * hinge**2))
