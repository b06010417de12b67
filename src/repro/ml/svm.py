"""A linear SVM trained exactly by a primal Newton method.

Solves the L2-regularized squared-hinge problem

    min_w  0.5 ||w||^2 + C * sum_i max(0, 1 - y_i w . x_i)^2

by the generalized Newton method of Keerthi & DeCoste, *A Modified Finite
Newton Method for Fast Solution of Large Scale Linear SVMs* (JMLR 2005) —
the primal route LIBLINEAR's TRON takes for this loss. The bias term is
handled by augmenting every example with a constant feature (regularized
bias). The objective is piecewise quadratic, so each step is one small
linear solve over the active set and a fit takes a handful of steps.
Once the gradient test passes, one more solve lands on the active set's
quadratic minimizer, kept when it leaves the active set unchanged: that
point is the exact optimum, so the fit's duality gap closes to rounding.

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
        Soft-margin cost of every example. Larger C fits the training set
        more tightly.
    """

    # Read-only aliases of the step cap and of the steps the last fit took
    # (``n_epochs_``), under the names the pipebench SVM wrapper reads;
    # ROADMAP's "[benchmark]" item renames both.
    max_epochs: int = MAX_NEWTON_STEPS

    def __init__(self, C: float = 1.0) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.n_epochs_: int | None = None

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
            w = self._fit_newton(yX, float(self.C))
            sp.annotate(steps=self.n_epochs_)
        self.weights_ = w[:-1]
        self.bias_ = float(w[-1])
        _FITS.inc()
        _ITERATIONS.inc(self.n_epochs_ or 0)
        return self

    def _fit_newton(self, yX: np.ndarray, cost: float) -> np.ndarray:
        """Minimize the objective over ``w``; row i of ``yX`` is ``y_i x̃_i``."""
        w = np.zeros(yX.shape[1])
        # At w = 0 every margin is 1, so the starting gradient is -2C X^T y.
        g0 = float(np.linalg.norm(2.0 * cost * yX.sum(axis=0)))
        tol = GRADIENT_TOL * max(1.0, g0)
        for step in range(MAX_NEWTON_STEPS + 1):
            margins = 1.0 - yX @ w
            active = margins > 0.0
            yX_active = yX[active]
            grad = w - 2.0 * yX_active.T @ (cost * margins[active])
            norm = float(np.linalg.norm(grad))
            if norm > tol and step == MAX_NEWTON_STEPS:
                break
            hessian = np.eye(len(w)) + 2.0 * yX_active.T @ (cost * yX_active)
            direction = np.linalg.solve(hessian, -grad)
            if norm <= tol:
                # On a fixed active set the objective is quadratic, so the
                # full Newton step lands on its minimizer; where that point
                # keeps the active set, it is the exact optimum.
                finish = w + direction
                if np.array_equal(1.0 - yX @ finish > 0.0, active):
                    w = finish
                self.n_epochs_ = step
                return w
            w = w + self._armijo_step(w, direction, grad, margins, yX, cost)
        raise ConvergenceError(
            f"Newton solver did not converge in {MAX_NEWTON_STEPS} steps "
            f"(gradient norm {norm:.3g} above {tol:.3g})"
        )

    @staticmethod
    def _armijo_step(w, direction, grad, margins, yX, cost) -> np.ndarray:
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
                + cost * float(delta @ (new_hinge + old_hinge))
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
        """0.5||w||^2 + C * sum of squared hinges — handy for optimality tests."""
        if self.weights_ is None:
            raise NotFittedError("fit the SVM first")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        hinge = np.maximum(1.0 - y * self.decision_function(X), 0.0)
        reg = 0.5 * float(self.weights_ @ self.weights_ + self.bias_**2)
        return reg + self.C * float(np.sum(hinge**2))
