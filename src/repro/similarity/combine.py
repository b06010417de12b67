"""Combining per-path similarities into one number.

Supervised combination (Eq 1 of the paper)::

    Resem(r1, r2) = sum_P  w(P) * Resem_P(r1, r2)

with ``w(P)`` learned by the SVM of §3. For use as a similarity the weights
are clamped at zero (a negative contribution would break the geometric-mean
composition and the min-sim threshold semantics); the signed weights stay
available on the model for inspection.

Unsupervised combination (the baselines of Fig 4) uses uniform weights over
the raw per-path similarities, as the unweighted prior work sums them.

The clustering stage composes the two measures with a geometric mean
(§4.1)::

    Sim(C1, C2) = sqrt( Resem(C1, C2) * WalkProb(C1, C2) )
"""

from __future__ import annotations

import math
from collections.abc import Sequence


class PathWeights:
    """A non-negative weight per feature dimension (join path).

    ``weights[i]`` multiplies feature ``i``; construction clamps negatives
    to zero by default.
    """

    def __init__(self, weights: Sequence[float], clamp_negative: bool = True) -> None:
        if clamp_negative:
            self.weights = [max(0.0, w) for w in weights]
        else:
            self.weights = list(weights)
        self.clamped = clamp_negative

    def __len__(self) -> int:
        return len(self.weights)

    def apply(self, features: Sequence[float]) -> float:
        if len(features) != len(self.weights):
            raise ValueError(
                f"feature/weight length mismatch: {len(features)} vs {len(self.weights)}"
            )
        return sum(w * f for w, f in zip(self.weights, features))

    def total(self) -> float:
        return sum(self.weights)

    def normalized(self) -> "PathWeights":
        """Weights rescaled to sum to 1 (identity if all zero)."""
        total = self.total()
        if total == 0.0:
            return PathWeights(self.weights, clamp_negative=False)
        return PathWeights([w / total for w in self.weights], clamp_negative=False)


def uniform_weights(n_paths: int) -> PathWeights:
    """Equal weights ``1 / n_paths``: every path counts the same."""
    if n_paths <= 0:
        raise ValueError("need at least one path")
    return PathWeights([1.0 / n_paths] * n_paths, clamp_negative=False)


def combine(weights: PathWeights, features: Sequence[float]) -> float:
    """``sum_P w(P) * Sim_P`` — Eq 1 of the paper."""
    return weights.apply(features)


def geometric_mean(resemblance: float, walk_probability: float) -> float:
    """§4.1 composite similarity; zero if either ingredient is non-positive."""
    if resemblance <= 0.0 or walk_probability <= 0.0:
        return 0.0
    return math.sqrt(resemblance * walk_probability)

