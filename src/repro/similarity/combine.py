"""Combining per-path similarities into one number.

Supervised combination (Eq 1 of the paper)::

    Resem(r1, r2) = sum_P  w(P) * Resem_P(r1, r2)

with ``w(P)`` learned by the SVM of §3. For use as a similarity the weights
are clamped at zero (a negative contribution would break the geometric-mean
composition and the min-sim threshold semantics) and rescaled to sum to 1
(:meth:`repro.core.distinct.Distinct.combiners`); the signed weights stay
available on the model for inspection.

Unsupervised combination (the baselines of Fig 4) uses uniform weights over
the raw per-path similarities, as the unweighted prior work sums them.
Both apply to a whole pair list at once
(:meth:`repro.core.features.PairFeatures.combined`).

The clustering stage composes the two measures with a geometric mean
(§4.1)::

    Sim(C1, C2) = sqrt( Resem(C1, C2) * WalkProb(C1, C2) )
"""

from __future__ import annotations

import math


def geometric_mean(resemblance: float, walk_probability: float) -> float:
    """§4.1 composite similarity; zero if either ingredient is non-positive."""
    if resemblance <= 0.0 or walk_probability <= 0.0:
        return 0.0
    return math.sqrt(resemblance * walk_probability)
