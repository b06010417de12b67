"""Similarity measures between references (§2.3–§2.4 of the paper).

Two complementary per-path measures, both computed for a whole pair list
by the pair kernel (:mod:`repro.similarity.vectorized`):

- **set resemblance**: weighted Jaccard between neighbor profiles —
  context similarity;
- **random walk probability**: probability of walking from one reference
  to the other through the path's neighbor tuples — linkage strength.

:mod:`repro.similarity.combine` turns per-path values into one number, with
learned weights (Eq 1) or uniform unsupervised weights, and provides the
geometric-mean composition used by the clustering stage.
"""

from repro.similarity.combine import (
    PathWeights,
    combine,
    geometric_mean,
    uniform_weights,
)

__all__ = [
    "PathWeights",
    "combine",
    "geometric_mean",
    "uniform_weights",
]
