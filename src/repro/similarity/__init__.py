"""Similarity measures between references (§2.3–§2.4 of the paper).

Two complementary per-path measures:

- **set resemblance** (:mod:`repro.similarity.resemblance`): weighted
  Jaccard between neighbor profiles — context similarity;
- **random walk probability** (:mod:`repro.similarity.randomwalk`):
  probability of walking from one reference to the other through the path's
  neighbor tuples — linkage strength.

:mod:`repro.similarity.combine` turns per-path values into one number, with
learned weights (Eq 1) or uniform unsupervised weights, and provides the
geometric-mean composition used by the clustering stage.
"""

from repro.similarity.resemblance import set_resemblance
from repro.similarity.randomwalk import walk_probability, directed_walk_probability
from repro.similarity.combine import (
    PathWeights,
    combine,
    geometric_mean,
    uniform_weights,
)

__all__ = [
    "set_resemblance",
    "walk_probability",
    "directed_walk_probability",
    "PathWeights",
    "combine",
    "geometric_mean",
    "uniform_weights",
]
