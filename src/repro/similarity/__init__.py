"""Similarity measures between references (§2.3–§2.4 of the paper).

Two complementary per-path measures, both computed for a whole pair list
by the pair kernel (:mod:`repro.similarity.vectorized`):

- **set resemblance**: weighted Jaccard between neighbor profiles —
  context similarity;
- **random walk probability**: probability of walking from one reference
  to the other through the path's neighbor tuples — linkage strength.

:mod:`repro.similarity.combine` holds the per-path weights of Eq 1
(:class:`PathWeights`, which :meth:`repro.core.features.PairFeatures
.combined` applies to every pair at once) and the geometric-mean
composition used by the clustering stage.
"""

from repro.similarity.combine import PathWeights, geometric_mean

__all__ = [
    "PathWeights",
    "geometric_mean",
]
