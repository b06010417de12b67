"""Similarity measures between references (§2.3–§2.4 of the paper).

Two complementary per-path measures, both computed for a whole pair list
by the pair kernel (:mod:`repro.similarity.vectorized`):

- **set resemblance**: weighted Jaccard between neighbor profiles —
  context similarity;
- **random walk probability**: probability of walking from one reference
  to the other through the path's neighbor tuples — linkage strength.

:mod:`repro.similarity.combine` holds the geometric-mean composition
of §4.1; the per-path weights of Eq 1 are arrays
(:meth:`repro.core.distinct.Distinct.combiners`) that
:meth:`repro.core.features.PairFeatures.combined` applies to every pair
at once.
"""

from repro.similarity.combine import geometric_mean

__all__ = [
    "geometric_mean",
]
