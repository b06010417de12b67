"""DISTINCT's composite cluster similarity (§4.1–§4.2).

``Sim(C1, C2) = sqrt( Resem(C1, C2) * WalkProb(C1, C2) )`` where

- ``Resem`` is the Average-Link set resemblance: the mean of the combined
  (Eq 1) pair resemblances over all cross pairs, and
- ``WalkProb`` is the collective random-walk probability: the probability of
  walking from one cluster (entered uniformly) to the other, symmetrized::

      WalkProb(C1, C2) = (W / |C1| + W / |C2|) / 2,
      W = sum of pair walk probabilities over cross pairs

Both aggregates are plain sums over cross pairs, so a merge just adds the
children's rows (§4.2's incremental computation) — no pair similarity is
ever recomputed.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.linkage import AverageLinkMeasure, _PairMatrixMeasure


class CollectiveWalkMeasure(_PairMatrixMeasure):
    """Collective random-walk probability alone (the Fig-4 walk-only variant)."""

    def similarities(self, slot: int) -> np.ndarray:
        total = self._agg[slot]
        return 0.5 * (total / self._size[slot] + total / self._size)


class CompositeMeasure:
    """Average-Link resemblance composed with the collective walk.

    Parameters
    ----------
    pair_resem:
        Symmetric matrix of combined pair set-resemblance values (Eq 1).
    pair_walk:
        Symmetric matrix of combined pair walk probabilities (Eq 1).
    """

    def __init__(self, pair_resem: np.ndarray, pair_walk: np.ndarray) -> None:
        if np.shape(pair_resem) != np.shape(pair_walk):
            raise ValueError("resemblance and walk matrices must align")
        self.resemblance = AverageLinkMeasure(pair_resem)
        self.walk = CollectiveWalkMeasure(pair_walk)

    def n_items(self) -> int:
        return self.resemblance.n_items()

    def size(self, slot: int) -> int:
        return self.resemblance.size(slot)

    def merge(self, i: int, j: int) -> None:
        self.resemblance.merge(i, j)
        self.walk.merge(i, j)

    def similarities(self, slot: int) -> np.ndarray:
        """Geometric mean of the two factors; 0 unless both are positive."""
        resem = self.resemblance.similarities(slot)
        walk = self.walk.similarities(slot)
        out = np.zeros_like(resem)
        linked = (resem > 0.0) & (walk > 0.0)
        out[linked] = np.sqrt(resem[linked] * walk[linked])
        return out
