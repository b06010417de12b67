"""Linkage measures over one pairwise similarity matrix.

Used for the §4.1 discussion (Single-Link merges through one misleading
linkage; Complete-Link refuses weakly linked partitions; Average-Link is the
reasonable middle ground DISTINCT builds on) and for the linkage ablation
bench; Average-Link is also the resemblance half of DISTINCT's composite
(:mod:`repro.cluster.composite`).

Every measure holds its cluster–cluster aggregate as a dense n×n array
indexed by *slot* (slot ``i`` starts as item ``i``) plus a size vector;
folding slot ``j`` into slot ``i`` combines the two rows in one pass:

- Single-Link:   S(C3, Ci) = max(S(C1, Ci), S(C2, Ci))
- Complete-Link: S(C3, Ci) = min(S(C1, Ci), S(C2, Ci)) (absent pairs are 0)
- Average-Link:  sum(C3, Ci) = sum(C1, Ci) + sum(C2, Ci), divided by sizes

Only positive pair values count as linkages; the rest enter as 0.
"""

from __future__ import annotations

import numpy as np


class _PairMatrixMeasure:
    """Shared plumbing: the slot-indexed aggregate array and size vector."""

    #: How two children's aggregates combine into their parent's.
    _fold = staticmethod(np.add)

    def __init__(self, pair_sims: np.ndarray) -> None:
        pair_sims = np.asarray(pair_sims, dtype=float)
        if pair_sims.ndim != 2 or pair_sims.shape[0] != pair_sims.shape[1]:
            raise ValueError("pair similarity matrix must be square")
        if not np.allclose(pair_sims, pair_sims.T, atol=1e-9):
            raise ValueError("pair similarity matrix must be symmetric")
        self._n = pair_sims.shape[0]
        # _agg[a, b] == _agg[b, a]: the linkage aggregate between slots
        self._agg = np.where(pair_sims > 0.0, pair_sims, 0.0)
        np.fill_diagonal(self._agg, 0.0)
        self._size = np.ones(self._n, dtype=np.int64)

    def n_items(self) -> int:
        return self._n

    def size(self, slot: int) -> int:
        return int(self._size[slot])

    def merge(self, i: int, j: int) -> None:
        """Fold slot ``j`` into slot ``i``; slot ``j`` is dead afterwards."""
        row = self._fold(self._agg[i], self._agg[j])
        self._agg[i] = row
        self._agg[:, i] = row
        self._size[i] += self._size[j]

    def similarities(self, slot: int) -> np.ndarray:
        """Similarity of ``slot`` to every slot (own and dead slots are junk)."""
        return self._agg[slot].copy()


class SingleLinkMeasure(_PairMatrixMeasure):
    """Similarity = max over cross pairs."""

    _fold = staticmethod(np.maximum)


class CompleteLinkMeasure(_PairMatrixMeasure):
    """Similarity = min over cross pairs (absent pairs count as 0)."""

    _fold = staticmethod(np.minimum)


class AverageLinkMeasure(_PairMatrixMeasure):
    """Similarity = mean over all cross pairs."""

    def similarities(self, slot: int) -> np.ndarray:
        return self._agg[slot] / (self._size[slot] * self._size)
