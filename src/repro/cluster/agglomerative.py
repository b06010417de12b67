"""The agglomerative clustering engine (§4.1).

Starts from singleton clusters, repeatedly merges the most similar pair
while that similarity is at least ``min_sim``. Similarities come from a
:class:`ClusterMeasure`, which also knows how to merge its own aggregates
incrementally (§4.2) — the engine never recomputes pairwise similarities
from scratch after a merge.

The engine holds one dense n×n array of cluster–cluster similarities,
indexed by slot (slot ``i`` starts as item ``i``; a merge folds one slot
into the other). Ineligible pairs (``sim <= 0`` or ``sim < min_sim``),
dead slots and the diagonal hold ``-inf``. Each merge takes the array's
max, records it, and refills the surviving slot's row and column from
one vectorized measure call: O(n²) per merge, O(n³) per name.

Equal similarities break on the smallest ``(first, second)`` cluster-id
pair, where a pair of two leaves is ordered ``(min, max)`` and a pair
involving a merged cluster (id ``n + k``) ``(max, min)``. That is the
order of a merge loop over a max-heap of ``(-sim, a, b)`` entries that
pushes leaf pairs ascending and each new cluster's pairs as ``(merged,
other)``; the test oracle holds the engine to that loop merge for merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.cluster.dendrogram import Dendrogram
from repro.obs import counter, span

_MERGES = counter("cluster.merges")
_RUNS = counter("cluster.runs")
# Retired with ingest's dendrogram-prefix replay; declared at zero while
# the benchmark's per-layer ledger still reads it.
counter("cluster.merges_replayed")


class ClusterMeasure(Protocol):
    """What the engine needs from a similarity measure.

    Clusters live in slots ``0..n_items-1``, initially one singleton per
    item. ``merge`` folds one slot into another and updates the
    aggregates so subsequent ``similarities`` calls reflect the merge.
    """

    def n_items(self) -> int:
        """Number of initial singleton clusters."""
        ...

    def similarities(self, slot: int) -> np.ndarray:
        """Similarity of ``slot`` to every slot (symmetric, >= 0).

        Entries for ``slot`` itself and for folded slots are ignored.
        """
        ...

    def merge(self, i: int, j: int) -> None:
        """Fold slot ``j`` into slot ``i``."""
        ...


@dataclass
class ClusteringResult:
    """Flat clusters (sets of item indices) plus the merge history."""

    clusters: list[set[int]]
    dendrogram: Dendrogram
    min_sim: float
    merge_similarities: list[float] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self) -> list[int]:
        """Cluster index per item, aligned with item indices 0..n-1."""
        out = [0] * self.dendrogram.n_leaves
        for label, cluster in enumerate(self.clusters):
            for item in cluster:
                out[item] = label
        return out


class AgglomerativeClusterer:
    """Runs the merge loop for a given measure and ``min_sim`` threshold.

    ``min_sim`` is the paper's stopping threshold: merging continues while
    the best pair's similarity is >= ``min_sim`` (strictly positive
    similarities only; pairs at 0 are never merged).
    """

    def __init__(self, min_sim: float) -> None:
        if min_sim < 0:
            raise ValueError("min_sim must be >= 0")
        self.min_sim = min_sim

    def cluster(self, measure: ClusterMeasure) -> ClusteringResult:
        _RUNS.inc()
        n = measure.n_items()
        dendrogram = Dendrogram(n_leaves=n)
        if n == 0:
            return ClusteringResult([], dendrogram, self.min_sim)
        with span("cluster.agglomerative", n_items=n, min_sim=self.min_sim) as sp:
            result = self._merge_loop(measure, n, dendrogram)
            sp.annotate(
                n_clusters=result.n_clusters, n_merges=len(result.merge_similarities)
            )
        _MERGES.inc(len(result.merge_similarities))
        return result

    def _eligible(self, sims: np.ndarray) -> np.ndarray:
        """``sims`` with every pair the loop may not merge set to ``-inf``."""
        return np.where((sims > 0.0) & (sims >= self.min_sim), sims, -np.inf)

    def _merge_loop(
        self, measure: ClusterMeasure, n: int, dendrogram: Dendrogram
    ) -> ClusteringResult:
        sims = np.empty((n, n))
        for slot in range(n):
            sims[slot] = self._eligible(measure.similarities(slot))
        np.fill_diagonal(sims, -np.inf)
        flat = sims.reshape(-1)
        dead = np.zeros(n, dtype=bool)
        ids = list(range(n))  # the cluster id each slot holds
        members: list[set[int]] = [{i} for i in range(n)]

        merge_similarities: list[float] = []
        while True:
            best = flat[flat.argmax()]
            if best == -np.inf:
                break
            # Among the tied pairs, the smallest oriented (first, second).
            key, i, j = min(
                (_oriented(ids[i], ids[j], n), i, j)
                for i, j in (divmod(int(k), n) for k in np.flatnonzero(flat == best))
                if i < j
            )
            sim = float(best)
            ids[i] = dendrogram.record(key[0], key[1], sim)
            merge_similarities.append(sim)
            measure.merge(i, j)
            members[i] |= members[j]
            dead[j] = True
            row = self._eligible(measure.similarities(i))
            row[dead] = -np.inf
            row[i] = -np.inf
            sims[i] = row
            sims[:, i] = row
            sims[j] = -np.inf
            sims[:, j] = -np.inf

        clusters = sorted(
            (members[slot] for slot in range(n) if not dead[slot]),
            key=lambda s: (-len(s), min(s)),
        )
        return ClusteringResult(
            clusters=clusters,
            dendrogram=dendrogram,
            min_sim=self.min_sim,
            merge_similarities=merge_similarities,
        )


def _oriented(a: int, b: int, n_leaves: int) -> tuple[int, int]:
    """The pair's tie-break order: ``(min, max)`` for two leaves, else
    ``(max, min)`` — a merged cluster's id exceeds every id alive with it."""
    lo, hi = (a, b) if a < b else (b, a)
    return (hi, lo) if hi >= n_leaves else (lo, hi)
