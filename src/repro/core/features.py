"""Pair feature computation: per-join-path similarity vectors.

For a pair of references, the feature vector has one set-resemblance value
and one walk-probability value per join path — these are the inputs to the
§3 SVM, and (combined by Eq 1) the pair similarities the clustering stage
aggregates. Everything here is vectorized over pairs: ``resemblance`` and
``walk`` are (n_pairs, n_paths) arrays aligned with ``pairs``.

:func:`compute_pair_features` takes one route:

1. **batched propagation** — every reference of the batch propagates at
   once as sparse matrix products (:mod:`repro.paths.batch`), giving one
   stacked (forward, backward) matrix pair per path;
2. **matrix kernels** — every pair is evaluated per path by the
   pair-list kernels of :mod:`repro.similarity.vectorized`, which return
   an exact 0 where the two supports are disjoint.

The paths are the pipeline's live ones
(:func:`repro.core.references.live_paths`), so no column is zero by
construction.

The scalar per-reference propagation (:meth:`ProfileBuilder.profiles_for`)
and the per-pair kernels (:func:`repro.similarity.resemblance
.set_resemblance`, :func:`repro.similarity.randomwalk.walk_probability`)
are the reference the equivalence tests compare this route against; no
runtime code calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import counter
from repro.paths.batch import BatchedProfiles
from repro.paths.joinpath import JoinPath
from repro.paths.profiles import ProfileBuilder
from repro.resilience import fault_check
from repro.similarity.combine import PathWeights
from repro.similarity.vectorized import pair_resemblance_values, pair_walk_values

# The benchmark's per-layer ledger wraps ``intersecting_pair_mask`` and
# reads these two counters, which measured exact pair blocking; the route
# has none, since the kernels score disjoint supports as an exact 0. All
# three stay, uncalled and at zero, until ROADMAP's "One benchmark"
# ([benchmark]) item deletes them.
counter("blocking.pairs_kept")
counter("blocking.pairs_pruned")


def intersecting_pair_mask() -> None:
    """Uncalled; kept for the benchmark's ledger (see the comment above)."""


@dataclass
class PairFeatures:
    """Per-pair, per-path similarity features.

    ``pairs[k] = (row_a, row_b)``; ``resemblance[k, p]`` and ``walk[k, p]``
    are the two measures for pair ``k`` along path ``p`` (column order =
    ``paths`` order).
    """

    paths: list[JoinPath]
    pairs: list[tuple[int, int]]
    resemblance: np.ndarray
    walk: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def combined(
        self, resem_weights: PathWeights, walk_weights: PathWeights
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq-1 combination: per-pair scalar (resemblance, walk) values."""
        rw = np.asarray(resem_weights.weights)
        ww = np.asarray(walk_weights.weights)
        if len(rw) != len(self.paths) or len(ww) != len(self.paths):
            raise ValueError("weight vectors must have one entry per path")
        return self.resemblance @ rw, self.walk @ ww


def compute_pair_features(
    builder: ProfileBuilder,
    pairs: list[tuple[int, int]],
    matrices: dict[JoinPath, BatchedProfiles] | None = None,
) -> PairFeatures:
    """Compute both measures for every pair along every path of ``builder``.

    ``matrices`` is the batch of a caller that already propagated the
    pairs' references (``builder.matrices_for(rows)`` with every row of
    ``pairs`` among ``rows``); without it the pairs' rows propagate here.
    """
    fault_check("features.backend")
    paths = builder.paths
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    if not pairs or not paths:
        return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)
    if matrices is None:
        rows = list(dict.fromkeys(row for pair in pairs for row in pair))
        matrices = builder.matrices_for(rows)
    index = {row: k for k, row in enumerate(matrices[paths[0]].rows)}
    idx_a = np.fromiter((index[a] for a, _ in pairs), dtype=np.int64, count=len(pairs))
    idx_b = np.fromiter((index[b] for _, b in pairs), dtype=np.int64, count=len(pairs))
    for p, path in enumerate(paths):
        stacked = matrices[path]
        resem[:, p] = pair_resemblance_values(stacked.forward, idx_a, idx_b)
        walk[:, p] = pair_walk_values(stacked.forward, stacked.backward, idx_a, idx_b)
    return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)


def all_pairs(rows: list[int]) -> list[tuple[int, int]]:
    """All unordered pairs of ``rows``, in (i < j) index order."""
    return [
        (rows[i], rows[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    ]


def pair_matrix(
    rows: list[int], pairs: list[tuple[int, int]], values: np.ndarray
) -> np.ndarray:
    """Expand condensed per-pair values into a symmetric n x n matrix."""
    index = {row: i for i, row in enumerate(rows)}
    matrix = np.zeros((len(rows), len(rows)))
    for (row_a, row_b), value in zip(pairs, values):
        i, j = index[row_a], index[row_b]
        matrix[i, j] = matrix[j, i] = value
    return matrix
