"""Pair feature computation: per-join-path similarity vectors.

For a pair of references, the feature vector has one set-resemblance value
and one walk-probability value per join path — these are the inputs to the
§3 SVM, and (combined by Eq 1) the pair similarities the clustering stage
aggregates. Everything here is vectorized over pairs: ``resemblance`` and
``walk`` are (n_pairs, n_paths) arrays aligned with ``pairs``.

Pair features take one route:

1. **batched propagation** — the caller propagates every reference of
   the pairs at once through :meth:`repro.paths.profiles.ProfileBuilder
   .matrices_for` (for the pipeline, :attr:`repro.core.distinct.Distinct
   .profiles`), giving one stacked (forward, backward) matrix pair per
   path;
2. **the pair kernel** — :func:`compute_pair_features` evaluates every
   pair per path by :func:`repro.similarity.vectorized
   .pair_similarities`, from one enumeration of the columns its two
   rows share (an exact 0 where the supports are disjoint). A pair's
   values depend only on its two rows, so any subset of the pairs
   scores bit for bit as in the whole list.

The paths are the pipeline's live ones
(:func:`repro.core.references.live_paths`), so no column is zero by
construction, though paths 0 and 1 (the reference's paper, and that
paper's other authorship rows) are 0 on every measured pair: a pair
scores there only when its two references sit on one paper. A path
whose features are provably its prefix's
(:func:`repro.core.references.shared_paths`) is not scored: its columns
are copies of the prefix's.

The equivalence tests compare this route against the paper's
definitions read one reference and one pair at a time (the scalar
oracle in ``tests/oracle.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.obs import counter
from repro.paths.batch import BatchedProfiles
from repro.paths.joinpath import JoinPath
from repro.resilience import fault_check
from repro.similarity.vectorized import pair_similarities

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

    ``pairs[k] = (row_a, row_b)``, an ``(n_pairs, 2)`` int64 array;
    ``resemblance[k, p]`` and ``walk[k, p]`` are the two measures for pair
    ``k`` along path ``p`` (column order = ``paths`` order).
    """

    paths: list[JoinPath]
    pairs: np.ndarray
    resemblance: np.ndarray
    walk: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def combined(
        self, resem_weights: np.ndarray, walk_weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq-1 combination: per-pair scalar (resemblance, walk) values,
        from one weight per path and measure
        (:meth:`repro.core.distinct.Distinct.combiners`)."""
        rw = np.asarray(resem_weights, dtype=float)
        ww = np.asarray(walk_weights, dtype=float)
        if len(rw) != len(self.paths) or len(ww) != len(self.paths):
            raise ValueError("weight vectors must have one entry per path")
        return self.resemblance @ rw, self.walk @ ww


def compute_pair_features(
    paths: list[JoinPath],
    pairs: np.ndarray,
    matrices: dict[JoinPath, BatchedProfiles],
    shared: Mapping[JoinPath, JoinPath] | None = None,
) -> PairFeatures:
    """Compute both measures for every pair along every path of ``paths``.

    ``pairs`` is an ``(n_pairs, 2)`` array of reference rows (or anything
    ``np.asarray`` makes one of). ``matrices`` is the batch that
    propagated the pairs' references (``matrices_for(rows, ...)`` with
    every row of ``pairs`` among ``rows``); the kernel reads only the
    pairs' rows of it. ``shared`` maps a path to the prefix whose
    features it has (:func:`repro.core.references.shared_paths`): its
    columns are copies of the prefix's, and ``matrices`` need not hold
    it.
    """
    fault_check("features.backend")
    shared = shared or {}
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    if not len(pairs) or not paths:
        return PairFeatures(paths=paths, pairs=pairs, resemblance=resem, walk=walk)
    scored = [p for p, path in enumerate(paths) if path not in shared]
    at = _batch_positions(matrices[paths[scored[0]]].rows, pairs.ravel())
    idx_a, idx_b = at[0::2], at[1::2]
    for p in scored:
        stacked = matrices[paths[p]]
        resem[:, p], walk[:, p] = pair_similarities(
            stacked.fwd, stacked.back, idx_a, idx_b
        )
    column = {path: p for p, path in enumerate(paths)}
    for p, path in enumerate(paths):
        if path in shared:
            q = column[shared[path]]
            resem[:, p], walk[:, p] = resem[:, q], walk[:, q]
    return PairFeatures(paths=paths, pairs=pairs, resemblance=resem, walk=walk)


def _batch_positions(batch_rows: list[int], rows: np.ndarray) -> np.ndarray:
    """The position of each of ``rows`` in ``batch_rows`` (the last one,
    if a row repeats), through one table over the batch's row-id range.

    Raises ``KeyError`` for a row the batch does not hold.
    """
    ids = np.asarray(batch_rows, dtype=np.int64)
    low, high = (int(ids.min()), int(ids.max())) if len(ids) else (0, -1)
    table = np.full(high - low + 1, -1, dtype=np.int64)
    np.maximum.at(table, ids - low, np.arange(len(ids), dtype=np.int64))
    offset = rows - low
    inside = (offset >= 0) & (offset < len(table))
    at = np.full(len(rows), -1, dtype=np.int64)
    at[inside] = table[offset[inside]]
    if (at < 0).any():
        raise KeyError(int(rows[np.argmax(at < 0)]))
    return at


def all_pairs(rows: list[int]) -> np.ndarray:
    """All unordered pairs of ``rows``, in (i < j) index order, as an
    ``(n_pairs, 2)`` int64 array."""
    pos_a, pos_b = np.triu_indices(len(rows), k=1)
    ids = np.asarray(rows, dtype=np.int64)
    return np.stack([ids[pos_a], ids[pos_b]], axis=1)


def pair_matrix(n: int, values: np.ndarray) -> np.ndarray:
    """Expand condensed per-pair values, in :func:`all_pairs` order over
    ``n`` rows, into a symmetric n x n matrix."""
    pos_a, pos_b = np.triu_indices(n, k=1)
    matrix = np.zeros((n, n))
    matrix[pos_a, pos_b] = values
    matrix[pos_b, pos_a] = values
    return matrix
