"""Zero-overlap pair pruning via an inverted neighbor index.

Both §2 measures are *exactly* zero for a pair of references whose
neighbor supports are disjoint on a path: set resemblance is a weighted
Jaccard (empty intersection ⇒ min-sum 0 ⇒ ratio 0) and the walk
probability is a sum of products over common neighbor tuples (empty
intersection ⇒ empty sum). A pair that shares no neighbor tuple on *any*
path therefore has an all-zero feature row, contributes nothing to the
combined similarity, and can be skipped without changing the clustering
output — the standard blocking lever of author-name disambiguation,
applied after propagation instead of on raw attributes so it is lossless.

The index is the classic inverted one: transpose the (references ×
neighbor tuples) support pattern so each neighbor tuple lists the
references that reach it; two references are candidates iff some tuple
lists both. In matrix form that join is ``P @ P.T`` over the boolean
support pattern ``P`` — :func:`candidate_pairs` materializes exactly the
pairs with a non-empty intersection. :func:`intersecting_pair_mask` is
the same test evaluated against an explicit pair list (the shape
:func:`repro.core.features.compute_pair_features` needs), via chunked
sparse row intersections so no n × n product is formed.

This module is generic over any sparse support matrices (rows =
references, columns = end-relation tuples) — in the pipeline those are
the stacked forward profile matrices of batched propagation.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.perf.chunking import chunk_slices, pair_slices

_PAIRS_PRUNED = counter("blocking.pairs_pruned")
_PAIRS_KEPT = counter("blocking.pairs_kept")

#: ``candidate_pairs`` joins the inverted index in blocks of this many
#: reference rows, bounding the working set to (chunk x n) instead of
#: the full n x n product.
DEFAULT_ROW_CHUNK = 2048


def _pattern(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Boolean support pattern of a weighted support matrix."""
    pattern = sparse.csr_matrix(matrix, copy=True)
    pattern.eliminate_zeros()
    pattern.data = np.ones_like(pattern.data)
    return pattern


def intersecting_pair_mask(
    support_matrices: list[sparse.spmatrix],
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> np.ndarray:
    """True where a pair's supports intersect on at least one path.

    ``support_matrices`` holds one (references × tuples) matrix per path;
    ``idx_a``/``idx_b`` are aligned row-index arrays naming the pairs.
    Pairs where the mask is False have exactly-zero resemblance and walk
    values on every path (see module docstring).
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    mask = np.zeros(len(idx_a), dtype=bool)
    for matrix in support_matrices:
        pattern = _pattern(matrix)
        for sl in pair_slices(np.diff(pattern.indptr), idx_a, idx_b):
            todo = np.flatnonzero(~mask[sl])
            if not len(todo):
                continue
            rows_a = pattern[idx_a[sl][todo]]
            rows_b = pattern[idx_b[sl][todo]]
            overlap = np.asarray(rows_a.multiply(rows_b).sum(axis=1)).ravel()
            hits = np.zeros(sl.stop - sl.start, dtype=bool)
            hits[todo] = overlap > 0
            mask[sl] |= hits
    kept = int(mask.sum())
    _PAIRS_KEPT.inc(kept)
    _PAIRS_PRUNED.inc(len(mask) - kept)
    return mask


def touched_row_mask(
    pattern: sparse.spmatrix, columns: np.ndarray
) -> np.ndarray:
    """True per reference row whose support hits any of ``columns``.

    The delta-ingest side of the inverted index: ``pattern`` is a
    (references × relation rows) visited pattern (see
    :func:`repro.paths.batch.batch_profile_matrices`'s ``trace``), and
    ``columns`` the rows of that relation a delta changed. A False
    entry certifies the reference's walk never crossed a changed tuple,
    so its profiles — and every pair feature built from them — are
    unchanged. Column ids beyond the pattern's width (rows appended by
    the delta itself) are ignored: they cannot appear in a pre-delta
    walk.
    """
    columns = np.asarray(columns, dtype=np.int64)
    columns = columns[columns < pattern.shape[1]]
    if not len(columns) or pattern.nnz == 0:
        return np.zeros(pattern.shape[0], dtype=bool)
    hit_cols = np.zeros(pattern.shape[1], dtype=np.float64)
    hit_cols[columns] = 1.0
    csr = sparse.csr_matrix(pattern).astype(np.float64)
    return np.asarray(csr @ hit_cols).ravel() > 0.0


def candidate_pairs(
    support_matrices: list[sparse.spmatrix],
    *,
    row_chunk: int = DEFAULT_ROW_CHUNK,
) -> list[tuple[int, int]]:
    """All (i < j) row-index pairs with a non-empty support intersection.

    The inverted-index join in matrix form: ``P @ P.T`` over the
    per-path patterns, evaluated ``row_chunk`` reference rows at a time
    so the working set is one (chunk x n) sparse block — never the full
    n x n product, which at 100K+ references would not fit in memory
    even sparse (the ambient graph makes most pairs overlap somewhere).
    Equivalent to evaluating :func:`intersecting_pair_mask` on the full
    pair grid, but emits only the surviving pairs — the right shape when
    the caller has not yet materialized an all-pairs list.
    """
    if not support_matrices:
        return []
    if row_chunk < 1:
        raise ValueError("row_chunk must be >= 1")
    n = support_matrices[0].shape[0]
    patterns = [_pattern(matrix) for matrix in support_matrices]
    transposed = [pattern.T.tocsr() for pattern in patterns]
    pairs: list[tuple[int, int]] = []
    for sl in chunk_slices(n, row_chunk):
        block: sparse.csr_matrix | None = None
        for pattern, pattern_t in zip(patterns, transposed):
            joined = pattern[sl] @ pattern_t
            block = joined if block is None else block + joined
        coo = block.tocoo()
        rows = coo.row.astype(np.int64) + sl.start
        cols = coo.col.astype(np.int64)
        keep = cols > rows
        pairs.extend(
            (int(i), int(j)) for i, j in zip(rows[keep], cols[keep])
        )
    pairs.sort()
    _PAIRS_KEPT.inc(len(pairs))
    _PAIRS_PRUNED.inc(n * (n - 1) // 2 - len(pairs))
    return pairs
