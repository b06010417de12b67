"""Pair-list similarity kernels over stacked sparse profile matrices.

Both §2 measures vectorize over an explicit pair list. With the forward
profiles of a batch of references stacked into a sparse matrix ``F``
(rows = references, columns = end-relation tuples) and the backward
profiles into ``B``:

- the symmetric *walk* probability of pair ``(i, j)`` is
  ``(F[i] . B[j] + F[j] . B[i]) / 2``;
- *set resemblance* (weighted Jaccard) is ``m / (|a|_1 + |b|_1 - m)``
  with ``m`` the row sum of the sparse elementwise ``minimum(a, b)``,
  since ``max(a, b) = a + b - min(a, b)``. The minimum is stored only
  on the shared support, so disjoint rows score an exact 0, as the
  per-pair kernel does.

The kernels gather the pairs' rows slice by slice
(:func:`repro.perf.chunking.pair_slices`), so peak memory stays within a
fixed byte budget whatever the row widths, and unneeded pairs are never
touched. They match the per-pair reference kernels
(:func:`repro.similarity.resemblance.set_resemblance`,
:func:`repro.similarity.randomwalk.walk_probability`) to floating-point
reassociation tolerance, which the property suite asserts.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.paths.profiles import NeighborProfile
from repro.perf.chunking import pair_slices

#: One increment per (pair, path) value computed, as the per-pair
#: reference kernels count their calls.
_RESEM_CALLS = counter("similarity.resemblance.calls")
_WALK_CALLS = counter("similarity.walk.calls")


def profile_matrices(
    profiles: list[NeighborProfile],
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Stack profiles into (forward, backward) CSR matrices.

    Rows follow the input order; columns are the union of the supports,
    indexed densely in sorted row-id order. The column index is built once
    via ``np.unique`` over the concatenated supports and shared by the
    forward and backward matrices (identical ``indices``/``indptr``), so
    construction is O(total support x log) with no per-tuple Python-dict
    probing.
    """
    n = len(profiles)
    counts = np.array([len(p.weights) for p in profiles], dtype=np.int64)
    total = int(counts.sum())

    all_ids = np.empty(total, dtype=np.int64)
    fwd_vals = np.empty(total, dtype=np.float64)
    back_vals = np.empty(total, dtype=np.float64)
    pos = 0
    for profile, k in zip(profiles, counts):
        if k:
            all_ids[pos : pos + k] = np.fromiter(
                profile.weights.keys(), dtype=np.int64, count=k
            )
            vals = np.array(list(profile.weights.values()), dtype=np.float64)
            fwd_vals[pos : pos + k] = vals[:, 0]
            back_vals[pos : pos + k] = vals[:, 1]
        pos += k

    columns, inverse = np.unique(all_ids, return_inverse=True)
    # Canonical CSR wants ascending column indices within each row; one
    # lexsort (row-major, then column) orders both value arrays alike.
    rows_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((inverse, rows_idx))
    indices = inverse[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    shape = (n, len(columns))
    forward = sparse.csr_matrix((fwd_vals[order], indices, indptr), shape=shape)
    backward = sparse.csr_matrix((back_vals[order], indices.copy(), indptr.copy()), shape=shape)
    return forward, backward


def _row_masses(forward: sparse.csr_matrix) -> np.ndarray:
    return np.asarray(forward.sum(axis=1)).ravel()


def pair_resemblance_values(
    forward: sparse.csr_matrix,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> np.ndarray:
    """Set resemblance for an explicit pair list (rows of ``forward``).

    Works row-wise on sparse slices — no dense blocks, no unneeded pairs —
    so arbitrary pair lists (e.g. training pairs spanning many names) cost
    O(pairs x support), not O(n^2).
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    out = np.zeros(len(idx_a))
    if not len(idx_a):
        return out
    _RESEM_CALLS.inc(len(idx_a))
    masses = _row_masses(forward)
    for sl in pair_slices(np.diff(forward.indptr), idx_a, idx_b):
        # The elementwise minimum stores entries only on the shared
        # support, so disjoint rows give an exact 0.
        min_sum = np.asarray(
            forward[idx_a[sl]].minimum(forward[idx_b[sl]]).sum(axis=1)
        ).ravel()
        max_sum = masses[idx_a[sl]] + masses[idx_b[sl]] - min_sum
        np.divide(min_sum, max_sum, out=out[sl], where=max_sum > 0.0)
    return out


def pair_walk_values(
    forward: sparse.csr_matrix,
    backward: sparse.csr_matrix,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> np.ndarray:
    """Symmetric walk probabilities for an explicit pair list."""
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    out = np.zeros(len(idx_a))
    if not len(idx_a):
        return out
    _WALK_CALLS.inc(len(idx_a))
    for sl in pair_slices(np.diff(forward.indptr), idx_a, idx_b):
        fwd_a = forward[idx_a[sl]]
        fwd_b = forward[idx_b[sl]]
        back_a = backward[idx_a[sl]]
        back_b = backward[idx_b[sl]]
        d_ab = np.asarray(fwd_a.multiply(back_b).sum(axis=1)).ravel()
        d_ba = np.asarray(fwd_b.multiply(back_a).sum(axis=1)).ravel()
        out[sl] = 0.5 * (d_ab + d_ba)
    return out
