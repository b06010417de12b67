"""The pair kernel: both §2 measures for a pair list, over stacked profiles.

With the forward profiles of a batch of references stacked into a sparse
matrix ``F`` (rows = references, columns = end-relation tuples) and the
backward profiles into ``B``:

- the symmetric *walk* probability of pair ``(i, j)`` is
  ``(F[i] . B[j] + F[j] . B[i]) / 2``;
- *set resemblance* (weighted Jaccard) is ``m / (|a|_1 + |b|_1 - m)``
  with ``m = sum_t min(a_t, b_t)``, since ``max(a, b) = a + b - min(a, b)``.

All three sums run over the columns the pair's two rows share, so
:func:`pair_similarities` computes them from one enumeration of those
*terms*, and disjoint rows score an exact 0. It enumerates them one of
two ways, whichever touches fewer terms (:func:`cheaper_enumeration`):

- **column co-occurrence** (:func:`cooccurrence_terms`, CSC): each
  column's row pairs, dropping pairs the list does not request. Work is
  ``sum_t k_t^2`` for ``k_t`` stored rows in column ``t``: the choice for
  all pairs of a name;
- **row intersection** (:func:`intersection_terms`, CSR): each pair's
  two sorted rows merged by ``searchsorted``. Work is the shorter row
  per pair: the choice for sparse lists such as training pairs.

Both yield a pair's terms in ascending column order, and every sum
accumulates term by term from 0.0 (``np.add.at``). A pair's bits
therefore depend only on its two rows: not on the enumeration, the
other pairs of the list, their order or the chunk budget
(:func:`repro.perf.chunking.budget_slices`). Delta ingest relies on it
to reuse old pairs byte for byte. The kernel matches the per-pair
measures of the test suite's scalar oracle to floating-point
reassociation tolerance, which the property suite asserts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.perf.chunking import budget_slices
from repro.perf.csr import Csr

#: One increment per (pair, path) value computed.
_RESEM_CALLS = counter("similarity.resemblance.calls")
_WALK_CALLS = counter("similarity.walk.calls")


@dataclass(frozen=True)
class _Entries:
    """The stored entries of one path's stacked ``(F, B)``, in CSR order.

    ``back`` holds ``B`` on ``F``'s pattern (0 where ``B`` stores
    nothing), so both measures read one entry list.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    fwd: np.ndarray
    back: np.ndarray
    n_rows: int
    n_cols: int

    @classmethod
    def of(cls, forward: Csr, backward: Csr, first: int, last: int) -> "_Entries":
        """The entries of rows ``first`` to ``last - 1``, renumbered from 0."""
        n_rows, n_cols = last - first, forward.shape[1]
        start, stop = forward.indptr[first], forward.indptr[last]
        indptr = forward.indptr[first : last + 1] - start
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        indices = forward.indices[start:stop]
        back_start, back_stop = backward.indptr[first], backward.indptr[last]
        if back_stop - back_start == stop - start:
            # A pattern subset with as many entries is the same pattern.
            back = backward.data[back_start:back_stop]
        else:
            keys = rows * n_cols + indices
            back_rows = np.repeat(
                np.arange(n_rows, dtype=np.int64),
                np.diff(backward.indptr[first : last + 1]),
            )
            back = np.zeros(stop - start)
            back[
                np.searchsorted(
                    keys, back_rows * n_cols + backward.indices[back_start:back_stop]
                )
            ] = backward.data[back_start:back_stop]
        return cls(
            indptr, indices, rows, forward.data[start:stop], back, n_rows, n_cols
        )

    def row_masses(self) -> np.ndarray:
        """``|F[i]|_1``, summed in ascending column order from 0.0."""
        return np.bincount(self.rows, weights=self.fwd, minlength=self.n_rows)


#: One chunk of terms: the pair each term belongs to, then ``F`` and
#: ``B`` at the term's column for the pair's lower and higher row.
Terms = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def cooccurrence_terms(
    entries: _Entries, lo: np.ndarray, hi: np.ndarray, position: np.ndarray
) -> Iterator[Terms]:
    """Enumerate each column's row pairs, columns ascending (CSC order).

    A column with ``k`` stored rows yields its ``k(k-1)/2`` row pairs
    (``k(k+1)/2`` when the list has self-pairs); ``position[r*n + s]``
    maps row pair ``(r, s)``, ``r <= s``, to its pair, or -1 for a
    pair the list does not request, whose terms are dropped.
    """
    order = np.argsort(entries.indices, kind="stable")
    rows = entries.rows[order]
    fwd = entries.fwd[order]
    back = entries.back[order]
    # Stored columns only: the column space can be far wider than nnz.
    cols = entries.indices[order]
    colptr = np.append(np.flatnonzero(np.diff(cols, prepend=-1)), len(cols))
    counts = np.diff(colptr)
    del order, cols  # the generator's frame outlives every chunk
    # Entry e pairs with the entries after it in its column, and with
    # itself when the list has self-pairs.
    diag = int(bool((lo == hi).any()))
    n = entries.n_rows
    for chunk in budget_slices(counts * (counts - 1 + 2 * diag) // 2):
        start, stop = colptr[chunk.start], colptr[chunk.stop]
        own = np.arange(start, stop, dtype=np.int64)
        col_end = np.repeat(colptr[chunk.start + 1 : chunk.stop + 1], counts[chunk])
        runs = col_end - own - 1 + diag
        run_starts = np.cumsum(runs) - runs
        first = np.repeat(own, runs)
        second = np.arange(len(first), dtype=np.int64) + np.repeat(
            own + 1 - diag - run_starts, runs
        )
        pair = position[rows[first] * n + rows[second]]
        wanted = pair >= 0
        if not wanted.all():
            pair, first, second = pair[wanted], first[wanted], second[wanted]
        yield pair, fwd[first], fwd[second], back[first], back[second]


def intersection_terms(
    entries: _Entries, lo: np.ndarray, hi: np.ndarray, position: np.ndarray
) -> Iterator[Terms]:
    """Enumerate each pair's shared columns by merging its two rows (CSR).

    Every column of the pair's shorter row is looked up in the longer
    one with one ``searchsorted`` over the (row, column) keys of all
    entries, so a pair's terms come in ascending column order.
    """
    del position  # every pair is enumerated; duplicates score alike
    row_nnz = np.diff(entries.indptr)
    short_is_lo = row_nnz[lo] <= row_nnz[hi]
    short = np.where(short_is_lo, lo, hi)
    long_ = np.where(short_is_lo, hi, lo)
    keys = entries.rows * entries.n_cols + entries.indices
    candidates = row_nnz[short]
    for sl in budget_slices(candidates):
        runs = candidates[sl]
        run_starts = np.cumsum(runs) - runs
        own = np.arange(runs.sum(), dtype=np.int64) + np.repeat(
            entries.indptr[short[sl]] - run_starts, runs
        )
        pair = np.repeat(np.arange(sl.start, sl.stop, dtype=np.int64), runs)
        query = np.repeat(long_[sl] * entries.n_cols, runs) + entries.indices[own]
        other = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        hit = keys[other] == query
        pair, own, other = pair[hit], own[hit], other[hit]
        own_is_lo = short_is_lo[pair]
        e_lo = np.where(own_is_lo, own, other)
        e_hi = np.where(own_is_lo, other, own)
        yield (
            pair,
            entries.fwd[e_lo],
            entries.fwd[e_hi],
            entries.back[e_lo],
            entries.back[e_hi],
        )


Enumeration = Callable[[_Entries, np.ndarray, np.ndarray, np.ndarray], Iterator[Terms]]


def cheaper_enumeration(entries: _Entries, lo: np.ndarray, hi: np.ndarray) -> Enumeration:
    """The enumeration that touches fewer terms, counted in O(nnz + pairs).

    Co-occurrence touches every row pair of every column, requested or
    not; intersection touches every entry of each pair's shorter row,
    shared or not.
    """
    counts = np.bincount(entries.indices)
    diag = int(bool((lo == hi).any()))
    cooccurring = int((counts * (counts - 1 + 2 * diag)).sum()) // 2
    row_nnz = np.diff(entries.indptr)
    candidates = int(np.minimum(row_nnz[lo], row_nnz[hi]).sum())
    return cooccurrence_terms if cooccurring <= candidates else intersection_terms


def _arrays(matrix: Csr | sparse.csr_matrix) -> Csr:
    return matrix if isinstance(matrix, Csr) else Csr.of(matrix)


def pair_similarities(
    forward: Csr | sparse.csr_matrix,
    backward: Csr | sparse.csr_matrix,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Set resemblance and symmetric walk for an explicit pair list.

    Returns ``(resemblance, walk)``, aligned with the pairs (rows of
    ``forward``/``backward``). ``backward``'s pattern must be a subset of
    ``forward``'s, as batched propagation builds them. Batched
    propagation's :class:`~repro.perf.csr.Csr` arrays are read as they
    are; a scipy matrix is canonicalized first. A pair's values
    depend only on its two rows, and the work only on the rows from the
    pairs' lowest to their highest: a batch that stacks several names
    costs one name's pairs no more than the name's own rows.
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    n_pairs = len(idx_a)
    resem = np.zeros(n_pairs)
    if not n_pairs:
        return resem, np.zeros(0)
    _RESEM_CALLS.inc(n_pairs)
    _WALK_CALLS.inc(n_pairs)
    lo = np.minimum(idx_a, idx_b)
    hi = np.maximum(idx_a, idx_b)
    first = int(lo.min())
    entries = _Entries.of(_arrays(forward), _arrays(backward), first, int(hi.max()) + 1)
    lo, hi = lo - first, hi - first
    n = entries.n_rows
    position = np.full(n * n, -1, dtype=np.int64)
    position[lo * n + hi] = np.arange(n_pairs, dtype=np.int64)
    # A pair listed twice is enumerated once, under one of its positions.
    rep = position[lo * n + hi]

    # Every pair's three sums run from 0.0 over its shared columns in
    # ascending order, whatever the enumeration and its chunks:
    # ``np.add.at`` adds each term in turn.
    min_sum = np.zeros(n_pairs)
    lo_hi = np.zeros(n_pairs)
    hi_lo = np.zeros(n_pairs)
    if entries.fwd.size:
        enumerate_terms = cheaper_enumeration(entries, lo, hi)
        for pair, f_lo, f_hi, b_lo, b_hi in enumerate_terms(entries, lo, hi, position):
            np.add.at(min_sum, pair, np.minimum(f_lo, f_hi))
            np.add.at(lo_hi, pair, f_lo * b_hi)
            np.add.at(hi_lo, pair, f_hi * b_lo)
    min_sum, lo_hi, hi_lo = min_sum[rep], lo_hi[rep], hi_lo[rep]

    masses = entries.row_masses()
    max_sum = masses[lo] + masses[hi] - min_sum
    np.divide(min_sum, max_sum, out=resem, where=max_sum > 0.0)
    return resem, 0.5 * (lo_hi + hi_lo)
