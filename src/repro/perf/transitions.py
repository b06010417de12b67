"""Row-normalized sparse transition matrices: one per join step per epoch.

One forward propagation step (:meth:`repro.paths.propagation
.PropagationEngine._forward_step`) splits each tuple's probability mass
uniformly over its join partners (§2.2). Over a whole source relation
that split is one fixed linear map. Let ``A[i, j] = 1`` when source row
``i`` joins destination row ``j`` (a NULL join value joins nothing).
Then the step's transition is ``T = D_src^-1 A`` (row-normalized), and
the backward dynamic program multiplies by the reverse step's
transition transposed, ``T_rev.T = A D_dst^-1`` (column-normalized).
Both share ``A``'s sparsity pattern, so :func:`build_step` builds them
in one pass over the source relation, on shared index arrays, and no
caller ever transposes or converts one.

:class:`StepMatrices` holds these pairs for one database object at one
``db.epoch``. A read at another database or epoch (an
:func:`repro.reldb.apply_delta` bumped it) drops every pair, and each
step rebuilds on its first read after that. ``perf.transitions.built``
counts the builds.

A name's exclusions (its own object rows,
:func:`repro.core.references.exclusions_for_name`) drop tuples from
partner lists. :func:`without_columns` and :func:`without_rows` make the
masked copies of one propagation run; the shared matrices never change.
Per-origin exclusion (the origin tuple is not an intermediate stop) is
not baked in either; :mod:`repro.paths.batch` applies it as a sparse
per-reference correction.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np
from scipy import sparse

from repro.obs import counter

__all__ = ["StepMatrices", "StepPair", "build_step", "without_columns", "without_rows"]

_BUILT = counter("perf.transitions.built")

# Counters of the deleted fanout memo and its epoch-advance invalidation.
# Nothing increments them; they exist, at zero, so that readers of the
# old counter names (the benchmark's per-layer ledger) still find them.
counter("perf.fanout.evictions")
counter("perf.fanout.hits")
counter("perf.fanout.misses")
counter("perf.ingest.rows_dirty")
counter("perf.ingest.rows_reused")


@dataclass(frozen=True)
class StepPair:
    """One join step's matrices, both ``(n_src_rows, n_dst_rows)`` CSR.

    ``forward`` is ``T``: ``forward[i, j] = 1 / |P(i)|`` for every partner
    ``j`` of source row ``i``. ``backward`` is ``T_rev.T``:
    ``backward[i, j] = 1 / |P_rev(j)|``, the reverse split of destination
    row ``j`` over its source partners.
    """

    forward: sparse.csr_matrix
    backward: sparse.csr_matrix


def _csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    matrix = sparse.csr_matrix((data, indices, indptr), shape=shape, copy=False)
    matrix.has_sorted_indices = True
    return matrix


def _row_normalized(
    indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    counts = np.diff(indptr)
    data = np.repeat(1.0 / np.maximum(counts, 1), counts)
    return _csr(data, indices, indptr, shape)


def _column_normalized(
    indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    counts = np.bincount(indices, minlength=shape[1])
    return _csr(1.0 / counts[indices], indices, indptr, shape)


def build_step(db: Any, step: Any) -> StepPair:
    """Both matrices of ``step`` (a :class:`repro.reldb.joins.JoinStep`)
    over the full relations of ``db`` (a :class:`repro.reldb.Database`).

    Partner lists come from the destination's hash index, so each row's
    columns are ascending, as :meth:`PropagationEngine._partners` sees
    them.
    """
    source = db.table(step.src_relation)
    index = db.index(step.dst_relation, step.dst_attribute)
    partners = [
        () if value is None else index.lookup(value)
        for value in source.column(step.src_attribute)
    ]
    shape = (len(partners), len(db.table(step.dst_relation).rows))
    counts = np.fromiter(map(len, partners), dtype=np.int64, count=len(partners))
    nnz = int(counts.sum())
    dtype = np.int32 if max(nnz, *shape) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(partners) + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(partners), dtype=dtype, count=nnz)
    _BUILT.inc()
    return StepPair(
        forward=_row_normalized(indptr, indices, shape),
        backward=_column_normalized(indptr, indices, shape),
    )


def _in_range(ids: Collection[int], n: int) -> np.ndarray:
    """The ids that name a row of an ``n``-row relation."""
    return np.fromiter((i for i in ids if 0 <= i < n), dtype=np.int64)


def _keep(
    matrix: sparse.csr_matrix, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``matrix``'s pattern restricted to the entries where ``keep`` holds."""
    before = np.zeros(len(keep) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(keep, out=before[1:])
    return before[matrix.indptr], matrix.indices[keep]


def without_columns(
    forward: sparse.csr_matrix, excluded: Collection[int]
) -> sparse.csr_matrix:
    """``T`` with the excluded destination rows dropped from every partner
    list and each row renormalized over the partners that remain."""
    columns = _in_range(excluded, forward.shape[1])
    if not len(columns):
        return forward
    dropped = np.zeros(forward.shape[1], dtype=bool)
    dropped[columns] = True
    indptr, indices = _keep(forward, ~dropped[forward.indices])
    return _row_normalized(indptr, indices, forward.shape)


def without_rows(
    backward: sparse.csr_matrix, excluded: Collection[int]
) -> sparse.csr_matrix:
    """``T_rev.T`` with the excluded source rows dropped from every reverse
    partner list and each column renormalized over the partners that
    remain."""
    rows = _in_range(excluded, backward.shape[0])
    if not len(rows):
        return backward
    dropped = np.zeros(backward.shape[0], dtype=bool)
    dropped[rows] = True
    indptr, indices = _keep(backward, ~np.repeat(dropped, np.diff(backward.indptr)))
    return _column_normalized(indptr, indices, backward.shape)


class StepMatrices:
    """The :class:`StepPair` of every step read so far, for one database
    object at one epoch; a read at any other rebuilds from scratch."""

    def __init__(self) -> None:
        self._db: Any = None
        self._epoch: int | None = None
        self._pairs: dict[Any, StepPair] = {}

    def get(self, db: Any, step: Any) -> StepPair:
        if db is not self._db or db.epoch != self._epoch:
            self._db, self._epoch, self._pairs = db, db.epoch, {}
        pair = self._pairs.get(step)
        if pair is None:
            pair = self._pairs[step] = build_step(db, step)
        return pair

    def __len__(self) -> int:
        return len(self._pairs)
