"""Row-normalized sparse transition matrices: one per join step.

One forward propagation step (§2.2) splits each tuple's probability mass
uniformly over its join partners. Over a whole source relation
that split is one fixed linear map. Let ``A[i, j] = 1`` when source row
``i`` joins destination row ``j`` (a NULL join value joins nothing).
Then the step's transition is ``T = D_src^-1 A`` (row-normalized), and
the backward dynamic program multiplies by the reverse step's
transition transposed, ``T_rev.T = A D_dst^-1`` (column-normalized).
Both share ``A``'s sparsity pattern, so :func:`extend_step` builds them
in one pass, on shared index arrays, and no caller ever transposes or
converts one.

Partners come from the integer key columns of the database
(:class:`repro.reldb.index.KeyColumn`): the partners of source rows are
the spans of their codes in the destination column's code-ordered rows,
found for all the rows at once, with no per-row Python loop and no
per-value lookup.

Tables are append-only, so a pair built over the first ``s`` source and
``d`` destination rows stays right for those rows except where a
destination row appended since joins an old source row
(:func:`grown_partner_rows`, the same probe delta ingest runs to find
its dirty rows). Extending a pair re-lists those rows and the appended
source rows from the key columns, copies every other row's partner
span, and renormalizes. A fresh build (:func:`build_step`) is the
extension of the empty pair.

:class:`StepMatrices` holds these pairs for one database object. A read
(:meth:`StepMatrices.get`, the only way a pair grows) that finds either
relation of a step grown (by :func:`repro.reldb.apply_delta` or a
direct insert) extends the pair; a read at another database drops every
pair. A step no batch reads is never extended.
``perf.transitions.built`` counts the builds and extensions.

The matrices know no exclusions. A name's exclusions (its own object
rows, :func:`repro.core.references.exclusions_for_name`) and the origin
tuple drop tuples from one reference's partner lists only, so
:mod:`repro.paths.batch` applies both as sparse per-reference
corrections on top of the shared products; the shared matrices never
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.obs import counter

__all__ = [
    "StepMatrices",
    "StepPair",
    "build_step",
    "extend_step",
    "grown_partner_rows",
]

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

    @property
    def shape(self) -> tuple[int, int]:
        """The source and destination row counts the pair covers."""
        return self.forward.shape


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


_NO_ROWS = _csr(
    np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, 0)
)

#: The pair over no rows: every build extends it.
_EMPTY_PAIR = StepPair(forward=_NO_ROWS, backward=_NO_ROWS)


def grown_partner_rows(db: Any, step: Any, n_src: int, n_dst: int) -> np.ndarray:
    """Source rows below ``n_src`` that a destination row at or past
    ``n_dst`` joins, ascending: the old rows whose partner lists across
    ``step`` grew when the destination relation grew past ``n_dst`` rows.

    The appended destination rows' codes are looked up in the source
    relation's key column, all at once; a NULL code joins nothing.
    """
    if n_src == 0:
        return np.empty(0, dtype=np.int64)
    appended = db.index(step.dst_relation, step.dst_attribute).codes[n_dst:]
    source = db.index(step.src_relation, step.src_attribute)
    rows = source.rows_in(*source.spans(appended))
    return np.unique(rows[rows < n_src])


def extend_step(db: Any, step: Any, pair: StepPair) -> StepPair:
    """``pair`` grown to the current relations of ``db``.

    ``pair`` covers the first ``pair.shape`` source and destination rows.
    The source rows it does not cover, and the old rows a new destination
    row joins (:func:`grown_partner_rows`), are re-listed from the
    destination's key column: the span of each row's code, its rows
    ascending, for all the rows at once. Every other row's partner span
    is copied. Both matrices are then renormalized over the whole
    pattern, so the result is byte-equal to a fresh :func:`build_step`.
    """
    n_src_old, n_dst_old = pair.shape
    source = db.index(step.src_relation, step.src_attribute)
    destination = db.index(step.dst_relation, step.dst_attribute)
    shape = (len(source.codes), len(destination.codes))
    # Only a grown destination can add partners to an old source row.
    grown = (
        grown_partner_rows(db, step, n_src_old, n_dst_old)
        if n_src_old and shape[1] > n_dst_old
        else np.empty(0, dtype=np.int64)
    )
    relisted = np.concatenate([grown, np.arange(n_src_old, shape[0], dtype=np.int64)])
    lo, hi = destination.spans(source.codes[relisted])
    listed = hi - lo
    old_indptr, old_indices = pair.forward.indptr, pair.forward.indices
    old_counts = np.diff(old_indptr)
    counts = np.zeros(shape[0], dtype=np.int64)
    counts[:n_src_old] = old_counts
    counts[relisted] = listed
    nnz = int(counts.sum())
    dtype = np.int32 if max(nnz, *shape) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=dtype)
    # A copied span keeps its order and moves by its row's start shift.
    copied = np.ones(n_src_old, dtype=bool)
    copied[grown] = False
    copied = np.repeat(copied, old_counts)
    shift = np.repeat(indptr[:n_src_old] - old_indptr[:-1].astype(np.int64), old_counts)
    indices[(np.arange(len(old_indices)) + shift)[copied]] = old_indices[copied]
    n_listed = int(listed.sum())
    shift = np.repeat(indptr[relisted] - (np.cumsum(listed) - listed), listed)
    indices[np.arange(n_listed) + shift] = destination.rows_in(lo, hi)
    _BUILT.inc()
    return StepPair(
        forward=_row_normalized(indptr, indices, shape),
        backward=_column_normalized(indptr, indices, shape),
    )


def build_step(db: Any, step: Any) -> StepPair:
    """Both matrices of ``step`` (a :class:`repro.reldb.joins.JoinStep`)
    over the full relations of ``db`` (a :class:`repro.reldb.Database`):
    the extension of the empty pair."""
    return extend_step(db, step, _EMPTY_PAIR)


class StepMatrices:
    """The :class:`StepPair` of every step read so far, for one database
    object; a read that finds a step's relations grown extends its pair,
    and a read at another database starts over."""

    def __init__(self) -> None:
        self._db: Any = None
        self._pairs: dict[Any, StepPair] = {}

    def get(self, db: Any, step: Any) -> StepPair:
        if db is not self._db:
            self._db, self._pairs = db, {}
        pair = self._pairs.get(step, _EMPTY_PAIR)
        rows = (len(db.table(step.src_relation)), len(db.table(step.dst_relation)))
        if pair.shape != rows:
            pair = self._pairs[step] = extend_step(db, step, pair)
        return pair

    def __len__(self) -> int:
        return len(self._pairs)
