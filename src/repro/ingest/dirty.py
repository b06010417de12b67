"""Dirty-row analysis: which existing rows a delta actually touched.

Delta ingest's first invalidation rung. A batch of appended tuples
changes the *filtered partner list* of an existing row ``i`` across a
join step iff some new row of the step's destination relation joins to
``i`` — partner lists only ever grow (indexes are append-only), so the
affected set is found by looking each new row's join value up in the
*source* relation's index. Running that probe over every step of the
configured paths **and every step's reverse** covers both propagation
directions: forward mass splits use the forward partner lists, and the
backward DP's denominators count reverse partners
(:mod:`repro.paths.propagation`).

:func:`touched_row_mask` intersects the affected rows with each
reference's visited trace to find the *dirty references* — the ones
whose profiles can differ from a cold post-delta recompute.
(The step matrices themselves need no row-level invalidation: they
rebuild whole on their first read at the new epoch.)

The probe ignores per-name exclusions, so it is a (tight) superset of
any one name's truly-changed partner lists — conservative in the safe
direction: a reference flagged dirty is recomputed and lands on the same
bytes; a clean reference provably kept its exact walk.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.reldb.database import Database
from repro.reldb.delta import AppliedDelta
from repro.reldb.joins import JoinStep

__all__ = ["affected_rows", "touched_row_mask"]

_AFFECTED = counter("ingest.rows_affected")


def _probe_steps(paths: list[JoinPath]) -> set[JoinStep]:
    """Every distinct step of ``paths``, in both directions."""
    steps: set[JoinStep] = set()
    for path in paths:
        for step in path:
            steps.add(step)
            steps.add(step.reverse())
    return steps


def affected_rows(
    db: Database, paths: list[JoinPath], applied: AppliedDelta
) -> dict[str, set[int]]:
    """Pre-delta rows whose filtered partner lists changed, per relation.

    For each probe step, an *old* source row is affected when one of the
    delta's new destination rows carries its join value. Rows the delta
    itself appended are excluded — no reference walked them before the
    delta, so no trace holds them.
    """
    old_size = {
        relation: len(db.table(relation).rows) - len(applied.new_rows(relation))
        for relation in applied.row_ids
    }
    affected: dict[str, set[int]] = {}
    for step in _probe_steps(paths):
        new_dst = applied.new_rows(step.dst_relation)
        if not new_dst:
            continue
        dst_table = db.table(step.dst_relation)
        dst_pos = dst_table.schema.position(step.dst_attribute)
        src_index = db.index(step.src_relation, step.src_attribute)
        src_old = old_size.get(
            step.src_relation, len(db.table(step.src_relation).rows)
        )
        bucket = affected.setdefault(step.src_relation, set())
        for row_id in new_dst:
            value = dst_table.row(row_id)[dst_pos]
            for src_row in src_index.lookup(value):
                if src_row < src_old:
                    bucket.add(src_row)
    affected = {rel: rows for rel, rows in affected.items() if rows}
    _AFFECTED.inc(sum(len(rows) for rows in affected.values()))
    return affected


def touched_row_mask(
    pattern: sparse.spmatrix, columns: np.ndarray
) -> np.ndarray:
    """True per reference row whose support hits any of ``columns``.

    ``pattern`` is a (references × relation rows) visited pattern (see
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
