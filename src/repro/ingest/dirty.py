"""Dirty-row analysis: which existing rows a delta actually touched.

Delta ingest's first invalidation rung. A batch of appended tuples
changes the *filtered partner list* of an existing row ``i`` across a
join step iff some new row of the step's destination relation joins to
``i`` — partner lists only ever grow (indexes are append-only), so the
affected set is found by looking each new row's join value up in the
*source* relation's index (:func:`repro.perf.transitions
.grown_partner_rows`). :func:`grown_steps` runs that probe once per
delta over every step of the configured paths **and every step's
reverse**, which covers both propagation directions: forward mass
splits use the forward partner lists, and the backward DP's
denominators count reverse partners (:mod:`repro.paths.propagation`).
The same probes tell the step matrices which old rows to re-list
(:meth:`repro.perf.transitions.StepMatrices.extend`), and
:func:`affected_rows` unions them per relation.

:func:`touched_row_mask` intersects the affected rows with each
reference's visited trace to find the *dirty references* — the ones
whose profiles can differ from a cold post-delta recompute.

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
from repro.perf.transitions import GrownRows, grown_partner_rows
from repro.reldb.database import Database
from repro.reldb.delta import AppliedDelta
from repro.reldb.joins import JoinStep

__all__ = ["affected_rows", "grown_steps", "touched_row_mask"]

_AFFECTED = counter("ingest.rows_affected")


def _probe_steps(paths: list[JoinPath]) -> set[JoinStep]:
    """Every distinct step of ``paths``, in both directions."""
    steps: set[JoinStep] = set()
    for path in paths:
        for step in path:
            steps.add(step)
            steps.add(step.reverse())
    return steps


def grown_steps(
    db: Database, paths: list[JoinPath], applied: AppliedDelta
) -> dict[JoinStep, GrownRows]:
    """The probe of every step whose destination relation the delta grew.

    For each probe step, an *old* source row grew when one of the
    delta's new destination rows carries its (non-NULL) join value.
    Rows the delta itself appended are not listed — no reference walked
    them before the delta, so no trace holds them.
    """

    def old_size(relation: str) -> int:
        return len(db.table(relation)) - len(applied.new_rows(relation))

    probes: dict[JoinStep, GrownRows] = {}
    for step in _probe_steps(paths):
        if not applied.new_rows(step.dst_relation):
            continue
        shape = (old_size(step.src_relation), old_size(step.dst_relation))
        probes[step] = GrownRows(shape, grown_partner_rows(db, step, *shape))
    return probes


def affected_rows(probes: dict[JoinStep, GrownRows]) -> dict[str, set[int]]:
    """Pre-delta rows whose filtered partner lists changed, per relation:
    the union of :func:`grown_steps`' probes over each source relation."""
    affected: dict[str, set[int]] = {}
    for step, probe in probes.items():
        affected.setdefault(step.src_relation, set()).update(probe.rows.tolist())
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
