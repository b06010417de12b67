"""Dirty-row analysis: which existing rows a delta actually touched.

Delta ingest's first invalidation rung. A batch of appended tuples
changes the partner list of an existing row ``i`` across a join step
iff some new row of the step's destination relation joins to ``i`` —
partner lists only ever grow (tables are append-only), so the affected
set is found by looking the new rows' join-value codes up in the
*source* relation's key column, all at once
(:func:`repro.perf.transitions.grown_partner_rows`, the probe a step
matrix's extension runs too). :func:`affected_rows`
runs that probe once per delta over every step of the configured paths
**and every step's reverse** (:func:`probe_steps`, built once per
path set), which covers both propagation directions:
forward mass splits use the forward partner lists, and the backward
DP's denominators count reverse partners. It lists no row the delta
appended: no reference walked one before the delta, so no trace holds
it.

:func:`touched_row_mask` intersects the affected rows with each
reference's visited trace to find the *dirty references* — the ones
whose profiles can differ from a cold post-delta recompute.

The probe ignores per-name exclusions, so it is a (tight) superset of
any one name's truly-changed partner lists — conservative in the safe
direction: a reference flagged dirty is recomputed and lands on the same
bytes; a clean reference provably kept its exact walk.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.perf.csr import Csr
from repro.perf.transitions import grown_partner_rows
from repro.reldb.database import Database
from repro.reldb.delta import AppliedDelta
from repro.reldb.joins import JoinStep

__all__ = ["affected_rows", "probe_steps", "touched_row_mask"]

_AFFECTED = counter("ingest.rows_affected")


def probe_steps(paths: list[JoinPath]) -> tuple[JoinStep, ...]:
    """Every step of ``paths`` and its reverse, each once: the steps
    :func:`affected_rows` probes."""
    return tuple(dict.fromkeys(
        s for path in paths for step in path for s in (step, step.reverse())
    ))


def affected_rows(
    db: Database, steps: Sequence[JoinStep], applied: AppliedDelta
) -> dict[str, np.ndarray]:
    """Pre-delta rows whose partner lists the delta grew, per relation.

    For every one of ``steps`` (:func:`probe_steps` of the paths) whose
    destination relation ``applied`` grew, an *old* source row grew when
    one of the delta's new destination rows carries its (non-NULL) join
    value. Each value is one relation's rows, sorted and unique; a
    relation with no such row is absent.
    """

    def old_size(relation: str) -> int:
        return len(db.table(relation)) - len(applied.new_rows(relation))

    probed: dict[str, list[np.ndarray]] = {}
    for step in steps:
        if applied.new_rows(step.dst_relation):
            rows = grown_partner_rows(
                db, step, old_size(step.src_relation), old_size(step.dst_relation)
            )
            probed.setdefault(step.src_relation, []).append(rows)
    affected: dict[str, np.ndarray] = {}
    for relation, parts in probed.items():
        rows = np.unique(np.concatenate(parts))
        if len(rows):
            affected[relation] = rows
    _AFFECTED.inc(sum(len(rows) for rows in affected.values()))
    return affected


def touched_row_mask(
    pattern: Csr, columns: np.ndarray, rows: slice | None = None
) -> np.ndarray:
    """True per reference row whose support hits any of ``columns``.

    ``pattern`` is a (references × relation rows) visited pattern (see
    :func:`repro.paths.batch.batch_profile_matrices`'s ``trace``), every
    stored entry a visited tuple, and ``columns`` the rows of that
    relation a delta changed. ``rows`` (a step-1 slice, default all)
    picks the references to report, read straight from the CSR arrays:
    a batch's patterns serve every name it propagated. A False entry
    certifies the reference's walk never crossed a changed tuple, so its
    profiles — and every pair feature built from them — are unchanged.
    Column ids beyond the pattern's width (rows appended by the delta
    itself) are ignored: they cannot appear in a pre-delta walk.
    """
    start, stop, _ = (rows or slice(None)).indices(pattern.shape[0])
    bounds = pattern.indptr[start:max(start, stop) + 1]
    columns = np.asarray(columns, dtype=np.int64)
    changed = np.zeros(pattern.shape[1], dtype=bool)
    changed[columns[columns < pattern.shape[1]]] = True
    # Row r is touched iff its span of hits has a True: compare the
    # running count of hits at the span's two ends.
    hits = np.zeros(bounds[-1] - bounds[0] + 1, dtype=np.int64)
    np.cumsum(changed[pattern.indices[bounds[0]:bounds[-1]]], out=hits[1:])
    bounds = bounds - bounds[0]
    return hits[bounds[1:]] > hits[bounds[:-1]]
