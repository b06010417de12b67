"""Delta ingestion: apply a batch of new tuples to a live database.

The paper's workload is a live bibliographic DB — papers and authorships
arrive continuously — yet rebuilding the :class:`~repro.reldb.database.Database`
per batch is O(world). A :class:`Delta` is the unit of change: new rows per
base relation, applied in one shot by :func:`apply_delta`, which

- appends the rows (row ids are stable: tables are append-only),
- extends every virtual relation (``_v_Rel_attr``) with values the batch
  introduces, preserving the first-seen order a cold
  :func:`~repro.reldb.virtual.virtualize_attribute` build would produce,
- verifies referential integrity of the new rows only (old rows cannot
  become dangling — nothing is ever deleted), and
- bumps ``db.epoch``, the batch number ingest reports and checkpoints
  carry (caches key on row counts, not on the epoch).

The order guarantee is what makes delta ingest byte-identical to a cold
rebuild: applying ``base`` then ``delta`` yields exactly the same row ids
(including virtual relations) as building the combined database at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import IntegrityError, PersistenceError, SchemaError
from repro.obs import counter
from repro.reldb.database import Database
from repro.reldb.virtual import is_virtual_relation

__all__ = ["AppliedDelta", "Delta", "apply_delta", "load_delta", "save_delta"]

DELTA_FORMAT_VERSION = 1

_ROWS_ADDED = counter("ingest.rows_added")


@dataclass
class Delta:
    """A batch of new tuples, keyed by base-relation name.

    Row order (dict insertion order across relations, list order within a
    relation) is part of the value: it fixes the row ids and the
    first-seen order of new virtual-relation values.
    """

    rows: dict[str, list[tuple]] = field(default_factory=dict)

    def add(self, relation: str, row: tuple) -> None:
        self.rows.setdefault(relation, []).append(tuple(row))

    @property
    def relations(self) -> list[str]:
        return [rel for rel, rows in self.rows.items() if rows]

    def n_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def is_empty(self) -> bool:
        return self.n_rows() == 0


@dataclass
class AppliedDelta:
    """What :func:`apply_delta` did: the new epoch and the row ids added
    per relation (including virtual relations extended as a side effect)."""

    epoch: int
    row_ids: dict[str, list[int]] = field(default_factory=dict)

    def n_rows(self) -> int:
        return sum(len(ids) for ids in self.row_ids.values())

    def new_rows(self, relation: str) -> list[int]:
        return self.row_ids.get(relation, [])


def apply_delta(db: Database, delta: Delta) -> AppliedDelta:
    """Apply ``delta`` to ``db`` in place; return the rows added.

    Raises
    ------
    SchemaError
        If a delta relation is unknown or targets a virtual relation
        (virtual rows are derived, never inserted directly).
    IntegrityError
        If a new row has wrong arity, duplicates a primary key, or
        references a missing foreign-key target.
    """
    for relation in delta.rows:
        if relation not in db.schema:
            raise SchemaError(f"delta targets unknown relation {relation!r}")
        if is_virtual_relation(relation):
            raise SchemaError(
                f"delta may not insert into virtual relation {relation!r}; "
                "virtual rows are derived from base attributes"
            )

    applied = AppliedDelta(epoch=db.epoch + 1)
    for relation, rows in delta.rows.items():
        if not rows:
            continue
        ids = applied.row_ids.setdefault(relation, [])
        table = db.table(relation)
        for row in rows:
            ids.append(table.insert(row))
        _extend_virtual(db, relation, ids, applied)

    _check_new_rows(db, applied)
    _ROWS_ADDED.inc(applied.n_rows())
    db.epoch = applied.epoch
    return applied


def _extend_virtual(
    db: Database, relation: str, new_rows: list[int], applied: AppliedDelta
) -> None:
    """Append first-seen new values of virtualized attributes of ``relation``.

    Mirrors :func:`repro.reldb.virtual.virtualize_attribute`: values are
    scanned in row order, so base-then-delta application reproduces the
    cold build's virtual row ids exactly.
    """
    table = db.table(relation)
    for fk in db.schema.foreign_keys_from(relation):
        if not is_virtual_relation(fk.dst_relation):
            continue
        vtable = db.table(fk.dst_relation)
        pos = table.schema.position(fk.src_attribute)
        for row_id in new_rows:
            value = table.rows[row_id][pos]
            if value is None or vtable.row_by_key(value) is not None:
                continue
            vid = vtable.insert((value,))
            applied.row_ids.setdefault(fk.dst_relation, []).append(vid)


def _check_new_rows(db: Database, applied: AppliedDelta) -> None:
    """Referential integrity restricted to the rows this delta added.

    Sound because tables are append-only: a pre-existing row that was
    integral stays integral (targets are never removed), so only the new
    rows can dangle.
    """
    for relation, new_rows in applied.row_ids.items():
        table = db.table(relation)
        for fk in db.schema.foreign_keys_from(relation):
            dst_index = db.index(fk.dst_relation, fk.dst_attribute)
            pos = table.schema.position(fk.src_attribute)
            for row_id in new_rows:
                value = table.rows[row_id][pos]
                if value is None:
                    continue
                if dst_index.count(value) == 0:
                    raise IntegrityError(
                        f"delta row {row_id} of {relation} dangles on "
                        f"{fk}: missing {value!r}"
                    )


def save_delta(delta: Delta, path: str | Path) -> None:
    """Write ``delta`` as JSON (row order preserved)."""
    payload = {
        "format_version": DELTA_FORMAT_VERSION,
        "relations": {
            rel: [list(row) for row in rows] for rel, rows in delta.rows.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_delta(path: str | Path) -> Delta:
    """Read a :class:`Delta` written by :func:`save_delta`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "relations" not in payload:
        raise PersistenceError(f"not a delta file: {path}")
    version = payload.get("format_version")
    if version != DELTA_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported delta format_version {version!r} (expected "
            f"{DELTA_FORMAT_VERSION}): {path}"
        )
    return Delta(
        rows={
            rel: [tuple(row) for row in rows]
            for rel, rows in payload["relations"].items()
        }
    )
