"""The Database: schema + tables + integer key columns + integrity checking."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import IntegrityError, UnknownRelationError
from repro.reldb.index import NULL_CODE, KeyColumn, ValueCodes
from repro.reldb.schema import RelationSchema, Schema
from repro.reldb.table import Table


class Database:
    """An in-memory relational database.

    Holds one :class:`Table` per relation in the schema and codes a
    :class:`~repro.reldb.index.KeyColumn` lazily per (relation,
    attribute) as join machinery asks for one, all through the one
    :class:`~repro.reldb.index.ValueCodes` dict of this database, so
    equal values in different columns share a code. The schema is
    validated on construction.

    ``epoch`` is a monotonically increasing batch counter: it starts at 0
    and is bumped once per :func:`repro.reldb.delta.apply_delta` batch;
    ingest reports and checkpoints name the batch by it. Caches that
    compile against the row set do not key on it: tables are
    append-only, so the join-step matrices of
    :class:`repro.perf.transitions.StepMatrices` record the row counts
    they cover and extend by the appended rows on a read that finds a
    relation grown, whether the rows came from a delta or from
    :meth:`insert`.
    """

    def __init__(self, schema: Schema) -> None:
        schema.validate()
        self.schema = schema
        self.tables: dict[str, Table] = {
            name: Table(rel) for name, rel in schema.relations.items()
        }
        self._value_codes = ValueCodes()
        self._indexes: dict[tuple[str, str], KeyColumn] = {}
        self.epoch: int = 0

    # -- data access ------------------------------------------------------

    def table(self, relation: str) -> Table:
        if relation not in self.tables:
            raise UnknownRelationError(relation)
        return self.tables[relation]

    def insert(self, relation: str, row: Iterable[object]) -> int:
        return self.table(relation).insert(row)

    def insert_many(self, relation: str, rows: Iterable[Iterable[object]]) -> list[int]:
        return self.table(relation).insert_many(rows)

    def index(self, relation: str, attribute: str) -> KeyColumn:
        """The key column of ``relation.attribute`` (coded on demand,
        refreshed when the table has grown)."""
        key = (relation, attribute)
        idx = self._indexes.get(key)
        if idx is None:
            idx = KeyColumn(self.table(relation), attribute, self._value_codes)
            self._indexes[key] = idx
        elif idx.stale:
            idx.refresh()
        return idx

    # -- integrity --------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify every foreign-key value references an existing target row.

        Raises :class:`IntegrityError` on the first dangling reference.
        ``None`` FK values are treated as nullable and skipped. Each
        foreign key is one membership test of the source column's codes
        in the target column's.
        """
        for fk in self.schema.foreign_keys:
            codes = self.index(fk.src_relation, fk.src_attribute).codes
            lo, hi = self.index(fk.dst_relation, fk.dst_attribute).spans(codes)
            dangling = np.flatnonzero((lo == hi) & (codes != NULL_CODE))
            if len(dangling):
                row_id = int(dangling[0])
                value = self.table(fk.src_relation).value(row_id, fk.src_attribute)
                raise IntegrityError(
                    f"dangling foreign key {fk}: row {row_id} of "
                    f"{fk.src_relation} references missing {value!r}"
                )

    # -- schema evolution (used by virtualization) -------------------------

    def add_relation(self, relation: RelationSchema) -> Table:
        """Add a new (empty) relation to a live database."""
        self.schema.add_relation(relation)
        table = Table(relation)
        self.tables[relation.name] = table
        return table

    # -- stats / display ----------------------------------------------------

    def relation_sizes(self) -> dict[str, int]:
        return {name: len(table) for name, table in self.tables.items()}

    def summary(self) -> str:
        """A short human-readable description of the database contents."""
        lines = [f"Database with {len(self.tables)} relations:"]
        for name in sorted(self.tables):
            lines.append(f"  {name}: {len(self.tables[name])} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:
        total = sum(len(t) for t in self.tables.values())
        return f"Database({len(self.tables)} relations, {total} rows)"
