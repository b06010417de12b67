"""The Database: schema + tables + indexes + integrity checking."""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import IntegrityError, UnknownRelationError
from repro.reldb.index import HashIndex
from repro.reldb.schema import RelationSchema, Schema
from repro.reldb.table import Table


class Database:
    """An in-memory relational database.

    Holds one :class:`Table` per relation in the schema and builds
    :class:`HashIndex` objects lazily per (relation, attribute) as join
    machinery asks for them. The schema is validated on construction.

    ``epoch`` is a monotonically increasing batch counter: it starts at 0
    and is bumped once per :func:`repro.reldb.delta.apply_delta` batch.
    Caches that compile against the row set (the join-step matrices of
    :class:`repro.perf.transitions.StepMatrices`) record the epoch they
    were built at and rebuild on a read at any other, so a delta can
    never be silently ignored.
    """

    def __init__(self, schema: Schema) -> None:
        schema.validate()
        self.schema = schema
        self.tables: dict[str, Table] = {
            name: Table(rel) for name, rel in schema.relations.items()
        }
        self._indexes: dict[tuple[str, str], HashIndex] = {}
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

    def index(self, relation: str, attribute: str) -> HashIndex:
        """The hash index on ``relation.attribute`` (built/refreshed on demand)."""
        key = (relation, attribute)
        idx = self._indexes.get(key)
        if idx is None:
            idx = HashIndex(self.table(relation), attribute)
            self._indexes[key] = idx
        elif idx.stale:
            idx.refresh()
        return idx

    # -- integrity --------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify every foreign-key value references an existing target row.

        Raises :class:`IntegrityError` on the first dangling reference.
        ``None`` FK values are treated as nullable and skipped.
        """
        for fk in self.schema.foreign_keys:
            src = self.table(fk.src_relation)
            dst_index = self.index(fk.dst_relation, fk.dst_attribute)
            pos = src.schema.position(fk.src_attribute)
            for row_id, row in enumerate(src.rows):
                value = row[pos]
                if value is None:
                    continue
                if dst_index.count(value) == 0:
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
