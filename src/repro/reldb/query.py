"""Small query helpers over a :class:`Database`.

These are deliberately minimal — select by equality, project, and follow one
join step — because the heavy lifting in DISTINCT happens in the probability
propagation engine, not in ad-hoc queries. They are still handy for data
loading, examples, and tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.reldb.database import Database
from repro.reldb.joins import JoinStep


def select(
    db: Database,
    relation: str,
    where: dict[str, object] | None = None,
    predicate: Callable[[dict[str, object]], bool] | None = None,
) -> Iterator[int]:
    """Yield row ids of ``relation`` matching all equality conditions.

    When ``where`` has exactly one condition, the per-column key column is
    used; otherwise the narrowest indexed condition prefilters and the rest
    are checked per row. ``predicate`` (over the row-as-dict) is applied last.
    """
    table = db.table(relation)
    where = dict(where or {})

    candidate_ids: Iterator[int]
    if where:
        # Prefilter on the most selective condition via its index.
        best_attr = min(where, key=lambda a: db.index(relation, a).count(where[a]))
        best_value = where.pop(best_attr)
        candidate_ids = iter(db.index(relation, best_attr).lookup(best_value))
    else:
        candidate_ids = iter(range(len(table)))

    positions = {attr: table.schema.position(attr) for attr in where}
    for row_id in candidate_ids:
        row = table.row(row_id)
        if any(row[pos] != where[attr] for attr, pos in positions.items()):
            continue
        if predicate is not None and not predicate(table.as_dict(row_id)):
            continue
        yield row_id


def project(db: Database, relation: str, row_ids: list[int], attribute: str) -> list[object]:
    """Values of ``attribute`` for the given rows, in order."""
    table = db.table(relation)
    pos = table.schema.position(attribute)
    return [table.row(rid)[pos] for rid in row_ids]


def follow(db: Database, step: JoinStep, row_id: int) -> list[int]:
    """Row ids in ``step.dst_relation`` joinable with one source row."""
    src = db.table(step.src_relation)
    value = src.row(row_id)[src.schema.position(step.src_attribute)]
    if value is None:
        return []
    return list(db.index(step.dst_relation, step.dst_attribute).lookup(value))


def count_rows(db: Database, relation: str, where: dict[str, object]) -> int:
    """Number of rows matching the equality conditions."""
    return sum(1 for _ in select(db, relation, where))
