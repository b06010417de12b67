"""Reference extraction: locating the rows that carry one name.

In the DBLP schema a *reference* is a row of ``Publish``; all references to
one name share the single ``Authors`` row holding that name, so extraction
is one index lookup on ``Authors.name`` followed by one on
``Publish.author_key``. The shared ``Authors`` row is also what must be
excluded from propagation (DESIGN.md §6), which
:func:`exclusions_for_name` packages up; :func:`live_paths` drops the
join paths that exclusion empties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DistinctConfig
from repro.errors import ReproError
from repro.paths.joinpath import JoinPath
from repro.reldb.database import Database


@dataclass
class NameReferences:
    """The references carrying one name: the rows to cluster."""

    name: str
    rows: list[int]
    object_rows: list[int]  # Authors rows holding this name (normally one)

    def __len__(self) -> int:
        return len(self.rows)


def extract_references(
    db: Database, name: str, config: DistinctConfig | None = None
) -> NameReferences:
    """All reference rows whose object carries ``name``.

    Raises :class:`ReproError` if the name does not occur at all.
    """
    config = config or DistinctConfig()
    objects = db.table(config.object_relation)
    name_index = db.index(config.object_relation, config.name_attribute)
    object_rows = list(name_index.lookup(name))
    if not object_rows:
        raise ReproError(f"no {config.object_relation} row carries name {name!r}")

    key_pos = objects.schema.position(config.object_key)
    ref_index = db.index(config.reference_relation, config.object_key)
    rows: list[int] = []
    for object_row in object_rows:
        rows.extend(ref_index.lookup(objects.row(object_row)[key_pos]))
    rows.sort()
    return NameReferences(name=name, rows=rows, object_rows=object_rows)


def exclusions_for_name(
    db: Database, name: str, config: DistinctConfig | None = None
) -> dict[str, frozenset[int]]:
    """Propagation exclusions for resolving ``name``: its object row(s)."""
    config = config or DistinctConfig()
    refs = extract_references(db, name, config)
    return {config.object_relation: frozenset(refs.object_rows)}


def live_paths(
    paths: list[JoinPath], config: DistinctConfig | None = None
) -> list[JoinPath]:
    """``paths`` without those the exclusion rule empties at the first hop.

    A path whose first step joins the reference relation to the object
    relation on ``object_key`` reaches only the reference's own object.
    Every profile builder excludes the object rows of the references it
    profiles (:func:`exclusions_for_name`, and their union for pooled
    names), so such a path carries no mass: both of its features are 0
    for every pair, by construction rather than by data.
    """
    config = config or DistinctConfig()
    own_object = (
        config.reference_relation,
        config.object_key,
        config.object_relation,
        config.object_key,
    )
    live = []
    for path in paths:
        first = path.steps[0]
        join = (first.src_relation, first.src_attribute, first.dst_relation,
                first.dst_attribute)
        if join != own_object:
            live.append(path)
    return live


def reference_counts_by_name(
    db: Database, config: DistinctConfig | None = None
) -> dict[str, int]:
    """name -> number of references, over every named object in the database."""
    config = config or DistinctConfig()
    objects = db.table(config.object_relation)
    key_pos = objects.schema.position(config.object_key)
    name_pos = objects.schema.position(config.name_attribute)
    ref_index = db.index(config.reference_relation, config.object_key)
    counts: dict[str, int] = {}
    for row in objects.rows:
        name = row[name_pos]
        counts[name] = counts.get(name, 0) + ref_index.count(row[key_pos])
    return counts
