"""Reference extraction: locating the rows that carry one name.

In the DBLP schema a *reference* is a row of ``Publish``; all references to
one name share the single ``Authors`` row holding that name, so extraction
is one index lookup on ``Authors.name`` followed by one on
``Publish.author_key``. The shared ``Authors`` row is also what must be
excluded from propagation (DESIGN.md §6): every reference of a name
propagates under its :attr:`NameReferences.exclusions`, and
:func:`live_paths` drops the join paths that exclusion empties.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.config import DistinctConfig
from repro.errors import ReproError
from repro.paths.joinpath import JoinPath
from repro.paths.propagation import Exclusions
from repro.reldb.database import Database


@dataclass
class NameReferences:
    """The references carrying one name: the rows to cluster, and the
    exclusions each of them propagates under."""

    name: str
    rows: list[int]
    object_rows: list[int]  # Authors rows holding this name (normally one)
    exclusions: Exclusions  # object relation -> the object rows

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def pooled(cls, name: str, members: Sequence["NameReferences"]) -> "NameReferences":
        """``members`` pooled under one pseudo-name: their rows, object
        rows and excluded rows united, as one genuinely shared name would
        carry them."""
        exclusions: dict[str, frozenset[int]] = {}
        for member in members:
            for relation, rows in member.exclusions.items():
                exclusions[relation] = exclusions.get(relation, frozenset()) | rows
        return cls(
            name=name,
            # lint: allow[determinism/unkeyed-sort] row ids are plain int
            rows=sorted(row for member in members for row in member.rows),
            object_rows=[row for member in members for row in member.object_rows],
            exclusions=exclusions,
        )


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
    return NameReferences(
        name=name,
        rows=rows,
        object_rows=object_rows,
        exclusions={config.object_relation: frozenset(object_rows)},
    )


def exclusions_for_name(
    db: Database, name: str, config: DistinctConfig | None = None
) -> Exclusions:
    """Propagation exclusions for resolving ``name``: its object row(s)."""
    return extract_references(db, name, config).exclusions


def live_paths(
    paths: list[JoinPath], config: DistinctConfig | None = None
) -> list[JoinPath]:
    """``paths`` without those the exclusion rule empties at the first hop.

    A path whose first step joins the reference relation to the object
    relation on ``object_key`` reaches only the reference's own object.
    Every reference propagates with the object rows of its name excluded
    (:attr:`NameReferences.exclusions`, and their union for pooled
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


def shared_paths(
    paths: list[JoinPath], config: DistinctConfig | None = None
) -> dict[JoinPath, JoinPath]:
    """Each path of ``paths`` whose features are its prefix's (the path
    without its last step, also in ``paths``), mapped to that prefix.

    Such a path ends by crossing one foreign-key edge from child to
    parent (an ``n1`` step) and coming straight back (its ``1n``
    reverse: the enumerator's sibling expansion). Its last relation is
    not the object relation, nor the reference relation unless the last
    step is the own-object join reversed (object -> reference on
    ``object_key``), which reaches only other names' references.

    Write ``f(t)`` and ``b(t)`` for a reference's forward and backward
    probabilities at a parent ``t`` along the prefix, and ``d(t)`` for
    ``t``'s children. The path gives each child ``c`` of ``t`` the
    values ``f(t) / d(t)`` and ``b(t)``, because:

    - every child has one parent, so the walk back from ``c`` reaches
      ``t`` with probability 1;
    - every re-entered tuple keeps at least the child it came from
      (no excluded row), so ``d(t) >= 1`` and no mass is lost;
    - a child excluded for a reference hangs only under a tuple that
      this reference cannot reach. Exclusions fall only on the object
      relation (a name's object rows) and on the reference relation
      (each reference's origin, which hangs under its own object row,
      excluded by every reference: :attr:`NameReferences.exclusions`
      and their union for pooled names). So every reference reaching
      ``t`` splits it over the same ``d(t)`` children.

    Summed over the children, the set resemblance's ``Σ min`` and
    ``Σ max`` and the walk's ``Σ f b`` are then the prefix's, term by
    term, for any two references, whatever their exclusions.
    """
    config = config or DistinctConfig()
    own_object_reversed = (
        config.object_relation,
        config.object_key,
        config.reference_relation,
        config.object_key,
    )
    shared: dict[JoinPath, JoinPath] = {}
    for path in paths:
        if path.length < 2:
            continue
        before, last = path.steps[-2:]
        join = (last.src_relation, last.src_attribute, last.dst_relation,
                last.dst_attribute)
        prefix = JoinPath(path.steps[:-1])
        if (
            before.cardinality == "n1"
            and last.is_reverse_of(before)
            and last.dst_relation != config.object_relation
            and (last.dst_relation != config.reference_relation
                 or join == own_object_reversed)
            and prefix in paths
        ):
            shared[path] = prefix
    return shared


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
