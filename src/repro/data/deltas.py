"""Base/delta splits of a synthetic world, for delta-ingest testing.

:func:`split_world` carves the last ``n_delta_papers`` papers of a
:class:`~repro.data.world.World` into a :class:`~repro.reldb.Delta` and
builds the database for the remaining prefix, such that

    ``apply_delta(base_db, delta)`` == ``world_to_database(world)``

byte-for-byte: same row ids per relation, same virtual-relation rows in
the same first-seen order. This is the substrate both the delta-ingest
property tests and ``pipebench``'s ``ingest-stream`` workload stand on —
the cold refit and the incremental path literally see the same database.

The guarantee holds because :func:`~repro.data.world.world_to_database`
inserts Authors and Conferences from the entity/conference lists (not the
papers), and everything paper-driven (Proceedings first-use, Publications,
Publish, Cites) in paper order — so the suffix papers' rows are exactly
the suffix of each table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.data.dblp_schema import CITES, PROCEEDINGS, PUBLICATIONS, PUBLISH
from repro.data.world import (
    GroundTruth,
    Paper,
    World,
    _LOCATIONS,
    world_to_database,
)
from repro.reldb.database import Database
from repro.reldb.delta import Delta

__all__ = ["WorldSplit", "grow_world", "split_world"]


def grow_world(
    world: World,
    n_papers: int,
    seed: int = 0,
    author_pool: list[int] | None = None,
) -> World:
    """A copy of ``world`` with ``n_papers`` extra papers appended.

    The new papers reuse (conference, year) pairs the first author has
    already published in, so ``split_world(grown, n_papers)`` yields a
    delta with **no new Proceedings rows** — and therefore no
    perturbation of the proceedings/year/location hub fanouts that
    couple otherwise-distant references. Its blast radius stays local to
    the chosen authors' neighborhoods, which is what both the localized
    property-test cases and the benchmark's "crawl increment" scenario
    need (a suffix split of a raw generated world instead tends to mint
    new proceedings and dirty nearly every reference).

    ``author_pool`` restricts who writes the new papers (entity ids;
    default: every entity that already has a paper). Papers get 1–3
    authors drawn from the pool, deterministic in ``seed``.
    """
    if n_papers < 0:
        raise ValueError(f"n_papers must be >= 0, got {n_papers}")
    rng = random.Random(seed)
    papers_of: dict[int, list[Paper]] = {}
    for paper in world.papers:
        for entity_id in paper.author_entity_ids:
            papers_of.setdefault(entity_id, []).append(paper)
    pool = sorted(papers_of) if author_pool is None else list(author_pool)
    pool = [e for e in pool if e in papers_of]
    if n_papers and not pool:
        raise ValueError("author_pool has no entity with an existing paper")

    next_id = max((p.paper_id for p in world.papers), default=-1) + 1
    grown = list(world.papers)
    for i in range(n_papers):
        first = rng.choice(pool)
        n_authors = min(rng.randint(1, 3), len(pool))
        coauthors = [e for e in pool if e != first]
        rng.shuffle(coauthors)
        authors = (first, *coauthors[: n_authors - 1])
        template = rng.choice(papers_of[first])
        grown.append(
            Paper(
                paper_id=next_id + i,
                title=f"Delta Study {next_id + i}",
                year=template.year,
                conf_id=template.conf_id,
                author_entity_ids=authors,
            )
        )
    return World(
        entities=world.entities,
        conferences=world.conferences,
        papers=grown,
        ambiguous_names=world.ambiguous_names,
    )


@dataclass
class WorldSplit:
    """A world carved into a base database plus one delta batch."""

    base: Database
    delta: Delta
    truth: GroundTruth
    n_base_papers: int
    n_delta_papers: int


def split_world(
    world: World,
    n_delta_papers: int,
    with_citations: bool = False,
    prepared: bool = True,
) -> WorldSplit:
    """Split ``world`` into (base database, delta of the last papers).

    ``truth`` covers the *combined* database (publish row ids match the
    post-delta / cold-build numbering). Raises ``ValueError`` when a base
    paper cites a delta paper — such a world cannot be split at this
    point without breaking referential integrity of the base.
    """
    if not 0 <= n_delta_papers <= len(world.papers):
        raise ValueError(
            f"n_delta_papers must be in [0, {len(world.papers)}], "
            f"got {n_delta_papers}"
        )
    n_base = len(world.papers) - n_delta_papers
    base_papers = world.papers[:n_base]
    delta_papers = world.papers[n_base:]
    if with_citations:
        base_ids = {p.paper_id for p in base_papers}
        for paper in base_papers:
            missing = [c for c in paper.citations if c not in base_ids]
            if missing:
                raise ValueError(
                    f"base paper {paper.paper_id} cites delta papers "
                    f"{missing}; move the split point later"
                )

    base_world = World(
        entities=world.entities,
        conferences=world.conferences,
        papers=base_papers,
        ambiguous_names=world.ambiguous_names,
    )
    base_db, _ = world_to_database(
        base_world, with_citations=with_citations, prepared=prepared
    )

    # Reconstruct the cold build's bookkeeping over the prefix, then emit
    # the suffix rows in exactly the order world_to_database would.
    author_row_of_name: dict[str, int] = {}
    for entity in world.entities:
        if entity.name not in author_row_of_name:
            author_row_of_name[entity.name] = len(author_row_of_name)
    proc_key_of: dict[tuple[int, int], int] = {}
    for paper in base_papers:
        pair = (paper.conf_id, paper.year)
        if pair not in proc_key_of:
            proc_key_of[pair] = len(proc_key_of)

    delta = Delta()
    for paper in delta_papers:
        pair = (paper.conf_id, paper.year)
        if pair not in proc_key_of:
            proc_key = len(proc_key_of)
            location = _LOCATIONS[(paper.conf_id * 7 + paper.year) % len(_LOCATIONS)]
            delta.add(PROCEEDINGS, (proc_key, paper.conf_id, paper.year, location))
            proc_key_of[pair] = proc_key
    for paper in delta_papers:
        delta.add(PUBLICATIONS, (paper.paper_id, paper.title, proc_key_of[(paper.conf_id, paper.year)]))
        for entity_id in paper.author_entity_ids:
            entity = world.entity(entity_id)
            delta.add(PUBLISH, (paper.paper_id, author_row_of_name[entity.name]))
    if with_citations:
        for paper in delta_papers:
            for cited in paper.citations:
                delta.add(CITES, (paper.paper_id, cited))

    # Ground truth against combined row numbering (= cold build's).
    entity_of_row: dict[int, int] = {}
    rows_of_name: dict[str, list[int]] = {}
    publish_row = 0
    for paper in world.papers:
        for entity_id in paper.author_entity_ids:
            entity = world.entity(entity_id)
            entity_of_row[publish_row] = entity_id
            rows_of_name.setdefault(entity.name, []).append(publish_row)
            publish_row += 1
    truth = GroundTruth(
        entity_of_row=entity_of_row,
        author_row_of_name=author_row_of_name,
        rows_of_name=rows_of_name,
        entity_labels={
            e.entity_id: " / ".join(e.institutions)
            for e in world.entities
            if e.institutions
        },
    )
    return WorldSplit(
        base=base_db,
        delta=delta,
        truth=truth,
        n_base_papers=n_base,
        n_delta_papers=n_delta_papers,
    )
