"""Enumerate the join paths used as similarity dimensions.

Starting from the relation holding the references (``Publish`` in DBLP), we
walk the schema graph and emit every path that can carry linkage semantics,
subject to pruning rules:

- **max_hops** bounds path length (the paper speaks of linkages "within a
  certain number of steps"); every prefix of an emitted path is also emitted,
  since e.g. the coauthor path is a prefix of the coauthor-of-coauthor path
  and both are distinct features.
- **Degenerate backtracking** is pruned: re-crossing a one-to-many step with
  its many-to-one inverse can only land back on the tuple just visited
  (paper -> its authorship rows -> the same paper), so it adds nothing.
  Re-crossing a many-to-one step with its one-to-many inverse fans out to
  *siblings* (authorship row -> paper -> all authorship rows of that paper)
  and is the essential move of the coauthor path, so it is allowed — but
  counted, and **max_sibling_expansions** bounds it per path to keep the
  path set small and meaningful.
- **Virtual relations are terminal**: a path may end at a virtualized
  attribute value (publisher, year, ...) but not travel through it. Walking
  through a popular value (every paper of the year 2003) produces enormous
  fan-out with near-zero semantic content.
- Optionally, a path must not revisit its start relation as an *intermediate*
  stop more than ``max_start_revisits`` times (the coauthor-of-coauthor path
  passes through ``Publish`` twice).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import counter, get_logger, span
from repro.paths.joinpath import JoinPath
from repro.reldb.joins import JoinStep, steps_from
from repro.reldb.schema import Schema
from repro.reldb.virtual import is_virtual_relation

log = get_logger("paths.enumerate")
_PATHS_ENUMERATED = counter("paths.enumerated")


@dataclass(frozen=True)
class PathEnumerationConfig:
    """Tuning knobs for :func:`enumerate_paths`.

    The defaults produce, on the DBLP schema, the path families the paper
    discusses: paper, coauthor, coauthor-of-coauthor, proceedings,
    conference, year, location, publisher, and conference-sibling paths.
    """

    max_hops: int = 7
    max_sibling_expansions: int = 3
    max_start_revisits: int = 2

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.max_sibling_expansions < 0:
            raise ValueError("max_sibling_expansions must be >= 0")


def enumerate_paths(
    schema: Schema,
    start_relation: str,
    config: PathEnumerationConfig | None = None,
) -> list[JoinPath]:
    """All admissible join paths from ``start_relation``, shortest first.

    Ties in length are broken by signature so the output order (and thus
    feature order downstream) is deterministic.
    """
    config = config or PathEnumerationConfig()
    schema.relation(start_relation)  # raises if unknown

    with span("paths.enumerate", start=start_relation) as sp:
        results: list[JoinPath] = []
        frontier: list[JoinPath] = [
            JoinPath([step]) for step in steps_from(schema, start_relation)
        ]

        while frontier:
            next_frontier: list[JoinPath] = []
            for path in frontier:
                results.append(path)
                if path.length >= config.max_hops:
                    continue
                if is_virtual_relation(path.end_relation):
                    continue
                last = path.steps[-1]
                for step in steps_from(schema, path.end_relation):
                    if not _admissible(path, last, step, config):
                        continue
                    next_frontier.append(path.extend(step))
            frontier = next_frontier

        results.sort(key=lambda p: (p.length, p.signature()))
        sp.annotate(n_paths=len(results), max_hops=config.max_hops)
    _PATHS_ENUMERATED.inc(len(results))
    log.debug("enumerated %d paths from %s", len(results), start_relation)
    return results


def _admissible(
    path: JoinPath, last: JoinStep, step: JoinStep, config: PathEnumerationConfig
) -> bool:
    if step.is_reverse_of(last):
        if last.cardinality == "1n":
            return False  # degenerate backtrack: can only return to the parent
        if path.sibling_expansions() + 1 > config.max_sibling_expansions:
            return False
    if step.dst_relation == path.start_relation:
        revisits = path.relation_sequence()[1:].count(path.start_relation) + 1
        if revisits > config.max_start_revisits:
            return False
    return True
