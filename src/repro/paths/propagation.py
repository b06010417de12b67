"""Probability propagation along a join path (§2.2, Fig 3 of the paper).

Forward pass — ``Prob_P(r -> t)``: the origin tuple starts with probability
1; at each join step every tuple splits its mass uniformly over its join
partners in the next relation, and partner masses accumulate.

Backward pass — ``Prob_P(t -> r)``: the probability of reaching the origin
from ``t`` by walking the reverse path, where at each reverse step a tuple
splits uniformly over *all* its reverse join partners (partners that cannot
reach the origin absorb and lose that mass). This is a dynamic program over
the forward levels: a tuple can reach the origin backward iff the origin
reached it forward, because both directions use the same join edges.

Two kinds of tuples are treated specially (DESIGN.md §6):

- *Globally excluded* tuples (e.g. the shared ``Authors`` row of the
  ambiguous name) are absent from the database for both passes — they are
  dropped from partner lists, numerator and denominator alike, so that two
  same-name references never look similar merely by carrying the same name.
- The *origin* tuple is excluded as an intermediate stop (levels >= 1 of the
  forward pass, and as a gathering partner into intermediate levels of the
  backward pass) but is of course the allowed endpoint of the backward walk.

This engine walks one reference at a time over Python dicts; it is the
test oracle. The runtime route is :mod:`repro.paths.batch`, which pushes
all references of a name through the same splits as sparse matrix
products over the shared step matrices of :attr:`PropagationEngine
.steps`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.obs import counter
from repro.paths.joinpath import JoinPath
from repro.perf.transitions import StepMatrices
from repro.reldb.database import Database

Exclusions = Mapping[str, frozenset[int]]

#: Work accounting. ``tuples_visited`` counts tuples materialized at each
#: propagation level (forward and backward), in both the per-path and the
#: prefix-shared trie drivers — the dominant cost of profile building.
_RUNS = counter("propagation.runs")
_STEPS = counter("propagation.steps")
_TUPLES_VISITED = counter("propagation.tuples_visited")

_EMPTY_SET: frozenset[int] = frozenset()


@dataclass
class PropagationResult:
    """Outcome of propagating one reference along one path.

    ``forward[t]`` is ``Prob_P(r -> t)`` and ``backward[t]`` is
    ``Prob_P(t -> r)`` for every row id ``t`` of the path's end relation
    reached with non-zero probability. ``level_sizes`` records how many
    distinct tuples were reached at each level (diagnostics / cost
    accounting).
    """

    path: JoinPath
    origin_row: int
    forward: dict[int, float]
    backward: dict[int, float]
    level_sizes: list[int] = field(default_factory=list)

    @property
    def support(self) -> set[int]:
        return set(self.forward)

    def forward_mass(self) -> float:
        """Total forward probability mass at the end relation (<= 1)."""
        return sum(self.forward.values())


class PropagationEngine:
    """Runs forward/backward propagation against one database.

    Parameters
    ----------
    db:
        The database to walk.
    exclusions:
        Relation name -> row ids globally treated as absent.
    exclude_origin:
        If True (default), the origin tuple cannot be used as an
        intermediate stop on the walk (see module docstring).

    ``steps`` is the store of exclusion-free step matrices that batched
    propagation reads. A fresh engine owns an empty one; a pipeline
    points all its engines at one store
    (:meth:`repro.core.distinct.Distinct.profile_builder`), so every name
    shares each step's matrices.
    """

    def __init__(
        self,
        db: Database,
        exclusions: Exclusions | None = None,
        exclude_origin: bool = True,
    ) -> None:
        self.db = db
        self.exclusions = {k: frozenset(v) for k, v in (exclusions or {}).items()}
        self.exclude_origin = exclude_origin
        self.steps = StepMatrices()

    # -- public API ---------------------------------------------------------

    def propagate(self, path: JoinPath, origin_row: int) -> PropagationResult:
        """Propagate from ``origin_row`` of ``path.start_relation`` along ``path``."""
        _RUNS.inc()
        levels = self._forward_levels(path, origin_row)
        backward = self._backward(path, origin_row, levels)
        return PropagationResult(
            path=path,
            origin_row=origin_row,
            forward=levels[-1],
            backward=backward,
            level_sizes=[len(level) for level in levels],
        )

    # -- forward ------------------------------------------------------------

    def _forward_levels(self, path: JoinPath, origin_row: int) -> list[dict[int, float]]:
        start = path.start_relation
        levels: list[dict[int, float]] = [{origin_row: 1.0}]
        for step in path.steps:
            levels.append(self._forward_step(step, levels[-1], start, origin_row))
        return levels

    def _forward_step(
        self,
        step,
        current: dict[int, float],
        start_relation: str,
        origin_row: int,
    ) -> dict[int, float]:
        """Push one level of probability mass across one join step."""
        src_table = self.db.table(step.src_relation)
        src_pos = src_table.schema.position(step.src_attribute)
        dst_index = self.db.index(step.dst_relation, step.dst_attribute)
        excluded = self.exclusions.get(step.dst_relation, _EMPTY_SET)
        drop_origin = self.exclude_origin and step.dst_relation == start_relation

        nxt: dict[int, float] = {}
        for row_id, mass in current.items():
            partners = self._partners(
                step, src_table, src_pos, dst_index, excluded, row_id
            )
            if drop_origin and partners:
                partners = [p for p in partners if p != origin_row]
            if not partners:
                continue
            share = mass / len(partners)
            for partner in partners:
                nxt[partner] = nxt.get(partner, 0.0) + share
        _STEPS.inc()
        _TUPLES_VISITED.inc(len(nxt))
        return nxt

    # -- backward -----------------------------------------------------------

    def _backward(
        self, path: JoinPath, origin_row: int, levels: list[dict[int, float]]
    ) -> dict[int, float]:
        """Dynamic program for ``Prob_P(t -> r)`` over the forward levels."""
        start = path.start_relation
        rev: dict[int, float] = {origin_row: 1.0}
        for k, step in enumerate(path.steps, start=1):
            rev = self._backward_step(
                step,
                levels[k],
                rev,
                start,
                origin_row,
                gather_into_origin_level=(k - 1 == 0),
            )
        return rev

    def _backward_step(
        self,
        step,
        level: dict[int, float],
        prev_rev: dict[int, float],
        start_relation: str,
        origin_row: int,
        gather_into_origin_level: bool,
    ) -> dict[int, float]:
        """One level of the backward DP: rev values for the tuples of
        ``level`` (reached by ``step``) from the previous level's rev values.

        rev at level k depends only on the path's first k steps, so — like
        the forward levels — it is shared between all paths extending the
        same prefix (exploited by :mod:`repro.paths.trie`).
        """
        back = step.reverse()  # relation of level k -> relation of level k-1
        src_table = self.db.table(back.src_relation)
        src_pos = src_table.schema.position(back.src_attribute)
        dst_index = self.db.index(back.dst_relation, back.dst_attribute)
        excluded = self.exclusions.get(back.dst_relation, _EMPTY_SET)
        drop_origin = (
            self.exclude_origin
            and not gather_into_origin_level
            and back.dst_relation == start_relation
        )

        rev: dict[int, float] = {}
        for row_id in level:
            partners = self._partners(
                back, src_table, src_pos, dst_index, excluded, row_id
            )
            if drop_origin and partners:
                partners = [p for p in partners if p != origin_row]
            if not partners:
                continue
            gathered = sum(prev_rev.get(p, 0.0) for p in partners)
            if gathered:
                rev[row_id] = gathered / len(partners)
        _STEPS.inc()
        _TUPLES_VISITED.inc(len(rev))
        return rev

    # -- helpers --------------------------------------------------------------

    def _partners(
        self, step, src_table, src_pos, dst_index, excluded, row_id
    ) -> tuple[int, ...] | list[int]:
        """Exclusion-filtered join partners of one tuple across one step
        (origin-independent; the origin filter is the caller's)."""
        value = src_table.row(row_id)[src_pos]
        if value is None:
            return ()
        found = dst_index.lookup(value)
        if excluded:
            return tuple(p for p in found if p not in excluded)
        return found  # never mutated by callers; avoid the copy


def make_exclusions(**relation_rows: set[int] | frozenset[int]) -> dict[str, frozenset[int]]:
    """Convenience constructor: ``make_exclusions(Publish={3}, Authors={7})``."""
    return {name: frozenset(rows) for name, rows in relation_rows.items()}
