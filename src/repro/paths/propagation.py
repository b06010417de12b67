"""Probability propagation along a join path (§2.2, Fig 3 of the paper):
its definition, and the per-reference exclusions it runs under.

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

- *Excluded* tuples (e.g. the shared ``Authors`` row of the ambiguous
  name) are absent from the database for both passes — they are dropped
  from partner lists, numerator and denominator alike, so that two
  same-name references never look similar merely by carrying the same
  name. Exclusions belong to the reference, not to the run: each
  reference of a batch carries its own name's.
- The *origin* tuple is excluded as an intermediate stop (levels >= 1 of the
  forward pass, and as a gathering partner into intermediate levels of the
  backward pass) but is of course the allowed endpoint of the backward walk.

:mod:`repro.paths.batch` computes both passes for any set of references,
of one name or many, at once, as sparse matrix products over a
pipeline's shared step matrices (:class:`repro.perf.transitions
.StepMatrices`), with both kinds of exclusion applied as per-reference
corrections; :meth:`repro.paths.profiles.ProfileBuilder.matrices_for`
is the pipeline's one way into it. The test suite's scalar
oracle (``tests/oracle.py``) walks one reference at a time over Python
dicts, the definition above read literally.
"""

from __future__ import annotations

from collections.abc import Mapping

#: Relation name -> row ids treated as absent.
Exclusions = Mapping[str, frozenset[int]]


def make_exclusions(**relation_rows: set[int] | frozenset[int]) -> dict[str, frozenset[int]]:
    """Convenience constructor: ``make_exclusions(Publish={3}, Authors={7})``."""
    return {name: frozenset(rows) for name, rows in relation_rows.items()}
