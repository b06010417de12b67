"""Greedy single-reference assignment: the ingest fast path.

The exact delta-ingest ladder (:mod:`repro.ingest.engine`) reproduces a
cold refit byte-for-byte; this module is the cheap approximation the
``--mode greedy`` switch selects: assign each new reference to the most
similar existing cluster (the merge loop's own
:class:`~repro.cluster.composite.CompositeMeasure`, one slot per
cluster, and ``min_sim`` cutoff) without revisiting any previous merge.

Greedy assignment can disagree with a cold refit (an arrival that would
have changed an early merge is pinned to the old dendrogram); the
equivalence tests check that references the batch engine placed
confidently are assigned identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.composite import CompositeMeasure
from repro.core.distinct import Distinct, NameResolution
from repro.core.references import exclusions_for_name
from repro.errors import NotFittedError
from repro.obs import counter

__all__ = ["Assignment", "extend_resolution"]

_ASSIGNED = counter("ingest.greedy.assigned")
_NEW_CLUSTERS = counter("ingest.greedy.new_clusters")


@dataclass
class Assignment:
    """Where one new reference went."""

    row: int
    cluster_index: int
    similarity: float
    created_new_cluster: bool


def extend_resolution(
    distinct: Distinct,
    resolution: NameResolution,
    new_rows: list[int],
    min_sim: float | None = None,
) -> tuple[NameResolution, list[Assignment]]:
    """Assign ``new_rows`` to the clusters of an existing resolution.

    Returns a new :class:`NameResolution` (the input is not mutated) and the
    per-row assignment record. New rows are processed in order; a row
    assigned to a cluster is visible to subsequent rows.

    The pairs every new row forms with the rows before it do not depend on
    the assignments, so their features are computed up front, in one
    batch under the name's exclusions (:meth:`Distinct.pair_features`).
    """
    if distinct.db is None or distinct.paths_ is None:
        raise NotFittedError("fit the pipeline before extending a resolution")
    if resolution.resem_matrix is None:
        raise ValueError("resolution carries no pair matrices; re-resolve the name")
    config = distinct.config
    min_sim = config.min_sim if min_sim is None else min_sim

    rows = list(resolution.rows)
    for k, new_row in enumerate(new_rows):
        if new_row in rows or new_row in new_rows[:k]:
            raise ValueError(f"reference row {new_row} already resolved")
    pairs = np.array(
        [
            (new_row, row)
            for k, new_row in enumerate(new_rows)
            for row in rows + list(new_rows[:k])
        ],
        dtype=np.int64,
    )
    features = distinct.pair_features(
        exclusions_for_name(distinct.db, resolution.name, config), pairs
    )
    # Each arrival's pairs, one per row before it, are the lower
    # triangle's entries past the old block, in ``np.tril_indices`` order.
    n_old, n = len(rows), len(rows) + len(new_rows)
    lower, upper = (ix[n_old * (n_old - 1) // 2 :] for ix in np.tril_indices(n, k=-1))
    resem, walk = np.zeros((2, n, n))
    resem[:n_old, :n_old] = resolution.resem_matrix
    walk[:n_old, :n_old] = resolution.walk_matrix
    resem[lower, upper], walk[lower, upper] = features.combined(
        *distinct.combiners(features.paths)
    )
    resem[upper, lower], walk[upper, lower] = resem[lower, upper], walk[lower, upper]

    # Each old cluster's members fold into its first, in set order.
    index_of = {row: i for i, row in enumerate(rows)}
    measure = CompositeMeasure(resem, walk)
    clusters = [set(c) for c in resolution.clusters]
    slots = []
    for cluster in clusters:
        first, *rest = (index_of[row] for row in cluster)
        for member in rest:
            measure.merge(first, member)
        slots.append(first)

    assignments: list[Assignment] = []
    for k, new_row in enumerate(new_rows):
        slot = n_old + k
        sims = measure.similarities(slot)[slots]  # each >= 0
        best_cluster = int(np.argmax(sims))  # the first of the largest
        best_sim = float(sims[best_cluster])
        created = best_sim <= 0.0 or best_sim < min_sim
        if created:
            clusters.append({new_row})
            slots.append(slot)
            best_cluster = len(clusters) - 1
            _NEW_CLUSTERS.inc()
        else:
            clusters[best_cluster].add(new_row)
            measure.merge(slots[best_cluster], slot)
        _ASSIGNED.inc()
        assignments.append(
            Assignment(new_row, best_cluster, best_sim, created_new_cluster=created)
        )

    extended = NameResolution(
        name=resolution.name,
        rows=rows + list(new_rows),
        clusters=clusters,
        clustering=None,  # greedy assignment keeps no merge history
        features=None,
        resem_matrix=resem,
        walk_matrix=walk,
    )
    return extended, assignments

