"""Greedy single-reference assignment: the ingest fast path.

The exact delta-ingest ladder (:mod:`repro.ingest.engine`) reproduces a
cold refit byte-for-byte; this module is the cheap approximation the
``--mode greedy`` switch selects: assign each new reference to the most
similar existing cluster (same composite measure, same ``min_sim``
cutoff) without revisiting any previous merge. It is the online
counterpart of §4.2's incremental aggregates.

Greedy assignment can disagree with a cold refit (an arrival that would
have changed an early merge is pinned to the old dendrogram); the
equivalence tests check that references the batch engine placed
confidently are assigned identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distinct import Distinct, NameResolution
from repro.core.features import compute_pair_features
from repro.errors import NotFittedError
from repro.obs import counter
from repro.similarity.combine import geometric_mean

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
    batch, by the builder and route :meth:`Distinct.prepare` uses.
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
    pairs = [
        (new_row, row)
        for k, new_row in enumerate(new_rows)
        for row in rows + list(new_rows[:k])
    ]
    features = compute_pair_features(distinct.profile_builder(resolution.name), pairs)
    all_resem, all_walk = distinct._combined_pair_values(features, True)

    clusters = [set(c) for c in resolution.clusters]
    index_of = {row: i for i, row in enumerate(rows)}
    resem = resolution.resem_matrix.copy()
    walk = resolution.walk_matrix.copy()
    assignments: list[Assignment] = []

    start = 0
    for new_row in new_rows:
        # This row's pairs, one per row before it, in ``rows`` order.
        resem_vals = all_resem[start : start + len(rows)]
        walk_vals = all_walk[start : start + len(rows)]
        start += len(rows)

        best_cluster = -1
        best_sim = 0.0
        for idx, cluster in enumerate(clusters):
            # pair k corresponds to rows[k], so cluster members map to their
            # positions in `rows`.
            member_idx = [index_of[r] for r in cluster]
            r_sum = float(sum(resem_vals[i] for i in member_idx))
            w_sum = float(sum(walk_vals[i] for i in member_idx))
            avg_resem = r_sum / len(cluster)
            coll_walk = 0.5 * (w_sum / 1 + w_sum / len(cluster))
            sim = geometric_mean(avg_resem, coll_walk)
            if sim > best_sim:
                best_sim = sim
                best_cluster = idx

        created = best_cluster < 0 or best_sim < min_sim
        if created:
            clusters.append({new_row})
            best_cluster = len(clusters) - 1
            _NEW_CLUSTERS.inc()
        else:
            clusters[best_cluster].add(new_row)
        _ASSIGNED.inc()
        assignments.append(
            Assignment(new_row, best_cluster, best_sim, created_new_cluster=created)
        )

        # Grow the pair matrices so later rows see this one.
        n = len(rows)
        resem = np.pad(resem, ((0, 1), (0, 1)))
        walk = np.pad(walk, ((0, 1), (0, 1)))
        for i in range(n):
            resem[n, i] = resem[i, n] = resem_vals[i]
            walk[n, i] = walk[i, n] = walk_vals[i]
        index_of[new_row] = n
        rows.append(new_row)

    extended = NameResolution(
        name=resolution.name,
        rows=rows,
        clusters=clusters,
        clustering=resolution.clustering,
        features=None,
        resem_matrix=resem,
        walk_matrix=walk,
    )
    return extended, assignments
