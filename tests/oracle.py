"""The scalar oracle: the paper's definitions read one reference at a time.

The runtime propagates every reference of a name at once
(:func:`repro.paths.batch.batch_profile_matrices`) and scores all its
pairs with one kernel (:func:`repro.similarity.vectorized
.pair_similarities`). This module is the literal reading the tests hold
that route to:

- :class:`ScalarPropagation` — forward and backward propagation of one
  reference along one join path over Python dicts (§2.2, Fig 3), and
  :func:`propagate_trie`, the same walk sharing prefix work across paths;
- :class:`NeighborProfile` and :class:`ScalarProfileBuilder` — the
  weighted neighbor-tuple set ``NB_P(r)`` of one reference along one
  path, cached per ``(path, origin_row)``;
- :func:`set_resemblance` (Definition 2) and :func:`walk_probability`
  (§2.4) — one (pair, path) value per call;
- :func:`scalar_pair_features` — pair features from all of the above,
  which :func:`repro.core.features.compute_pair_features` must match to
  floating-point reassociation tolerance;
- :func:`profile_matrices` and :func:`weights_for` — conversions between
  profiles and the stacked CSR matrices the runtime works on.

:func:`assert_rows_are_partner_splits` holds a step matrix to the scalar
partner lists (:meth:`ScalarPropagation._partners`, no exclusions) row
by row.

:func:`optimality` measures how far a fitted
:class:`~repro.ml.svm.LinearSVM` is from the squared-hinge optimum.

:func:`heap_merges` is the clustering oracle: the lazy-deletion max-heap
merge loop over the dict-of-dict measures :class:`DictPairMeasure` and
:class:`DictCompositeMeasure`, which the dense-array engine
(:class:`repro.cluster.AgglomerativeClusterer`) must match merge for
merge, similarities byte for byte.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.cluster.dendrogram import Dendrogram, Merge
from repro.core.features import PairFeatures
from repro.ml.svm import GRADIENT_TOL
from repro.paths.batch import BatchedProfiles
from repro.paths.joinpath import JoinPath
from repro.paths.profiles import ProfileBuilder
from repro.paths.propagation import Exclusions, PropagationEngine
from repro.paths.trie import _build_trie, _TrieNode

_EMPTY_SET: frozenset[int] = frozenset()


# -- propagation (§2.2) ---------------------------------------------------------


@dataclass
class PropagationResult:
    """Outcome of propagating one reference along one path.

    ``forward[t]`` is ``Prob_P(r -> t)`` and ``backward[t]`` is
    ``Prob_P(t -> r)`` for every row id ``t`` of the path's end relation
    reached with non-zero probability. ``level_sizes`` records how many
    distinct tuples were reached at each level.
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


class ScalarPropagation(PropagationEngine):
    """Forward/backward propagation of one reference over Python dicts.

    Forward: the origin starts with mass 1; at each join step every
    tuple splits its mass uniformly over its join partners. Backward:
    ``Prob_P(t -> r)`` is a dynamic program over the forward levels,
    each tuple splitting uniformly over *all* its reverse partners.
    Globally excluded tuples are absent from every partner list; the
    origin is no intermediate stop (forward levels >= 1, and gathering
    partners into intermediate backward levels) but is the endpoint of
    the backward walk.

    ``tuples_visited`` counts the tuples materialized at each level,
    forward and backward, as the runtime's
    ``propagation.tuples_visited`` counter does.
    """

    def __init__(self, db, exclusions: Exclusions | None = None) -> None:
        super().__init__(db)
        self.exclusions = {k: frozenset(v) for k, v in (exclusions or {}).items()}
        self.tuples_visited = 0

    def propagate(self, path: JoinPath, origin_row: int) -> PropagationResult:
        """Propagate from ``origin_row`` of ``path.start_relation`` along ``path``."""
        start = path.start_relation
        levels: list[dict[int, float]] = [{origin_row: 1.0}]
        for step in path.steps:
            levels.append(self._forward_step(step, levels[-1], start, origin_row))
        rev: dict[int, float] = {origin_row: 1.0}
        for k, step in enumerate(path.steps, start=1):
            rev = self._backward_step(
                step, levels[k], rev, start, origin_row,
                gather_into_origin_level=(k == 1),
            )
        return PropagationResult(
            path=path,
            origin_row=origin_row,
            forward=levels[-1],
            backward=rev,
            level_sizes=[len(level) for level in levels],
        )

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
        drop_origin = step.dst_relation == start_relation

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
        self.tuples_visited += len(nxt)
        return nxt

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

        rev at level k depends only on the path's first k steps, so it is
        shared between all paths extending the same prefix.
        """
        back = step.reverse()  # relation of level k -> relation of level k-1
        src_table = self.db.table(back.src_relation)
        src_pos = src_table.schema.position(back.src_attribute)
        dst_index = self.db.index(back.dst_relation, back.dst_attribute)
        excluded = self.exclusions.get(back.dst_relation, _EMPTY_SET)
        drop_origin = (
            not gather_into_origin_level and back.dst_relation == start_relation
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
        self.tuples_visited += len(rev)
        return rev

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
        return found


def propagate_trie(
    engine: ScalarPropagation, paths: list[JoinPath], origin_row: int
) -> dict[JoinPath, PropagationResult]:
    """Propagate ``origin_row`` along every path, sharing prefix work.

    The paths are arranged in the runtime's step trie; each trie node
    runs one forward step and one backward-DP step. Results are identical
    to :meth:`ScalarPropagation.propagate` per path.
    """
    if not paths:
        return {}
    starts = {p.start_relation for p in paths}
    if len(starts) > 1:
        raise ValueError(f"paths start at different relations: {sorted(starts)}")
    start_relation = paths[0].start_relation
    results: dict[JoinPath, PropagationResult] = {}

    def visit(node: _TrieNode, levels: list[dict], revs: list[dict]) -> None:
        for path in node.paths:
            results[path] = PropagationResult(
                path=path,
                origin_row=origin_row,
                forward=levels[-1],
                backward=revs[-1],
                level_sizes=[len(level) for level in levels],
            )
        for child in node.children.values():
            level = engine._forward_step(
                child.step, levels[-1], start_relation, origin_row
            )
            rev = engine._backward_step(
                child.step, level, revs[-1], start_relation, origin_row,
                gather_into_origin_level=(len(levels) == 1),
            )
            visit(child, levels + [level], revs + [rev])

    visit(_build_trie(paths), [{origin_row: 1.0}], [{origin_row: 1.0}])
    return results


# -- neighbor profiles (§2.1, Definition 1) -------------------------------------


_ZERO_PAIR = (0.0, 0.0)


@dataclass
class NeighborProfile:
    """Weighted neighborhood of one reference along one path.

    ``weights[t] = (forward, backward)`` for every neighbor row id ``t`` in
    the path's end relation.
    """

    path: JoinPath
    origin_row: int
    weights: dict[int, tuple[float, float]]

    @classmethod
    def from_result(cls, result: PropagationResult) -> "NeighborProfile":
        weights = {
            t: (fwd, result.backward.get(t, 0.0))
            for t, fwd in result.forward.items()
        }
        return cls(path=result.path, origin_row=result.origin_row, weights=weights)

    @property
    def support(self) -> set[int]:
        """Row ids of the neighbor tuples (``NB_P(r)``)."""
        return set(self.weights)

    def forward(self, row_id: int) -> float:
        return self.weights.get(row_id, _ZERO_PAIR)[0]

    def backward(self, row_id: int) -> float:
        return self.weights.get(row_id, _ZERO_PAIR)[1]

    def forward_mass(self) -> float:
        return sum(fwd for fwd, _ in self.weights.values())

    def __len__(self) -> int:
        return len(self.weights)

    def is_empty(self) -> bool:
        return not self.weights


class ScalarProfileBuilder(ProfileBuilder):
    """A :class:`~repro.paths.profiles.ProfileBuilder` that also walks one
    reference at a time, caching profiles by ``(path, origin_row)``.

    Its engine is a :class:`ScalarPropagation`, so the inherited
    :meth:`matrices_for` runs the runtime route over the same database,
    paths and exclusions.
    """

    def __init__(
        self, db, paths: list[JoinPath], exclusions: Exclusions | None = None
    ) -> None:
        super().__init__(db, paths, exclusions)
        self.engine = ScalarPropagation(db, exclusions)
        self._cache: dict[tuple[JoinPath, int], NeighborProfile] = {}

    @classmethod
    def like(cls, builder: ProfileBuilder) -> "ScalarProfileBuilder":
        """The oracle over ``builder``'s database, paths and exclusions."""
        if isinstance(builder, cls):
            return builder
        return cls(builder.db, builder.paths, builder.exclusions)

    def profile(self, path: JoinPath, origin_row: int) -> NeighborProfile:
        key = (path, origin_row)
        if key not in self._cache:
            self._cache[key] = NeighborProfile.from_result(
                self.engine.propagate(path, origin_row)
            )
        return self._cache[key]

    def profiles_for(self, origin_row: int) -> dict[JoinPath, NeighborProfile]:
        """Profiles of one reference along every configured path; misses
        are computed together by :func:`propagate_trie`."""
        missing = [p for p in self.paths if (p, origin_row) not in self._cache]
        for path, result in propagate_trie(self.engine, missing, origin_row).items():
            self._cache[(path, origin_row)] = NeighborProfile.from_result(result)
        return {path: self._cache[(path, origin_row)] for path in self.paths}

    def warm(self, origin_rows: list[int]) -> None:
        """Precompute all profiles for the given references."""
        for row in origin_rows:
            self.profiles_for(row)

    @property
    def cache_size(self) -> int:
        return len(self._cache)


# -- the measures (§2.3-2.4) ----------------------------------------------------


def set_resemblance(a: NeighborProfile, b: NeighborProfile) -> float:
    """Weighted Jaccard of the forward weights of two profiles of one path.

    ``sum_t min(p_a(t), p_b(t)) / sum_t max(p_a(t), p_b(t))`` over the
    union of the supports; 0.0 when either profile is empty.
    """
    if a.is_empty() or b.is_empty():
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    min_sum = 0.0
    max_sum = 0.0
    for row_id, (fwd_small, _) in small.weights.items():
        fwd_large = large.forward(row_id)
        if fwd_large <= fwd_small:
            min_sum += fwd_large
            max_sum += fwd_small
        else:
            min_sum += fwd_small
            max_sum += fwd_large
    # Tuples only in the larger profile contribute to the denominator.
    max_sum += sum(
        fwd for row_id, (fwd, _) in large.weights.items() if row_id not in small.weights
    )
    if max_sum == 0.0:
        return 0.0
    return min_sum / max_sum


def directed_walk_probability(src: NeighborProfile, dst: NeighborProfile) -> float:
    """``Walk_P(src -> dst) = sum_t Prob_P(src -> t) * Prob_P(t -> dst)``."""
    if src.is_empty() or dst.is_empty():
        return 0.0
    total = 0.0
    if len(src) <= len(dst):
        for row_id, (fwd, _) in src.weights.items():
            pair = dst.weights.get(row_id)
            if pair is not None:
                total += fwd * pair[1]
    else:
        for row_id, (_, back) in dst.weights.items():
            pair = src.weights.get(row_id)
            if pair is not None:
                total += pair[0] * back
    return total


def walk_probability(a: NeighborProfile, b: NeighborProfile) -> float:
    """Symmetric walk probability: the mean of the two directions."""
    return 0.5 * (directed_walk_probability(a, b) + directed_walk_probability(b, a))


def scalar_pair_features(builder, pairs: list[tuple[int, int]]) -> PairFeatures:
    """Pair features from the scalar propagation and per-pair measures,
    over ``builder``'s database, paths and exclusions."""
    oracle = ScalarProfileBuilder.like(builder)
    paths = oracle.paths
    resem = np.zeros((len(pairs), len(paths)))
    walk = np.zeros((len(pairs), len(paths)))
    for k, (row_a, row_b) in enumerate(pairs):
        profiles_a = oracle.profiles_for(row_a)
        profiles_b = oracle.profiles_for(row_b)
        for p, path in enumerate(paths):
            resem[k, p] = set_resemblance(profiles_a[path], profiles_b[path])
            walk[k, p] = walk_probability(profiles_a[path], profiles_b[path])
    return PairFeatures(paths=paths, pairs=list(pairs), resemblance=resem, walk=walk)


# -- profiles <-> stacked matrices ----------------------------------------------


def profile_matrices(
    profiles: list[NeighborProfile],
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Stack profiles into (forward, backward) CSR matrices.

    Rows follow the input order; columns are the union of the supports,
    indexed densely in sorted row-id order. The column index is built once
    via ``np.unique`` over the concatenated supports and shared by the
    forward and backward matrices (identical ``indices``/``indptr``), so
    construction is O(total support x log) with no per-tuple Python-dict
    probing.
    """
    n = len(profiles)
    counts = np.array([len(p.weights) for p in profiles], dtype=np.int64)
    total = int(counts.sum())

    all_ids = np.empty(total, dtype=np.int64)
    fwd_vals = np.empty(total, dtype=np.float64)
    back_vals = np.empty(total, dtype=np.float64)
    pos = 0
    for profile, k in zip(profiles, counts):
        if k:
            all_ids[pos : pos + k] = np.fromiter(
                profile.weights.keys(), dtype=np.int64, count=k
            )
            vals = np.array(list(profile.weights.values()), dtype=np.float64)
            fwd_vals[pos : pos + k] = vals[:, 0]
            back_vals[pos : pos + k] = vals[:, 1]
        pos += k

    columns, inverse = np.unique(all_ids, return_inverse=True)
    # Canonical CSR wants ascending column indices within each row; one
    # lexsort (row-major, then column) orders both value arrays alike.
    rows_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((inverse, rows_idx))
    indices = inverse[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    shape = (n, len(columns))
    forward = sparse.csr_matrix((fwd_vals[order], indices, indptr), shape=shape)
    backward = sparse.csr_matrix((back_vals[order], indices.copy(), indptr.copy()), shape=shape)
    return forward, backward


def weights_for(batched: BatchedProfiles, k: int) -> dict[int, tuple[float, float]]:
    """Reference ``batched.rows[k]``'s profile as a NeighborProfile-style dict."""
    fwd = batched.forward.getrow(k).tocoo()
    back_row = batched.backward.getrow(k)
    back = dict(zip(back_row.indices.tolist(), back_row.data.tolist()))
    return {
        int(t): (float(v), float(back.get(int(t), 0.0)))
        for t, v in zip(fwd.col, fwd.data)
    }


# -- step matrices and the SVM --------------------------------------------------


def assert_rows_are_partner_splits(matrix, db, step) -> None:
    """Row ``i`` of ``matrix`` is ``1/|P(i)|`` on exactly ``_partners``,
    the unfiltered join partners of source row ``i`` across ``step``."""
    oracle = ScalarPropagation(db)
    src_table = db.table(step.src_relation)
    src_pos = src_table.schema.position(step.src_attribute)
    dst_index = db.index(step.dst_relation, step.dst_attribute)
    assert matrix.shape == (len(src_table), len(db.table(step.dst_relation)))
    for row in range(matrix.shape[0]):
        partners = list(
            oracle._partners(step, src_table, src_pos, dst_index, frozenset(), row)
        )
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        assert matrix.indices[lo:hi].tolist() == partners
        if partners:
            assert (matrix.data[lo:hi] == 1.0 / len(partners)).all()


def optimality(svm, X, y):
    """(gradient norm, solver tolerance, KKT duality gap) at the fitted model.

    The dual point is the one the primal optimum implies for the squared
    hinge, ``alpha_i = 2 C_i max(0, 1 - y_i f_i)``; its gap to the primal
    objective is zero exactly at the optimum.
    """
    Xa = np.hstack([X, np.ones((len(y), 1))])
    w = np.append(svm.weights_, svm.bias_)
    costs = svm._per_example_cost(y)
    alpha = 2.0 * costs * np.maximum(1.0 - y * (Xa @ w), 0.0)
    v = (alpha * y) @ Xa
    grad = w - v
    g0 = -2.0 * (costs * y) @ Xa
    dual = np.sum(alpha) - 0.5 * v @ v - np.sum(alpha**2 / (4.0 * costs))
    tol = GRADIENT_TOL * max(1.0, float(np.linalg.norm(g0)))
    return float(np.linalg.norm(grad)), tol, svm.primal_objective(X, y) - dual


# -- clustering (§4) ------------------------------------------------------------
#
# The dict-of-dict measures and the lazy max-heap merge loop the runtime
# replaced with dense arrays. Cluster ids are opaque ints: leaves
# ``0..n-1``, merge ``k`` creates ``n + k``.


class DictPairMeasure:
    """Linkage aggregates over one pair matrix, as ``stats[a][b]`` dicts.

    ``kind`` is ``"single"`` (max), ``"complete"`` (min; a one-sided
    linkage becomes 0) or ``"average"`` (sum over the size product).
    """

    def __init__(self, pair_sims: np.ndarray, kind: str) -> None:
        pair_sims = np.asarray(pair_sims, dtype=float)
        self.kind = kind
        self._n = pair_sims.shape[0]
        # stats[a][b] == stats[b][a]: the linkage aggregate between clusters
        self._stats: dict[int, dict[int, float]] = {
            i: {
                j: float(pair_sims[i, j])
                for j in range(self._n)
                if j != i and pair_sims[i, j] > 0.0
            }
            for i in range(self._n)
        }
        self._size: dict[int, int] = {i: 1 for i in range(self._n)}

    def n_items(self) -> int:
        return self._n

    def _combine(self, x: float, y: float) -> float:
        if self.kind == "single":
            return max(x, y)
        if self.kind == "complete":
            return min(x, y)
        return x + y

    def merge(self, a: int, b: int, merged_id: int) -> None:
        stats_a = self._stats.pop(a)
        stats_b = self._stats.pop(b)
        merged: dict[int, float] = {}
        for other in sorted((set(stats_a) | set(stats_b)) - {a, b}):
            if other in stats_a and other in stats_b:
                value = self._combine(stats_a[other], stats_b[other])
            elif self.kind == "complete":
                value = 0.0  # some cross pair had similarity 0
            else:
                value = stats_a[other] if other in stats_a else stats_b[other]
            if value > 0.0:
                merged[other] = value
            other_stats = self._stats[other]
            other_stats.pop(a, None)
            other_stats.pop(b, None)
            if value > 0.0:
                other_stats[merged_id] = value
        self._stats[merged_id] = merged
        self._size[merged_id] = self._size.pop(a) + self._size.pop(b)

    def similarity(self, a: int, b: int) -> float:
        total = self._stats[a].get(b, 0.0)
        if self.kind != "average" or total == 0.0:
            return total
        return total / (self._size[a] * self._size[b])


class DictCompositeMeasure:
    """DISTINCT's composite over ``resem_sum[a][b]``/``walk_sum[a][b]`` dicts;
    ``walk_only`` drops the resemblance factor (the collective walk alone)."""

    def __init__(
        self, pair_resem: np.ndarray, pair_walk: np.ndarray, walk_only: bool = False
    ) -> None:
        self.walk_only = walk_only
        self._n = pair_walk.shape[0]
        self._resem_sum: dict[int, dict[int, float]] = {}
        self._walk_sum: dict[int, dict[int, float]] = {}
        for i in range(self._n):
            self._resem_sum[i] = {}
            self._walk_sum[i] = {}
            for j in range(self._n):
                if j == i:
                    continue
                if pair_resem[i, j] > 0.0:
                    self._resem_sum[i][j] = float(pair_resem[i, j])
                if pair_walk[i, j] > 0.0:
                    self._walk_sum[i][j] = float(pair_walk[i, j])
        self._size: dict[int, int] = {i: 1 for i in range(self._n)}

    def n_items(self) -> int:
        return self._n

    def merge(self, a: int, b: int, merged_id: int) -> None:
        for sums in (self._resem_sum, self._walk_sum):
            sums_a = sums.pop(a)
            sums_b = sums.pop(b)
            merged: dict[int, float] = {}
            for other in sorted((set(sums_a) | set(sums_b)) - {a, b}):
                value = sums_a.get(other, 0.0) + sums_b.get(other, 0.0)
                merged[other] = value
                other_sums = sums[other]
                other_sums.pop(a, None)
                other_sums.pop(b, None)
                other_sums[merged_id] = value
            sums[merged_id] = merged
        self._size[merged_id] = self._size.pop(a) + self._size.pop(b)

    def average_resemblance(self, a: int, b: int) -> float:
        total = self._resem_sum[a].get(b, 0.0)
        if total == 0.0:
            return 0.0
        return total / (self._size[a] * self._size[b])

    def collective_walk_probability(self, a: int, b: int) -> float:
        total = self._walk_sum[a].get(b, 0.0)
        if total == 0.0:
            return 0.0
        return 0.5 * (total / self._size[a] + total / self._size[b])

    def similarity(self, a: int, b: int) -> float:
        walk = self.collective_walk_probability(a, b)
        if self.walk_only:
            return walk
        resem = self.average_resemblance(a, b)
        if resem <= 0.0 or walk <= 0.0:
            return 0.0
        return math.sqrt(resem * walk)


def heap_merges(measure, min_sim: float) -> list[Merge]:
    """The merge sequence of a lazy-deletion max-heap merge loop.

    Leaf pairs enter as ``(min, max)``; each merged cluster's pairs are
    pushed at its creation as ``(merged, other)``. Pops follow the
    entries' total order ``(-sim, a, b)``; an entry naming a cluster
    already merged away is stale and skipped.
    """
    n = measure.n_items()
    dendrogram = Dendrogram(n_leaves=n)
    alive = set(range(n))
    heap: list[tuple[float, int, int]] = []

    def push(a: int, b: int) -> None:
        sim = measure.similarity(a, b)
        if sim > 0.0 and sim >= min_sim:
            heapq.heappush(heap, (-sim, a, b))

    for a in range(n):
        for b in range(a + 1, n):
            push(a, b)
    while heap:
        neg_sim, a, b = heapq.heappop(heap)
        if a not in alive or b not in alive:
            continue  # stale entry
        merged = dendrogram.record(a, b, -neg_sim)
        measure.merge(a, b, merged)
        alive -= {a, b}
        for other in sorted(alive):
            push(merged, other)
        alive.add(merged)
    return dendrogram.merges
