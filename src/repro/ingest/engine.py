"""The delta-ingest engine: streaming re-resolution without a cold refit.

:class:`IngestEngine` owns, per tracked name, everything a cold
:meth:`repro.core.distinct.Distinct.prepare` + ``cluster_prepared`` run
produces *plus* the state needed to invalidate it precisely:

- the reference rows, pair features, combined pair matrices, and the
  :class:`~repro.cluster.agglomerative.ClusteringResult`;
- a persistent :class:`~repro.paths.profiles.ProfileBuilder` over the
  pipeline's shared step matrices, which rebuild on their first read
  after a delta (:class:`repro.perf.transitions.StepMatrices`);
- the per-relation *visited traces* (boolean reference × relation-row
  patterns) of every forward propagation level.

Applying a :class:`~repro.reldb.Delta` then walks the invalidation
ladder instead of recomputing the world:

1. **dirty rows** — :func:`repro.ingest.dirty.affected_rows` finds the
   existing rows whose partner lists grew;
2. **dirty references** — a reference is dirty iff its visited trace
   intersects the affected rows (:func:`repro.ingest.dirty
   .touched_row_mask`) or it is new; clean references provably kept
   their exact profiles;
3. **dirty pairs** — the name's references propagate once, as in a
   cold run, and only pairs touching a dirty or new reference are
   re-evaluated from that batch (so the recomputed values are
   bit-identical); clean pair values are scattered from the previous
   feature arrays;
4. **dirty merges** — :func:`repro.cluster.recluster_incremental`
   replays the previous dendrogram prefix the dirty pairs cannot have
   influenced and resumes the merge loop from there.

Every rung preserves bytes, so ``ingest()`` produces resolutions equal
to a cold ``prepare``/``cluster_prepared`` on the post-delta database —
the property suite asserts full equality across worker counts.

With ``workers > 1`` the per-name refresh fans out over the
fork-primed process pool (:func:`repro.perf.ordered_process_map`): the
delta is applied and the refreshes planned in the parent first, workers
return compact per-name refreshes, and the parent adopts them in input
order. Step matrices a worker rebuilds are lost to the parent, which
rebuilds its own on its next read, the usual fork trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.cluster.agglomerative import AgglomerativeClusterer
from repro.cluster.incremental import recluster_incremental
from repro.core.distinct import Distinct, NamePreparation, NameResolution
from repro.core.features import (
    PairFeatures,
    all_pairs,
    compute_pair_features,
    pair_matrix,
)
from repro.core.references import extract_references
from repro.errors import NotFittedError, ReproError
from repro.obs import counter, get_logger, span
from repro.paths.batch import batch_profile_matrices
from repro.paths.profiles import ProfileBuilder
from repro.perf import DEFAULT_TASK_RETRIES, RemoteTaskError, ordered_process_map
from repro.reldb.delta import AppliedDelta, Delta, apply_delta
from repro.resilience.faults import fault_check

from repro.ingest.dirty import affected_rows, touched_row_mask

__all__ = ["IngestEngine", "IngestReport", "NameRefresh"]

log = get_logger("ingest.engine")

_DELTAS = counter("ingest.deltas_applied")
_NAMES_REFRESHED = counter("ingest.names_refreshed")
_NAMES_CLEAN = counter("ingest.names_clean")
_REFS_DIRTY = counter("ingest.refs_dirty")
_PAIRS_RECOMPUTED = counter("ingest.pairs_recomputed")
_PAIRS_REUSED = counter("ingest.pairs_reused")


@dataclass
class NameRefresh:
    """One name's post-delta state: the resolution plus refresh accounting.

    Picklable and self-contained, so parallel ingest can compute it in a
    worker and :meth:`IngestEngine.adopt` it in the parent.
    """

    name: str
    resolution: NameResolution
    traces: dict[str, sparse.csr_matrix]
    n_refs_dirty: int
    n_refs_new: int
    n_pairs_recomputed: int
    n_pairs_reused: int
    n_merges_replayed: int
    refreshed: bool = True


@dataclass
class IngestReport:
    """What one :meth:`IngestEngine.ingest` call did."""

    epoch: int
    n_rows_added: int
    refreshes: list[NameRefresh] = field(default_factory=list)

    @property
    def names_refreshed(self) -> list[str]:
        return [r.name for r in self.refreshes if r.refreshed]

    @property
    def names_clean(self) -> list[str]:
        return [r.name for r in self.refreshes if not r.refreshed]

    def resolution(self, name: str) -> NameResolution:
        for refresh in self.refreshes:
            if refresh.name == name:
                return refresh.resolution
        raise KeyError(name)

    def totals(self) -> dict[str, int]:
        return {
            "names_refreshed": len(self.names_refreshed),
            "names_clean": len(self.names_clean),
            "refs_dirty": sum(r.n_refs_dirty for r in self.refreshes),
            "refs_new": sum(r.n_refs_new for r in self.refreshes),
            "pairs_recomputed": sum(r.n_pairs_recomputed for r in self.refreshes),
            "pairs_reused": sum(r.n_pairs_reused for r in self.refreshes),
            "merges_replayed": sum(r.n_merges_replayed for r in self.refreshes),
        }


@dataclass
class _NameState:
    """Everything the engine keeps per tracked name."""

    name: str
    rows: list[int]
    object_rows: list[int]
    builder: ProfileBuilder
    features: PairFeatures | None
    resolution: NameResolution
    traces: dict[str, sparse.csr_matrix]


@dataclass
class _RefreshPlan:
    """Per-name work order computed when a delta is applied."""

    new_rows: list[int]
    dirty_idx: np.ndarray  # positions (== leaf indices) of dirty old refs
    rebuild: bool = False  # exclusions changed: refresh from scratch

    @property
    def needed(self) -> bool:
        return self.rebuild or bool(self.new_rows) or len(self.dirty_idx) > 0


def _refresh_task(payload, name: str) -> NameRefresh:
    """Worker body for parallel ingest: refresh one name on the forked state."""
    (engine,) = payload
    return engine.refresh(name)


class IngestEngine:
    """Incremental resolution of a fixed set of names across deltas.

    ``distinct`` must be fitted (or built from models); its models are
    held fixed across deltas — the byte-identity contract is against a
    cold ``prepare``/``cluster_prepared`` with the same models on the
    post-delta database. ``min_sim``/``measure``/``supervised`` mirror
    :meth:`~repro.core.distinct.Distinct.cluster_prepared`.
    """

    def __init__(
        self,
        distinct: Distinct,
        min_sim: float | None = None,
        measure: str = "combined",
        supervised: bool = True,
    ) -> None:
        if distinct.db is None or distinct.paths_ is None:
            raise NotFittedError("fit the pipeline before building an IngestEngine")
        self.distinct = distinct
        self.min_sim = distinct.config.min_sim if min_sim is None else min_sim
        self.measure = measure
        self.supervised = supervised
        self._states: dict[str, _NameState] = {}
        self._plans: dict[str, _RefreshPlan] = {}

    @property
    def db(self):
        return self.distinct.db

    @property
    def names(self) -> list[str]:
        return list(self._states)

    def resolution(self, name: str) -> NameResolution:
        return self._state(name).resolution

    def _state(self, name: str) -> _NameState:
        state = self._states.get(name)
        if state is None:
            raise ReproError(f"name {name!r} is not tracked; call resolve() first")
        return state

    # -- cold start --------------------------------------------------------

    def resolve(self, name: str) -> NameResolution:
        """Cold-start one name: resolve it and retain the incremental state.

        Bit-identical to ``distinct.cluster_prepared(distinct.prepare(name))``
        — the batch also records the visited traces, which does not affect
        values.
        """
        state = self._cold_state(name)
        self._states[name] = state
        return state.resolution

    def _cold_state(self, name: str) -> _NameState:
        distinct = self.distinct
        refs = extract_references(self.db, name, distinct.config)
        builder = distinct.profile_builder(name)
        if len(refs.rows) <= 1:
            prep = NamePreparation(name=name, rows=list(refs.rows), features=None)
            resolution = distinct.cluster_prepared(
                prep, self.min_sim, self.measure, self.supervised
            )
            return _NameState(
                name, list(refs.rows), list(refs.object_rows), builder,
                None, resolution, {},
            )
        traces: dict[str, sparse.csr_matrix] = {}
        # The traced batch is the one prepare() propagates; its matrices
        # feed the pair kernels directly.
        matrices = batch_profile_matrices(
            builder.engine, distinct.paths_, refs.rows, trace=traces
        )
        features = compute_pair_features(builder, all_pairs(refs.rows), matrices)
        prep = NamePreparation(name=name, rows=list(refs.rows), features=features)
        resolution = distinct.cluster_prepared(
            prep, self.min_sim, self.measure, self.supervised
        )
        return _NameState(
            name, list(refs.rows), list(refs.object_rows), builder,
            features, resolution, traces,
        )

    # -- delta application -------------------------------------------------

    def apply(self, delta: Delta) -> AppliedDelta:
        """Apply ``delta`` and plan the refreshes.

        After this returns, :meth:`pending` names the states whose
        resolutions must be recomputed (call :meth:`refresh` for each, in
        any order or in parallel); every other tracked name is provably
        unchanged. A second ``apply`` before the pending refreshes run
        would interleave epochs, so it raises.
        """
        if self._plans:
            raise ReproError(
                "previous delta has pending refreshes; refresh() them first"
            )
        db = self.db
        with span("ingest.apply", n_rows=delta.n_rows(), epoch=db.epoch + 1) as sp:
            applied = apply_delta(db, delta)
            affected = affected_rows(db, self.distinct.paths_, applied)
            self._plans = {
                name: self._plan(state, affected)
                for name, state in self._states.items()
            }
            sp.annotate(
                n_affected=sum(len(rows) for rows in affected.values()),
                n_pending=len(self.pending()),
            )
        _DELTAS.inc()
        return applied

    def _plan(self, state: _NameState, affected: dict[str, set[int]]) -> _RefreshPlan:
        refs = extract_references(self.db, state.name, self.distinct.config)
        if list(refs.object_rows) != state.object_rows:
            # The name gained an object row: exclusions change for every
            # reference, so nothing survives — refresh from scratch.
            return _RefreshPlan(new_rows=[], dirty_idx=np.empty(0, np.int64),
                                rebuild=True)
        old = set(state.rows)
        new_rows = [row for row in refs.rows if row not in old]
        dirty_mask = np.zeros(len(state.rows), dtype=bool)
        for relation, pattern in state.traces.items():
            columns = affected.get(relation)
            if columns:
                # lint: allow[determinism/unkeyed-sort] row ids are plain int
                dirty_mask |= touched_row_mask(pattern, np.asarray(sorted(columns)))
        return _RefreshPlan(
            new_rows=new_rows, dirty_idx=np.flatnonzero(dirty_mask)
        )

    def pending(self) -> list[str]:
        """Tracked names whose resolutions the last delta invalidated."""
        return [name for name, plan in self._plans.items() if plan.needed]

    # -- refresh -----------------------------------------------------------

    def refresh(self, name: str) -> NameRefresh:
        """Re-resolve one name along the invalidation ladder.

        Requires a preceding :meth:`apply`. Clean names return their
        unchanged resolution with ``refreshed=False``.
        """
        state = self._state(name)
        plan = self._plans.get(name)
        if plan is None:
            raise ReproError(f"no pending delta for {name!r}; call apply() first")
        fault_check("ingest.refresh", name)
        if not plan.needed:
            del self._plans[name]
            _NAMES_CLEAN.inc()
            return NameRefresh(
                name=name, resolution=state.resolution, traces=state.traces,
                n_refs_dirty=0, n_refs_new=0, n_pairs_recomputed=0,
                n_pairs_reused=state.features.n_pairs if state.features else 0,
                n_merges_replayed=0, refreshed=False,
            )
        with span(
            "ingest.refresh",
            name=name,
            n_dirty=len(plan.dirty_idx),
            n_new=len(plan.new_rows),
        ) as sp:
            refresh = self._refresh_state(state, plan)
            sp.annotate(
                pairs_recomputed=refresh.n_pairs_recomputed,
                merges_replayed=refresh.n_merges_replayed,
            )
        self._install(state, refresh)
        del self._plans[name]
        _NAMES_REFRESHED.inc()
        _REFS_DIRTY.inc(refresh.n_refs_dirty)
        _PAIRS_RECOMPUTED.inc(refresh.n_pairs_recomputed)
        _PAIRS_REUSED.inc(refresh.n_pairs_reused)
        return refresh

    def refresh_all(self, workers: int = 1,
                    task_retries: int = DEFAULT_TASK_RETRIES) -> list[NameRefresh]:
        """Refresh every pending name; clean names report through too."""
        order = [name for name in self._states if name in self._plans]
        if workers <= 1 or len(self.pending()) <= 1:
            return [self.refresh(name) for name in order]
        pending = set(self.pending())
        results: dict[str, NameRefresh] = {
            name: self.refresh(name) for name in order if name not in pending
        }
        # Counters for the worker-side refreshes arrive through the
        # pool's per-worker registry merge — no parent-side double count.
        outcome_iter = ordered_process_map(
            _refresh_task,
            (self,),
            [name for name in order if name in pending],
            workers=workers,
            task_retries=task_retries,
        )
        for task in outcome_iter:
            if task.error is not None:
                raise RemoteTaskError(task.error)
            refresh = task.value
            self.adopt(refresh)
            results[refresh.name] = refresh
        return [results[name] for name in order]

    def _install(self, state: _NameState, refresh: NameRefresh) -> None:
        state.rows = list(refresh.resolution.rows)
        state.features = refresh.resolution.features
        state.resolution = refresh.resolution
        state.traces = refresh.traces

    def adopt(self, refresh: NameRefresh) -> None:
        """Install a worker-computed refresh into the parent engine.

        The refresh carries everything the name's state needs; step
        matrices the worker rebuilt stay in the worker.
        """
        state = self._states.get(refresh.name)
        if state is None:
            return
        plan = self._plans.pop(refresh.name, None)
        if not refresh.refreshed:
            return
        if plan is not None and plan.rebuild:
            state.builder = self.distinct.profile_builder(refresh.name)
            state.object_rows = list(
                extract_references(
                    self.db, refresh.name, self.distinct.config
                ).object_rows
            )
        self._install(state, refresh)

    def ingest(self, delta: Delta, workers: int = 1) -> IngestReport:
        """Apply ``delta`` and refresh every tracked name."""
        n_rows = delta.n_rows()
        applied = self.apply(delta)
        refreshes = self.refresh_all(workers=workers)
        return IngestReport(
            epoch=applied.epoch, n_rows_added=n_rows, refreshes=refreshes
        )

    # -- the ladder --------------------------------------------------------

    def _refresh_state(self, state: _NameState, plan: _RefreshPlan) -> NameRefresh:
        distinct = self.distinct
        refs = extract_references(self.db, state.name, distinct.config)
        rows_new = list(refs.rows)
        n_old = len(state.rows)

        full = (
            plan.rebuild
            or n_old <= 1
            or state.resolution.clustering is None
            or state.features is None
            or rows_new[:n_old] != state.rows
        )
        if len(rows_new) <= 1:
            prep = NamePreparation(name=state.name, rows=rows_new, features=None)
            resolution = distinct.cluster_prepared(
                prep, self.min_sim, self.measure, self.supervised
            )
            return NameRefresh(
                name=state.name, resolution=resolution, traces={},
                n_refs_dirty=len(plan.dirty_idx), n_refs_new=len(plan.new_rows),
                n_pairs_recomputed=0, n_pairs_reused=0, n_merges_replayed=0,
            )
        if full:
            return self._full_refresh(state, plan, rows_new)

        builder = state.builder
        dirty_origins = [state.rows[int(i)] for i in plan.dirty_idx] + plan.new_rows
        # Every row pairs with a dirty one, so the recomputed pairs reach
        # every row: one traced batch over the name feeds them all.
        traces: dict[str, sparse.csr_matrix] = {}
        matrices = batch_profile_matrices(
            builder.engine, distinct.paths_, rows_new, trace=traces
        )

        pairs_new = all_pairs(rows_new)
        old_position = {pair: k for k, pair in enumerate(state.features.pairs)}
        dirty_rows_set = set(dirty_origins)
        recompute = [
            k for k, (a, b) in enumerate(pairs_new)
            if a in dirty_rows_set or b in dirty_rows_set
        ]
        recompute_set = set(recompute)

        n_paths = len(distinct.paths_)
        resem = np.zeros((len(pairs_new), n_paths))
        walk = np.zeros((len(pairs_new), n_paths))
        reused = 0
        for k, pair in enumerate(pairs_new):
            if k in recompute_set:
                continue
            old_k = old_position[pair]
            resem[k] = state.features.resemblance[old_k]
            walk[k] = state.features.walk[old_k]
            reused += 1
        if recompute:
            sub = compute_pair_features(
                builder, [pairs_new[k] for k in recompute], matrices
            )
            idx = np.asarray(recompute, dtype=np.int64)
            resem[idx] = sub.resemblance
            walk[idx] = sub.walk
        features = PairFeatures(
            paths=distinct.paths_, pairs=pairs_new, resemblance=resem, walk=walk
        )

        resolution, replayed = self._recluster(
            state, rows_new, features, plan.dirty_idx, n_old
        )
        return NameRefresh(
            name=state.name,
            resolution=resolution,
            traces=traces,
            n_refs_dirty=len(plan.dirty_idx),
            n_refs_new=len(plan.new_rows),
            n_pairs_recomputed=len(recompute),
            n_pairs_reused=reused,
            n_merges_replayed=replayed,
        )

    def _full_refresh(
        self, state: _NameState, plan: _RefreshPlan, rows_new: list[int]
    ) -> NameRefresh:
        """Cold-equivalent recompute of one name (fresh builder when the
        exclusions changed — a builder bakes its name's exclusions in)."""
        distinct = self.distinct
        builder = distinct.profile_builder(state.name) if plan.rebuild else state.builder
        traces: dict[str, sparse.csr_matrix] = {}
        matrices = batch_profile_matrices(
            builder.engine, distinct.paths_, rows_new, trace=traces
        )
        features = compute_pair_features(builder, all_pairs(rows_new), matrices)
        prep = NamePreparation(name=state.name, rows=rows_new, features=features)
        resolution = distinct.cluster_prepared(
            prep, self.min_sim, self.measure, self.supervised
        )
        state.builder = builder
        state.object_rows = list(
            extract_references(self.db, state.name, distinct.config).object_rows
        )
        return NameRefresh(
            name=state.name,
            resolution=resolution,
            traces=traces,
            n_refs_dirty=len(plan.dirty_idx),
            n_refs_new=len(plan.new_rows),
            n_pairs_recomputed=len(features.pairs),
            n_pairs_reused=0,
            n_merges_replayed=0,
        )

    def _recluster(
        self,
        state: _NameState,
        rows_new: list[int],
        features: PairFeatures,
        dirty_idx: np.ndarray,
        n_old: int,
    ) -> tuple[NameResolution, int]:
        """The dirty-merge rung: replay + resume instead of a fresh heap.

        Mirrors :meth:`Distinct.cluster_prepared` exactly except that the
        merge loop starts from the replayed prefix —
        :func:`recluster_incremental`'s byte-identity argument covers the
        difference.
        """
        distinct = self.distinct
        fault_check("cluster", state.name)
        resem_vals, walk_vals = distinct._combined_pair_values(
            features, self.supervised
        )
        resem_matrix = pair_matrix(rows_new, features.pairs, resem_vals)
        walk_matrix = pair_matrix(rows_new, features.pairs, walk_vals)
        measure_obj = Distinct._make_measure(self.measure, resem_matrix, walk_matrix)
        clusterer = AgglomerativeClusterer(min_sim=self.min_sim)
        result, replayed = recluster_incremental(
            measure_obj,
            state.resolution.clustering,
            [int(i) for i in dirty_idx],
            clusterer,
            n_old,
        )
        clusters = [{rows_new[i] for i in cluster} for cluster in result.clusters]
        resolution = NameResolution(
            name=state.name,
            rows=list(rows_new),
            clusters=clusters,
            clustering=result,
            features=features,
            resem_matrix=resem_matrix,
            walk_matrix=walk_matrix,
        )
        return resolution, replayed

