"""The delta-ingest engine: streaming re-resolution without a cold refit.

:class:`IngestEngine` owns, per tracked name, everything a cold
:meth:`repro.core.distinct.Distinct.prepare` + ``cluster_prepared`` run
produces *plus* the state needed to invalidate it precisely:

- the resolution: reference rows, pair features, combined pair
  matrices, and the :class:`~repro.cluster.agglomerative.ClusteringResult`;
- the name's object rows, whose change changes its exclusions;
- the per-relation *visited traces* (boolean reference × relation-row
  patterns) of every forward propagation level: the patterns of the
  batch that last propagated the name, and the name's row range in
  them (all of them after a cold resolve).

Every batch propagates through the pipeline's
:attr:`~repro.core.distinct.Distinct.profiles`, over its shared step
matrices, which a batch's read extends by the delta's rows
(:class:`repro.perf.transitions.StepMatrices`); applying the delta's
rows touches no step matrix.

Applying a :class:`~repro.reldb.Delta` then walks the invalidation
ladder instead of recomputing the world:

1. **dirty rows** — :func:`repro.ingest.dirty.affected_rows` probes
   each grown step once and lists the existing rows whose partner lists
   grew;
2. **dirty references** — a reference is dirty iff its visited trace
   intersects the affected rows (:func:`repro.ingest.dirty
   .touched_row_mask`) or it is new; clean references provably kept
   their exact profiles;
3. **dirty pairs** — :meth:`IngestEngine.apply` propagates the
   post-delta references of every pending name in one traced batch,
   each under its own name's exclusions, and each name takes its own
   rows of it (the same bytes as its batch in a cold run). Only pairs
   touching a dirty or new reference are re-evaluated from those rows
   (so the recomputed values are bit-identical); clean pair values are
   scattered from the previous feature arrays. A name whose exclusions
   changed (it gained an object row) plans every old reference as dirty
   and reuses nothing;
4. **merges** — the patched pair matrices cluster through
   :meth:`~repro.core.distinct.Distinct.cluster_prepared`, the same
   dense-array merge loop a cold resolve runs.

Every rung preserves bytes, so ``ingest()`` produces resolutions equal
to a cold ``prepare``/``cluster_prepared`` on the post-delta database —
the property suite asserts full equality.

:meth:`IngestEngine.apply` runs the delta's one refresh batch;
:meth:`IngestEngine.refresh` is one name's work on its rows of it and
never propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distinct import Distinct, NamePreparation, NameResolution
from repro.core.features import (
    PairFeatures,
    all_pairs,
    compute_pair_features,
)
from repro.core.references import NameReferences, extract_references
from repro.errors import NotFittedError, ReproError
from repro.obs import counter, get_logger, span
from repro.paths.batch import BatchedProfiles
from repro.paths.joinpath import JoinPath
from repro.perf.csr import Csr
from repro.reldb.delta import AppliedDelta, Delta, apply_delta
from repro.resilience.faults import fault_check

from repro.ingest.dirty import affected_rows, probe_steps, touched_row_mask

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
    """One name's post-delta state: the resolution plus refresh accounting."""

    name: str
    resolution: NameResolution
    n_refs_dirty: int
    n_refs_new: int
    n_pairs_recomputed: int
    n_pairs_reused: int
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
        }


@dataclass
class _NameState:
    """Everything the engine keeps per tracked name; its rows and pair
    features are the resolution's. ``traces`` are the visited patterns
    of the batch that last propagated the name, shared with the other
    names of that batch; ``trace_rows`` are the name's rows of them."""

    name: str
    object_rows: list[int]
    resolution: NameResolution
    traces: dict[str, Csr]
    trace_rows: slice


@dataclass
class _RefreshPlan:
    """Per-name work order computed when a delta is applied.

    ``refs`` carries the name's post-delta exclusions, new ones when it
    gained an object row (every old reference is then dirty).
    ``propagated`` is the delta's traced batch and the batch rows that
    are the name's own; a name with no pairs to score is in no batch.
    """

    refs: NameReferences  # the name's post-delta references
    new_rows: list[int]
    dirty_idx: np.ndarray  # positions (== leaf indices) of dirty old refs
    propagated: tuple[
        dict[JoinPath, BatchedProfiles], dict[str, Csr], slice
    ] = field(default_factory=lambda: ({}, {}, slice(0, 0)))

    @property
    def needed(self) -> bool:
        return bool(self.new_rows) or len(self.dirty_idx) > 0


class IngestEngine:
    """Incremental resolution of a fixed set of names across deltas.

    ``distinct`` must be fitted (or built from models); its models are
    held fixed across deltas — the byte-identity contract is against a
    cold ``prepare``/``cluster_prepared`` with the same models on the
    post-delta database. Every name clusters with DISTINCT's composite
    measure over the supervised combiners, at ``min_sim``.
    """

    def __init__(self, distinct: Distinct, min_sim: float | None = None) -> None:
        if distinct.db is None or distinct.paths_ is None:
            raise NotFittedError("fit the pipeline before building an IngestEngine")
        self.distinct = distinct
        self.min_sim = distinct.config.min_sim if min_sim is None else min_sim
        self._states: dict[str, _NameState] = {}
        self._plans: dict[str, _RefreshPlan] = {}
        self._probe_steps = probe_steps(distinct.paths_)

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
        refs = extract_references(self.db, name, self.distinct.config)
        traces: dict[str, Csr] = {}
        # The traced batch is the one prepare() propagates.
        prep = self.distinct.prepare_references(refs, trace=traces)
        resolution = self._cluster(name, prep.rows, prep.features)
        return _NameState(
            name, list(refs.object_rows), resolution, traces, slice(0, len(prep.rows))
        )

    def _cluster(
        self, name: str, rows: list[int], features: PairFeatures | None
    ) -> NameResolution:
        """The cold merge loop over ``features`` — every resolve and refresh
        clusters here."""
        prep = NamePreparation(name=name, rows=list(rows), features=features)
        return self.distinct.cluster_prepared(prep, self.min_sim)

    # -- delta application -------------------------------------------------

    def apply(self, delta: Delta) -> AppliedDelta:
        """Apply ``delta``, plan the refreshes and run their one batch.

        The post-delta references of every pending name with pairs to
        score propagate in one traced batch, each under its own name's
        exclusions; a batch's read extends the step matrices it walks.
        After this returns, :meth:`pending` names the states whose
        resolutions must be recomputed (call :meth:`refresh` for each, in
        any order); every other tracked name is provably unchanged. A
        second ``apply`` before the pending refreshes run would
        interleave epochs, so it raises.
        """
        if self._plans:
            raise ReproError(
                "previous delta has pending refreshes; refresh() them first"
            )
        db = self.db
        with span("ingest.apply", n_rows=delta.n_rows(), epoch=db.epoch + 1) as sp:
            applied = apply_delta(db, delta)
            affected = affected_rows(db, self._probe_steps, applied)
            self._plans = {
                name: self._plan(state, affected)
                for name, state in self._states.items()
            }
            self._propagate([
                plan for plan in self._plans.values()
                if plan.needed and len(plan.refs.rows) > 1
            ])
            sp.annotate(
                n_affected=sum(len(rows) for rows in affected.values()),
                n_pending=len(self.pending()),
            )
        _DELTAS.inc()
        return applied

    def _plan(self, state: _NameState, affected: dict[str, np.ndarray]) -> _RefreshPlan:
        refs = extract_references(self.db, state.name, self.distinct.config)
        old = set(state.resolution.rows)
        new_rows = [row for row in refs.rows if row not in old]
        if list(refs.object_rows) != state.object_rows:
            # The name gained an object row: exclusions change for every
            # reference, so nothing survives — every old one is dirty.
            return _RefreshPlan(
                refs=refs, new_rows=new_rows, dirty_idx=np.arange(len(old)),
            )
        dirty_mask = np.zeros(len(old), dtype=bool)
        for relation, pattern in state.traces.items():
            if relation in affected:
                dirty_mask |= touched_row_mask(
                    pattern, affected[relation], state.trace_rows
                )
        return _RefreshPlan(
            refs=refs, new_rows=new_rows, dirty_idx=np.flatnonzero(dirty_mask),
        )

    def pending(self) -> list[str]:
        """Tracked names whose resolutions the last delta invalidated."""
        return [name for name, plan in self._plans.items() if plan.needed]

    # -- refresh -----------------------------------------------------------

    def refresh(self, name: str) -> NameRefresh:
        """Re-resolve one name along the invalidation ladder.

        Requires a preceding :meth:`apply`, whose batch holds the name's
        rows. Clean names return their unchanged resolution with
        ``refreshed=False``.
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
                name=name, resolution=state.resolution,
                n_refs_dirty=0, n_refs_new=0, n_pairs_recomputed=0,
                n_pairs_reused=(
                    state.resolution.features.n_pairs if state.resolution.features else 0
                ),
                refreshed=False,
            )
        with span(
            "ingest.refresh",
            name=name,
            n_dirty=len(plan.dirty_idx),
            n_new=len(plan.new_rows),
        ) as sp:
            refresh = self._refresh_state(state, plan)
            sp.annotate(pairs_recomputed=refresh.n_pairs_recomputed)
        state.object_rows = list(plan.refs.object_rows)
        state.resolution = refresh.resolution
        _, state.traces, state.trace_rows = plan.propagated
        del self._plans[name]
        _NAMES_REFRESHED.inc()
        _REFS_DIRTY.inc(refresh.n_refs_dirty)
        _PAIRS_RECOMPUTED.inc(refresh.n_pairs_recomputed)
        _PAIRS_REUSED.inc(refresh.n_pairs_reused)
        return refresh

    def refresh_all(self) -> list[NameRefresh]:
        """Refresh every pending name; clean names report through too."""
        return [self.refresh(name) for name in self._states if name in self._plans]

    def _propagate(self, plans: list[_RefreshPlan]) -> None:
        """One traced batch over the references of ``plans``, each plan's
        rows in one block; a reference's rows are the same bytes as in a
        batch of its name alone."""
        if not plans:
            return
        rows = [row for plan in plans for row in plan.refs.rows]
        exclusions = [plan.refs.exclusions for plan in plans for _ in plan.refs.rows]
        traces: dict[str, Csr] = {}
        with span("ingest.propagate", n_names=len(plans), n_refs=len(rows)):
            matrices = self.distinct.profiles.matrices_for(rows, exclusions, trace=traces)
        stop = 0
        for plan in plans:
            start, stop = stop, stop + len(plan.refs.rows)
            plan.propagated = (matrices, traces, slice(start, stop))

    def ingest(self, delta: Delta) -> IngestReport:
        """Apply ``delta`` and refresh every tracked name."""
        n_rows = delta.n_rows()
        applied = self.apply(delta)
        refreshes = self.refresh_all()
        return IngestReport(
            epoch=applied.epoch, n_rows_added=n_rows, refreshes=refreshes
        )

    # -- the ladder --------------------------------------------------------

    def _refresh_state(self, state: _NameState, plan: _RefreshPlan) -> NameRefresh:
        distinct = self.distinct
        previous = state.resolution
        rows_new = list(plan.refs.rows)
        n_old = len(previous.rows)
        if len(rows_new) <= 1:
            resolution = self._cluster(state.name, rows_new, None)
            return NameRefresh(
                name=state.name, resolution=resolution,
                n_refs_dirty=len(plan.dirty_idx), n_refs_new=len(plan.new_rows),
                n_pairs_recomputed=0, n_pairs_reused=0,
            )
        # The pair kernel reads only the pairs' rows of the batch.
        matrices = plan.propagated[0]

        # The old rows are a prefix of the new ones and both pair lists
        # are ``all_pairs`` order, so a clean pair (i, j) of old positions
        # sits at the condensed index i*(2n_old - i - 1)/2 + j - i - 1.
        # Rows that are no such prefix dirty them all.
        pairs_new = all_pairs(rows_new)
        pos_a, pos_b = np.triu_indices(len(rows_new), k=1)
        dirty = np.full(len(rows_new), rows_new[:n_old] != previous.rows)
        dirty[plan.dirty_idx] = True
        dirty[n_old:] = True
        recompute_mask = dirty[pos_a] | dirty[pos_b]
        recompute = np.flatnonzero(recompute_mask)
        keep = np.flatnonzero(~recompute_mask)

        n_paths = len(distinct.paths_)
        resem = np.zeros((len(pairs_new), n_paths))
        walk = np.zeros((len(pairs_new), n_paths))
        if len(keep):
            keep_a, keep_b = pos_a[keep], pos_b[keep]
            old_k = keep_a * (2 * n_old - keep_a - 1) // 2 + keep_b - keep_a - 1
            resem[keep] = previous.features.resemblance[old_k]
            walk[keep] = previous.features.walk[old_k]
        sub = compute_pair_features(
            distinct.paths_, pairs_new[recompute], matrices, distinct.shared_paths_
        )
        resem[recompute] = sub.resemblance
        walk[recompute] = sub.walk
        features = PairFeatures(
            paths=distinct.paths_, pairs=pairs_new, resemblance=resem, walk=walk
        )

        resolution = self._cluster(state.name, rows_new, features)
        return NameRefresh(
            name=state.name,
            resolution=resolution,
            n_refs_dirty=len(plan.dirty_idx),
            n_refs_new=len(plan.new_rows),
            n_pairs_recomputed=len(recompute),
            n_pairs_reused=len(keep),
        )
