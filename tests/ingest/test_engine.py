"""Unit tests for :class:`repro.ingest.engine.IngestEngine`.

The byte-identity of refresh output against a cold refit is property
tested in ``tests/property/test_delta_ingest_property.py``; these tests
pin the engine's *contract*: cold resolve parity, epoch sequencing
(no double apply, no refresh without apply), clean-name short-circuits,
and the report surface.
"""

from __future__ import annotations

import pytest

from repro.core.distinct import Distinct
from repro.core.features import all_pairs, compute_pair_features
from repro.core.references import extract_references
from repro.data.deltas import grow_world, split_world
from repro.errors import ReproError
from repro.ingest import IngestEngine
from repro.obs import get_metrics
from repro.paths.profiles import ProfileBuilder
from repro.perf import transitions
from repro.reldb.delta import Delta, apply_delta

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4


def warm_pipeline(fitted, small_world):
    """The fitted models bound to a fresh pre-delta base, plus its split."""
    # New papers authored by the "Jim Smith" entities, so the delta is
    # guaranteed to add references of a tracked name (refs_new > 0).
    pool = [e.entity_id for e in small_world.entities if e.name == "Jim Smith"]
    grown = grow_world(small_world, 6, seed=13, author_pool=pool)
    split = split_world(grown, 6)
    distinct = Distinct.from_models(
        split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
    )
    return distinct, split


@pytest.fixture()
def warm(fitted, small_world):
    return warm_pipeline(fitted, small_world)


def own_traces(engine: IngestEngine, name: str) -> dict:
    """A tracked name's visited traces: its rows of its last batch's."""
    state = engine._states[name]
    return {
        relation: p.tocsr()[state.trace_rows] for relation, p in state.traces.items()
    }


def assert_same_state(got, want, same_width: bool = True) -> None:
    """Two resolutions, and their visited traces, byte for byte.

    A clean name keeps the traces of its last propagation, over the
    relations as they were then: against a cold resolve only the width
    of its traces differs (``same_width=False``)."""
    (got_res, got_traces), (want_res, want_traces) = got, want
    assert got_res.rows == want_res.rows
    assert got_res.clusters == want_res.clusters
    assert got_res.resem_matrix.tobytes() == want_res.resem_matrix.tobytes()
    assert got_res.walk_matrix.tobytes() == want_res.walk_matrix.tobytes()
    assert got_res.clustering.dendrogram.merges == want_res.clustering.dendrogram.merges
    assert set(got_traces) == set(want_traces)
    for relation, pattern in got_traces.items():
        other = want_traces[relation]
        assert pattern.shape[0] == other.shape[0]
        assert pattern.shape[1] == other.shape[1] or not same_width
        assert pattern.indptr.tobytes() == other.indptr.tobytes()
        assert pattern.indices.tobytes() == other.indices.tobytes()
        assert pattern.data.tobytes() == other.data.tobytes()


class TestColdResolve:
    def test_resolve_matches_cold_prepare(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        got = engine.resolve("Jim Smith")
        want = distinct.cluster_prepared(
            distinct.prepare("Jim Smith"), min_sim=MIN_SIM
        )
        assert got.rows == want.rows
        assert sorted(sorted(c) for c in got.clusters) == sorted(
            sorted(c) for c in want.clusters
        )
        assert got.resem_matrix.tobytes() == want.resem_matrix.tobytes()
        assert got.walk_matrix.tobytes() == want.walk_matrix.tobytes()

    def test_untracked_name_rejected(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        with pytest.raises(ReproError, match="not tracked"):
            engine.resolution("Jim Smith")


class TestStepMatricesAcrossDeltas:
    def test_builder_from_before_a_delta_matches_a_fresh_build(self, warm):
        distinct, split = warm
        db = distinct.db
        builder = distinct.profiles
        refs = extract_references(db, "Jim Smith")
        builder.matrices_for(refs.rows, [refs.exclusions] * len(refs.rows))
        apply_delta(db, split.delta)
        refs = extract_references(db, "Jim Smith")
        exclusions = [refs.exclusions] * len(refs.rows)
        got = builder.matrices_for(refs.rows, exclusions)
        fresh = ProfileBuilder(db, builder.paths).matrices_for(refs.rows, exclusions)
        assert got.keys() == fresh.keys()
        for path in builder.paths:
            for old, new in (
                (got[path].forward, fresh[path].forward),
                (got[path].backward, fresh[path].backward),
            ):
                assert old.shape == new.shape
                assert old.indptr.tobytes() == new.indptr.tobytes()
                assert old.indices.tobytes() == new.indices.tobytes()
                assert old.data.tobytes() == new.data.tobytes()
        # Every feature column, the shared ones included, from either batch.
        pairs = all_pairs(refs.rows)
        old, new = (
            compute_pair_features(distinct.paths_, pairs, batch, distinct.shared_paths_)
            for batch in (got, fresh)
        )
        assert old.resemblance.shape == (len(pairs), len(distinct.paths_))
        assert old.resemblance.tobytes() == new.resemblance.tobytes()
        assert old.walk.tobytes() == new.walk.tobytes()


class TestOneBatchPerDelta:
    def test_ingest_propagates_every_dirty_name_in_one_batch(self, fitted, small_world):
        """One batch for the delta; every name equals a cold resolve of
        the post-delta database, traces included."""
        distinct, split = warm_pipeline(fitted, small_world)
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        report = engine.ingest(split.delta)
        assert runs.value - before == 1
        assert len(report.names_refreshed) >= 2

        cold = IngestEngine(
            Distinct.from_models(
                distinct.db, fitted.resem_model_, fitted.walk_model_, fitted.config
            ),
            min_sim=MIN_SIM,
        )
        for refresh in report.refreshes:
            name = refresh.name
            cold.resolve(name)
            assert_same_state(
                (refresh.resolution, own_traces(engine, name)),
                (cold.resolution(name), own_traces(cold, name)),
                refresh.refreshed,
            )

    def test_apply_runs_the_batch_and_refresh_runs_none(self, warm):
        """``apply`` runs exactly one batch when a name is pending and none
        when none is; the refreshes that follow run none."""
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        runs = get_metrics().counter("propagation.batch.runs")
        for delta, n_batches in ((split.delta, 1), (Delta(), 0)):
            before = runs.value
            engine.apply(delta)
            assert bool(engine.pending()) == bool(n_batches)
            assert runs.value - before == n_batches
            engine.refresh_all()
            assert runs.value - before == n_batches

    def test_steps_extend_only_when_read(self, warm):
        """A refreshing delta leaves every held step pair equal to a fresh
        build on its next read; a delta that grows ``Authors``,
        ``Publications`` and ``Publish`` but dirties no tracked name (a
        new author of one new paper in no proceedings) builds no step."""
        distinct, split = warm
        db = distinct.db
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        assert engine.ingest(split.delta).names_refreshed
        held = list(distinct.steps._pairs)
        assert held
        for step in held:
            got, fresh = distinct.steps.get(db, step), transitions.build_step(db, step)
            for old, new in ((got.forward, fresh.forward), (got.backward, fresh.backward)):
                assert old.shape == new.shape
                assert old.indptr.tobytes() == new.indptr.tobytes()
                assert old.indices.tobytes() == new.indices.tobytes()
                assert old.data.tobytes() == new.data.tobytes()

        built = get_metrics().counter("perf.transitions.built")
        before = built.value
        author_key = max(row[0] for row in db.table("Authors").rows) + 1
        paper_key = max(row[0] for row in db.table("Publications").rows) + 1
        report = engine.ingest(Delta({
            "Authors": [(author_key, "Zed Newcomer")],
            "Publications": [(paper_key, "A paper of its own", None)],
            "Publish": [(paper_key, author_key)],
        }))
        assert report.names_clean == NAMES
        assert built.value == before


class TestExclusionChange:
    def test_gaining_an_object_row_refreshes_from_scratch(self, warm):
        """A second ``Authors`` row named "Jim Smith" with two ``Publish``
        rows changes every reference's exclusions: the refresh counts every
        old reference dirty, reuses no pair, equals a cold resolve, counts
        the two new references and holds the new object rows, so the next
        delta finds it clean."""
        distinct, _ = warm
        db = distinct.db
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        old_objects = extract_references(db, "Jim Smith").object_rows
        old_resolution = engine.resolution("Jim Smith")
        author_key = max(row[0] for row in db.table("Authors").rows) + 1
        papers = [db.table("Publications").row(k)[0] for k in (0, 1)]
        delta = Delta({
            "Authors": [(author_key, "Jim Smith")],
            "Publish": [(paper, author_key) for paper in papers],
        })
        report = engine.ingest(delta)

        refresh = next(r for r in report.refreshes if r.name == "Jim Smith")
        assert refresh.refreshed
        assert refresh.n_refs_new == 2
        # Every old reference is recomputed, so every one counts as dirty.
        assert refresh.n_refs_dirty == 9 == len(old_resolution.rows)
        assert refresh.n_pairs_reused == 0
        assert report.totals()["refs_new"] == 2
        assert report.totals()["refs_dirty"] == 9
        new_objects = extract_references(db, "Jim Smith").object_rows
        assert len(new_objects) == len(old_objects) + 1
        assert engine._states["Jim Smith"].object_rows == new_objects

        cold = IngestEngine(
            Distinct.from_models(
                db, distinct.resem_model_, distinct.walk_model_, distinct.config
            ),
            min_sim=MIN_SIM,
        )
        cold.resolve("Jim Smith")
        assert_same_state(
            (refresh.resolution, own_traces(engine, "Jim Smith")),
            (cold.resolution("Jim Smith"), own_traces(cold, "Jim Smith")),
        )
        assert "Jim Smith" in engine.ingest(Delta()).names_clean

    def test_a_name_of_one_reference_keeps_its_new_object_rows(self, warm):
        distinct, _ = warm
        db = distinct.db
        author_key = max(row[0] for row in db.table("Authors").rows) + 1
        paper = db.table("Publications").row(0)[0]
        apply_delta(db, Delta({
            "Authors": [(author_key, "Ann Newcomer")],
            "Publish": [(paper, author_key)],
        }))
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        assert len(engine.resolve("Ann Newcomer").rows) == 1
        report = engine.ingest(Delta({"Authors": [(author_key + 1, "Ann Newcomer")]}))
        assert report.names_refreshed == ["Ann Newcomer"]
        assert engine._states["Ann Newcomer"].object_rows == (
            extract_references(db, "Ann Newcomer").object_rows
        )
        assert engine.ingest(Delta()).names_clean == ["Ann Newcomer"]


class TestEpochSequencing:
    def test_refresh_without_apply_rejected(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        engine.resolve("Jim Smith")
        with pytest.raises(ReproError, match="apply"):
            engine.refresh("Jim Smith")

    def test_second_apply_with_pending_refreshes_rejected(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        engine.apply(split.delta)
        with pytest.raises(ReproError, match="pending"):
            engine.apply(Delta())

    def test_refresh_drains_pending(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        engine.apply(split.delta)
        for name in NAMES:
            engine.refresh(name)
        assert engine.pending() == []
        # Once drained, the next delta is accepted again.
        engine.apply(Delta())

    def test_empty_delta_leaves_every_name_clean(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        before = {name: engine.resolve(name) for name in NAMES}
        report = engine.ingest(Delta())
        assert report.n_rows_added == 0
        assert sorted(report.names_clean) == sorted(NAMES)
        assert report.names_refreshed == []
        totals = report.totals()
        assert totals["pairs_recomputed"] == 0 and totals["refs_dirty"] == 0
        for name in NAMES:
            got = report.resolution(name)
            assert got.rows == before[name].rows
            assert got.resem_matrix.tobytes() == before[name].resem_matrix.tobytes()


class TestReportSurface:
    def test_resolution_unknown_name_raises(self, warm):
        distinct, _ = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        engine.resolve("Jim Smith")
        report = engine.ingest(Delta())
        with pytest.raises(KeyError):
            report.resolution("Nobody")

    def test_totals_account_every_refresh(self, warm):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        report = engine.ingest(split.delta)
        totals = report.totals()
        assert totals["names_refreshed"] + totals["names_clean"] == len(NAMES)
        assert totals["refs_new"] > 0  # the delta added references
        assert totals["pairs_recomputed"] > 0
