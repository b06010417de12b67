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
from repro.core.references import exclusions_for_name, extract_references
from repro.data.deltas import grow_world, split_world
from repro.errors import ReproError
from repro.ingest import IngestEngine, dirty
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
        builder = distinct.profile_builder("Jim Smith")
        builder.matrices_for(extract_references(db, "Jim Smith").rows)
        apply_delta(db, split.delta)
        rows = extract_references(db, "Jim Smith").rows
        got = builder.matrices_for(rows)
        fresh = ProfileBuilder(
            db, distinct.paths_, exclusions_for_name(db, "Jim Smith")
        ).matrices_for(rows)
        for path in distinct.paths_:
            for old, new in (
                (got[path].forward, fresh[path].forward),
                (got[path].backward, fresh[path].backward),
            ):
                assert old.shape == new.shape
                assert old.indptr.tobytes() == new.indptr.tobytes()
                assert old.indices.tobytes() == new.indices.tobytes()
                assert old.data.tobytes() == new.data.tobytes()


class TestOneBatchPerDelta:
    def test_ingest_propagates_every_dirty_name_in_one_batch(self, fitted, small_world):
        """One batch for the delta; every name equals its own refresh and
        a cold resolve of the post-delta database, traces included."""
        distinct, split = warm_pipeline(fitted, small_world)
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        report = engine.ingest(split.delta)
        assert runs.value - before == 1
        assert len(report.names_refreshed) >= 2

        alone_distinct, alone_split = warm_pipeline(fitted, small_world)
        alone = IngestEngine(alone_distinct, min_sim=MIN_SIM)
        for name in NAMES:
            alone.resolve(name)
        alone.apply(alone_split.delta)
        for name in NAMES:
            alone.refresh(name)

        cold = IngestEngine(
            Distinct.from_models(
                alone_distinct.db, fitted.resem_model_, fitted.walk_model_, fitted.config
            ),
            min_sim=MIN_SIM,
        )
        for refresh in report.refreshes:
            name = refresh.name
            got = (refresh.resolution, refresh.traces)
            assert_same_state(got, (alone.resolution(name), alone._states[name].traces))
            cold.resolve(name)
            assert_same_state(
                got, (cold.resolution(name), cold._states[name].traces), refresh.refreshed
            )

    def test_each_grown_step_is_probed_once_per_delta(self, warm, monkeypatch):
        distinct, split = warm
        engine = IngestEngine(distinct, min_sim=MIN_SIM)
        for name in NAMES:
            engine.resolve(name)
        probed = []
        probe = transitions.grown_partner_rows

        def spy(db, step, n_src, n_dst):
            probed.append(step)
            return probe(db, step, n_src, n_dst)

        monkeypatch.setattr(transitions, "grown_partner_rows", spy)
        monkeypatch.setattr(dirty, "grown_partner_rows", spy)
        per_delta = []
        for delta in (split.delta, Delta()):
            probed.clear()
            report = engine.ingest(delta)
            assert len(probed) == len(set(probed))
            per_delta.append(len(probed))
        assert per_delta[0] > 0 and per_delta[1] == 0
        assert report.names_clean == NAMES
        db = distinct.db
        held = list(distinct.steps._pairs.items())
        assert held
        for step, pair in held:
            fresh = transitions.build_step(db, step)
            for old, new in ((pair.forward, fresh.forward), (pair.backward, fresh.backward)):
                assert old.shape == new.shape
                assert old.indptr.tobytes() == new.indptr.tobytes()
                assert old.indices.tobytes() == new.indices.tobytes()
                assert old.data.tobytes() == new.data.tobytes()


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
