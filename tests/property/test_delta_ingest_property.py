"""Property: delta ingest == cold refit, byte for byte.

Random grown worlds split into (base, delta): an :class:`IngestEngine`
that resolved every name pre-delta and then applies the delta must
produce exactly the rows, clusters, pair matrices, dendrogram merges,
and merge similarities of a cold ``prepare``/``cluster_prepared`` on
the post-delta database with the same fitted models — through the
engine and through the resilient runner — plus a crash-mid-ingest +
resume chaos case through the resilient runner. A community-local delta must also leave a name clean
and let a refreshed name reuse pairs.

The fitted models come from the session-scoped ``fitted`` fixture (the
full small world); each case re-binds them to a pre-delta base via
``Distinct.from_models``, which is exactly the live-service situation
delta ingest models: the models are held fixed, only the database grows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ingest.runner as runner
from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.data.world import world_to_database
from repro.ingest import IngestEngine, ingest_checkpoint, ingest_resilient
from repro.resilience import ErrorCollector, FaultInjected, FaultPlan, fault_plan

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4

def snapshot(resolution):
    """Everything byte-identity compares for one resolved name."""
    clustering = resolution.clustering
    return {
        "rows": list(resolution.rows),
        "clusters": sorted(sorted(c) for c in resolution.clusters),
        "resem": resolution.resem_matrix.tobytes()
        if resolution.resem_matrix is not None
        else None,
        "walk": resolution.walk_matrix.tobytes()
        if resolution.walk_matrix is not None
        else None,
        "merges": list(clustering.dendrogram.merges) if clustering else [],
        "sims": np.asarray(clustering.merge_similarities).tobytes()
        if clustering
        else b"",
    }


def rebind(fitted, db):
    """The fitted models bound to another database instance."""
    return Distinct.from_models(
        db, fitted.resem_model_, fitted.walk_model_, fitted.config
    )


def cold_snapshots(fitted, grown) -> dict:
    """Every name resolved from scratch on the post-delta database."""
    post_db, _ = world_to_database(grown)
    cold = rebind(fitted, post_db)
    return {
        name: snapshot(cold.cluster_prepared(cold.prepare(name), min_sim=MIN_SIM))
        for name in NAMES
    }


def ingest_vs_cold(fitted, world, n_delta, seed, author_pool=None):
    """Run the engine over a grown-world split; assert equality per name."""
    grown = grow_world(world, n_delta, seed=seed, author_pool=author_pool)
    split = split_world(grown, n_delta)

    warm = rebind(fitted, split.base)
    engine = IngestEngine(warm, min_sim=MIN_SIM)
    for name in NAMES:
        engine.resolve(name)
    report = engine.ingest(split.delta)

    for name, expected in cold_snapshots(fitted, grown).items():
        assert snapshot(report.resolution(name)) == expected, (
            f"{name}: delta ingest diverged from cold refit "
            f"(seed={seed}, n_delta={n_delta})"
        )
    return report


@pytest.fixture
def snapshotting_runner(monkeypatch):
    """Make every name the resilient runner scores carry the snapshot of
    the resolution it scored."""
    score = runner.score_resolution

    def scored(resolution, truth):
        result = score(resolution, truth)
        result.snapshot = snapshot(resolution)
        return result

    monkeypatch.setattr(runner, "score_resolution", scored)


def resilient_ingest(fitted, grown, n_delta):
    """``repro ingest``'s route over a grown-world split."""
    split = split_world(grown, n_delta)
    outcome = ingest_resilient(
        rebind(fitted, split.base), split.truth, NAMES, split.delta, MIN_SIM
    )
    assert outcome.complete and not outcome.errors
    assert [r.name for r in outcome.result.names] == NAMES
    return outcome


class TestByteIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        n_delta=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_split_matches_cold_refit(
        self, fitted, small_world, n_delta, seed
    ):
        ingest_vs_cold(
            fitted,
            small_world,
            n_delta,
            seed,
        )

    def test_fixed_split_matches_cold_refit(self, fitted, small_world):
        ingest_vs_cold(fitted, small_world, 12, seed=5)

    def test_parallel_ingest_matches_cold_refit(
        self, fitted, small_world, snapshotting_runner
    ):
        grown = grow_world(small_world, 12, seed=5)
        outcome = resilient_ingest(fitted, grown, 12)
        expected = cold_snapshots(fitted, grown)
        for result in outcome.result.names:
            assert result.snapshot == expected[result.name], result.name
        assert outcome.stats["names_refreshed"] >= 1


class TestLadderReuse:
    """A delta local to one community leaves most of the world's work
    standing: the ladder must reuse it, not only stay byte-identical."""

    #: The fixture world's community 3 hosts one "Jim Smith" and no
    #: "Rakesh Kumar" entity.
    COMMUNITY = 3

    def test_community_local_delta_reuses_pairs(self, fitted, small_world):
        holders: dict[str, int] = {}
        for entity in small_world.entities:
            holders[entity.name] = holders.get(entity.name, 0) + 1
        # Unique-name residents of the community alone: a shared name
        # or a second community would carry the delta further.
        pool = [
            e.entity_id
            for e in small_world.entities
            if e.kind != "ambiguous"
            and set(e.communities) <= {self.COMMUNITY}
            and holders[e.name] == 1
        ][:8]
        report = ingest_vs_cold(fitted, small_world, 3, seed=1, author_pool=pool)
        assert len(report.names_clean) >= 1
        refreshed = [r for r in report.refreshes if r.refreshed]
        assert refreshed
        assert any(r.n_pairs_reused > 0 for r in refreshed)


class TestCrashMidIngestResume:
    """Chaos: a crash between names loses at most the in-flight name."""

    def test_faulted_run_resumes_byte_identical(
        self, fitted, small_world, small_db, tmp_path
    ):
        grown = grow_world(small_world, 8, seed=21)
        split = split_world(grown, 8)
        store_path = tmp_path / "ingest.ckpt.json"

        def runner(checkpoint):
            warm = rebind(
                fitted,
                split_world(grown, 8).base,
            )
            return ingest_resilient(
                warm,
                split.truth,
                NAMES,
                split.delta,
                MIN_SIM,
                checkpoint=checkpoint,
            )

        baseline = runner(None)
        assert baseline.complete and not baseline.errors

        # Crash on the second name mid-refresh; the first is checkpointed.
        store = ingest_checkpoint(store_path, NAMES, split.delta, MIN_SIM, "exact")
        plan = FaultPlan().fail_at("ingest.refresh", item=NAMES[1])
        with fault_plan(plan), pytest.raises(FaultInjected):
            runner(store)
        assert store.exists()
        payload = store.load()
        assert [e["name"] for e in payload["completed"]] == [NAMES[0]]
        assert not payload.get("complete", False)

        # Resume: the checkpointed name is loaded, the rest re-ingested.
        resumed = runner(
            ingest_checkpoint(store_path, NAMES, split.delta, MIN_SIM, "exact")
        )
        assert resumed.complete and not resumed.errors
        assert [r.name for r in resumed.result.names] == NAMES
        for got, want in zip(resumed.result.names, baseline.result.names):
            assert got.name == want.name
            assert got.scores == want.scores
            assert got.n_clusters == want.n_clusters

    def test_collect_policy_scores_the_rest(self, fitted, small_world):
        grown = grow_world(small_world, 8, seed=21)
        split = split_world(grown, 8)
        warm = rebind(
            fitted,
            split_world(grown, 8).base,
        )
        collector = ErrorCollector()
        with fault_plan(FaultPlan().fail_at("ingest.refresh", item=NAMES[1])):
            outcome = ingest_resilient(
                warm,
                split.truth,
                NAMES,
                split.delta,
                MIN_SIM,
                policy="collect",
                collector=collector,
            )
        assert collector.items() == [NAMES[1]]
        assert [r.name for r in outcome.result.names] == [NAMES[0], NAMES[2]]
