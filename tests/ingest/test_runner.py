"""Unit tests for :mod:`repro.ingest.runner` (the ``repro ingest`` engine).

Crash/resume byte-identity lives in the property suite; these tests pin
the parameter validation, the delta fingerprint, the checkpoint
signature (resuming against a different delta must refuse, not mix
epochs), resume under an expired deadline, and the one propagation
batch behind every exact-mode refresh.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import repro.ingest.runner as runner
from repro.core.distinct import Distinct
from repro.data.deltas import grow_world, split_world
from repro.errors import CheckpointError
from repro.eval.persistence import experiment_result_to_dict
from repro.ingest import IngestEngine, ingest_checkpoint, ingest_resilient
from repro.ingest.runner import INGEST_MODES, delta_fingerprint
from repro.obs import get_metrics
from repro.reldb.delta import Delta
from repro.resilience import Deadline, FaultInjected, FaultPlan, fault_plan

from tests.ingest.test_engine import assert_same_state, own_traces

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.4


def sample_delta() -> Delta:
    delta = Delta()
    delta.add("Publications", (9, "A Study", 0))
    delta.add("Publish", (9, 1))
    return delta


class TestDeltaFingerprint:
    def test_stable_and_prefixed(self):
        a, b = sample_delta(), sample_delta()
        assert delta_fingerprint(a) == delta_fingerprint(b)
        assert delta_fingerprint(a).startswith("sha256:")

    def test_row_content_changes_the_hash(self):
        other = sample_delta()
        other.add("Publish", (9, 2))
        assert delta_fingerprint(other) != delta_fingerprint(sample_delta())

    def test_row_order_changes_the_hash(self):
        # Row order within a relation fixes row ids: part of the identity.
        base, flipped = Delta(), Delta()
        base.add("Publish", (9, 1))
        base.add("Publish", (9, 2))
        flipped.add("Publish", (9, 2))
        flipped.add("Publish", (9, 1))
        assert delta_fingerprint(flipped) != delta_fingerprint(base)

    def test_relation_order_is_canonicalized(self):
        # Relation insertion order cannot change what apply_delta builds
        # (virtual tables are per relation-attribute), so it is not part
        # of the fingerprint.
        flipped = Delta()
        flipped.add("Publish", (9, 1))
        flipped.add("Publications", (9, "A Study", 0))
        assert delta_fingerprint(flipped) == delta_fingerprint(sample_delta())


class TestCheckpointSignature:
    def test_resume_with_a_different_delta_refuses(self, tmp_path):
        path = tmp_path / "ingest.ckpt.json"
        store = ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact")
        store.save([], errors=[])

        other = sample_delta()
        other.add("Publish", (9, 2))
        mismatched = ingest_checkpoint(path, NAMES, other, MIN_SIM, "exact")
        with pytest.raises(CheckpointError):
            mismatched.load()

    def test_resume_with_the_same_parameters_loads(self, tmp_path):
        path = tmp_path / "ingest.ckpt.json"
        ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact").save(
            [], errors=[]
        )
        payload = ingest_checkpoint(
            path, NAMES, sample_delta(), MIN_SIM, "exact"
        ).load()
        assert payload is not None and payload["completed"] == []

    @pytest.mark.parametrize(
        "names,min_sim,mode",
        [(NAMES[:2], MIN_SIM, "exact"), (NAMES, 0.5, "exact"), (NAMES, MIN_SIM, "greedy")],
    )
    def test_any_other_parameter_change_refuses(self, tmp_path, names, min_sim, mode):
        path = tmp_path / "ingest.ckpt.json"
        ingest_checkpoint(path, NAMES, sample_delta(), MIN_SIM, "exact").save(
            [], errors=[]
        )
        with pytest.raises(CheckpointError):
            ingest_checkpoint(path, names, sample_delta(), min_sim, mode).load()


class TestParameterValidation:
    def test_unknown_mode_rejected(self, fitted, small_world):
        split = split_world(grow_world(small_world, 2, seed=0), 2)
        with pytest.raises(ValueError, match="mode"):
            ingest_resilient(
                fitted, split.truth, NAMES, split.delta, MIN_SIM, mode="fast"
            )
        assert INGEST_MODES == ("exact", "greedy")


class TestGreedyMode:
    def test_greedy_run_scores_every_name(self, fitted, small_world):
        grown = grow_world(small_world, 5, seed=17)
        split = split_world(grown, 5)
        warm = Distinct.from_models(
            split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
        )
        outcome = ingest_resilient(
            warm, split.truth, NAMES, split.delta, MIN_SIM, mode="greedy"
        )
        assert outcome.complete and not outcome.errors
        assert [r.name for r in outcome.result.names] == NAMES
        assert outcome.result.variant_key == "ingest:greedy"
        assert outcome.stats["names_refreshed"] == len(NAMES)

    def test_greedy_run_plans_nothing_and_runs_no_exact_batch(
        self, fitted, small_world, monkeypatch
    ):
        """Greedy mode applies the delta alone: no refresh plan, no
        exact-mode batch, and the delta's epoch is still reported."""

        def forbidden(*args, **kwargs):
            raise AssertionError("greedy ingest ran exact-mode work")

        monkeypatch.setattr(IngestEngine, "apply", forbidden)
        monkeypatch.setattr(IngestEngine, "_plan", forbidden)
        monkeypatch.setattr(IngestEngine, "_propagate", forbidden)
        split = grown_split(small_world)
        outcome = ingest_resilient(
            warm(fitted, split), split.truth, NAMES, split.delta, MIN_SIM, mode="greedy"
        )
        assert outcome.complete and not outcome.errors
        assert outcome.epoch == 1


def grown_split(small_world):
    """The test world grown by five papers, split into base and delta."""
    return split_world(grow_world(small_world, 5, seed=17), 5)


def warm(fitted, split) -> Distinct:
    return Distinct.from_models(
        split.base, fitted.resem_model_, fitted.walk_model_, fitted.config
    )


def result_json(outcome) -> str:
    return json.dumps(experiment_result_to_dict(outcome.result), sort_keys=True)


class TestResumeUnderDeadline:
    def test_expired_deadline_keeps_checkpointed_names(
        self, fitted, small_world, tmp_path
    ):
        """Crash on the third name, then resume past the deadline: the
        checkpoint keeps both finished names, and a later resume matches
        an uninterrupted run byte for byte."""
        path = tmp_path / "ingest.ckpt.json"
        delta = grown_split(small_world).delta

        def run(deadline=None):
            split = grown_split(small_world)
            return ingest_resilient(
                warm(fitted, split), split.truth, NAMES, split.delta, MIN_SIM,
                checkpoint=ingest_checkpoint(path, NAMES, delta, MIN_SIM, "exact"),
                deadline=deadline,
            )

        split = grown_split(small_world)
        baseline = ingest_resilient(
            warm(fitted, split), split.truth, NAMES, split.delta, MIN_SIM
        )
        with fault_plan(FaultPlan().fail_at("ingest.refresh", item=NAMES[2])):
            with pytest.raises(FaultInjected):
                run()
        before = json.loads(path.read_text())["completed"]
        assert [e["name"] for e in before] == NAMES[:2]

        ticks = itertools.chain([0.0], itertools.repeat(100.0))
        outcome = run(Deadline(1.0, clock=lambda: next(ticks)))
        saved = json.loads(path.read_text())
        assert saved["completed"] == before
        assert saved["complete"] is False
        assert outcome.interrupted and not outcome.complete
        assert [r.name for r in outcome.result.names] == NAMES[:2]

        resumed = run()
        assert resumed.complete
        assert result_json(resumed) == result_json(baseline)


class TestOneRefreshBatch:
    def test_refreshes_share_one_batch_and_match_the_per_name_route(
        self, fitted, small_world, monkeypatch
    ):
        """Exact mode propagates every refresh in one batch after the
        per-name cold batches, and resolves exactly as a cold resolve of
        the post-delta database does, traces included."""
        resolutions = {}
        engines = []
        score, refresh_task = runner.score_resolution, runner._refresh_task

        def scored(resolution, truth):
            resolutions[resolution.name] = resolution
            return score(resolution, truth)

        def refreshed(payload, name):
            engines.append(payload[0])
            return refresh_task(payload, name)

        monkeypatch.setattr(runner, "score_resolution", scored)
        monkeypatch.setattr(runner, "_refresh_task", refreshed)
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        split = grown_split(small_world)
        distinct = warm(fitted, split)
        outcome = ingest_resilient(
            distinct, split.truth, NAMES, split.delta, MIN_SIM
        )
        assert outcome.complete
        assert outcome.stats["names_refreshed"] == len(NAMES)
        assert runs.value - before == len(NAMES) + 1

        cold = IngestEngine(
            Distinct.from_models(
                distinct.db, fitted.resem_model_, fitted.walk_model_, fitted.config
            ),
            min_sim=MIN_SIM,
        )
        for name in NAMES:
            expected = cold.resolve(name)
            got = resolutions[name]
            assert_same_state(
                (got, own_traces(engines[0], name)), (expected, own_traces(cold, name))
            )
            assert (
                np.asarray(got.clustering.merge_similarities).tobytes()
                == np.asarray(expected.clustering.merge_similarities).tobytes()
            )
