"""Acceptance scenarios: checkpoint/resume and error policies end to end.

These are the ISSUE's acceptance criteria: a run interrupted after K of N
names resumes to a byte-identical ExperimentResult JSON, and a run with one
poisoned name under ``collect`` finishes, reports exactly that name, and
scores the rest.
"""

import itertools
import json

import pytest

from repro.core.variants import variant_by_key
from repro.errors import CheckpointError
from repro.eval.persistence import experiment_result_to_dict
from repro.eval.runner import experiment_checkpoint, run_resilient
from repro.eval.calibration import calibrate_min_sim, calibration_checkpoint
from repro.resilience import ErrorCollector, FaultInjected, FaultPlan, Deadline, fault_plan

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.006
VARIANT = variant_by_key("distinct")


def expiring_deadline(checks_in_budget: int = 0) -> Deadline:
    """A deadline whose first ``checks_in_budget`` checks pass and every
    later one finds it expired."""
    ticks = itertools.chain(
        [0.0], itertools.repeat(0.5, checks_in_budget), itertools.repeat(100.0)
    )
    return Deadline(1.0, clock=lambda: next(ticks))


@pytest.fixture(scope="module")
def baseline(fitted, small_db):
    """An uninterrupted run and its canonical JSON serialization."""
    _, truth = small_db
    outcome = run_resilient(fitted, truth, NAMES, VARIANT, MIN_SIM)
    assert outcome.complete and not outcome.errors
    return outcome.result, json.dumps(
        experiment_result_to_dict(outcome.result), sort_keys=True
    )


class TestCrashAndResume:
    def test_resume_after_midrun_crash_is_byte_identical(
        self, fitted, small_db, tmp_path, baseline
    ):
        _, truth = small_db
        _, baseline_json = baseline
        ckpt_path = tmp_path / "run.ckpt.json"

        def checkpoint():
            return experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM)

        # Crash while profiling the third name (after 2 of 3 completed).
        with fault_plan(FaultPlan().fail_at("profile", item=NAMES[2])):
            with pytest.raises(FaultInjected):
                run_resilient(
                    fitted, truth, NAMES, VARIANT, MIN_SIM,
                    checkpoint=checkpoint(),
                )

        saved = json.loads(ckpt_path.read_text())
        assert [e["name"] for e in saved["completed"]] == NAMES[:2]
        assert saved["complete"] is False

        # Resume: the two completed names must come from the checkpoint —
        # recomputing them would trip these faults.
        replay_guard = FaultPlan()
        replay_guard.fail_at("profile", item=NAMES[0])
        replay_guard.fail_at("profile", item=NAMES[1])
        with fault_plan(replay_guard):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM,
                checkpoint=checkpoint(),
            )

        assert outcome.complete
        assert not replay_guard.triggered
        resumed_json = json.dumps(
            experiment_result_to_dict(outcome.result), sort_keys=True
        )
        assert resumed_json == baseline_json
        assert json.loads(ckpt_path.read_text())["complete"] is True

    def test_checkpoint_from_different_run_is_rejected(
        self, fitted, small_db, tmp_path
    ):
        _, truth = small_db
        ckpt_path = tmp_path / "run.ckpt.json"
        run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM,
            checkpoint=experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM),
        )
        with pytest.raises(CheckpointError, match="min_sim"):
            run_resilient(
                fitted, truth, NAMES, VARIANT, 0.5,
                checkpoint=experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, 0.5),
            )


class TestPoisonedName:
    def test_collect_scores_the_rest_and_reports_exactly_the_poisoned_name(
        self, fitted, small_db, baseline
    ):
        _, truth = small_db
        baseline_result, _ = baseline
        poisoned = NAMES[1]
        with fault_plan(FaultPlan().fail_at("profile", item=poisoned, times=-1)):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM, policy="collect"
            )

        assert outcome.errors.items() == [poisoned]
        assert [r.name for r in outcome.result.names] == [NAMES[0], NAMES[2]]
        # The surviving names score exactly as in the clean run.
        by_name = {r.name: r for r in baseline_result.names}
        for r in outcome.result.names:
            assert r.scores == by_name[r.name].scores

    def test_skip_policy_drops_silently(self, fitted, small_db):
        _, truth = small_db
        with fault_plan(FaultPlan().fail_at("cluster", item=NAMES[0], times=-1)):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM, policy="skip"
            )
        assert [r.name for r in outcome.result.names] == NAMES[1:]
        assert not outcome.errors

    def test_raise_policy_propagates(self, fitted, small_db):
        _, truth = small_db
        with fault_plan(FaultPlan().fail_at("cluster", item=NAMES[0])):
            with pytest.raises(FaultInjected):
                run_resilient(fitted, truth, NAMES, VARIANT, MIN_SIM)


class TestDeadline:
    def test_expired_deadline_interrupts_gracefully(
        self, fitted, small_db, tmp_path
    ):
        _, truth = small_db
        ckpt_path = tmp_path / "run.ckpt.json"
        # Clock: one name's worth of budget, then far past the deadline.
        ticks = iter([0.0] + [100.0] * 100)
        deadline = Deadline(1.0, clock=lambda: next(ticks))
        outcome = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM,
            checkpoint=experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM),
            deadline=deadline,
        )
        assert outcome.interrupted and outcome.n_completed == 0
        # The checkpoint exists and a later unconstrained run resumes it.
        resumed = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM,
            checkpoint=experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM),
        )
        assert resumed.complete and resumed.n_completed == len(NAMES)


class TestCalibrationResilience:
    def test_poisoned_synthetic_name_collected(self, fitted):
        baseline = calibrate_min_sim(fitted, n_names=4, members=2, seed=3)
        poisoned = "+".join(baseline.details[1].member_names)
        collector = ErrorCollector()
        with fault_plan(FaultPlan().fail_at("profile", item=poisoned, times=-1)):
            degraded = calibrate_min_sim(
                fitted, n_names=4, members=2, seed=3,
                policy="collect", collector=collector,
            )
        assert collector.items(stage="calibration.name") == [poisoned]
        assert degraded.n_scored == 3
        assert set(degraded.f1_by_min_sim) == set(baseline.f1_by_min_sim)

    def test_checkpoint_resume_reproduces_f1_table(self, fitted, tmp_path):
        ckpt_path = tmp_path / "cal.ckpt.json"

        def checkpoint():
            return calibration_checkpoint(ckpt_path, n_names=4, members=2, seed=3)

        baseline = calibrate_min_sim(fitted, n_names=4, members=2, seed=3)
        third = "+".join(baseline.details[2].member_names)
        with fault_plan(FaultPlan().fail_at("profile", item=third)):
            with pytest.raises(FaultInjected):
                calibrate_min_sim(
                    fitted, n_names=4, members=2, seed=3, checkpoint=checkpoint()
                )
        assert len(json.loads(ckpt_path.read_text())["completed"]) == 2

        resumed = calibrate_min_sim(
            fitted, n_names=4, members=2, seed=3, checkpoint=checkpoint()
        )
        assert resumed.f1_by_min_sim == baseline.f1_by_min_sim
        assert resumed.best_min_sim == baseline.best_min_sim
        assert json.loads(ckpt_path.read_text())["complete"] is True


class TestResumeUnderDeadline:
    """A resumed run that meets its deadline keeps every checkpointed entry:
    the checkpoint it writes back never holds fewer than it loaded."""

    def test_experiment_keeps_checkpointed_names(
        self, fitted, small_db, tmp_path, baseline
    ):
        _, truth = small_db
        _, baseline_json = baseline
        ckpt_path = tmp_path / "run.ckpt.json"

        def checkpoint():
            return experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM)

        with fault_plan(FaultPlan().fail_at("profile", item=NAMES[2])):
            with pytest.raises(FaultInjected):
                run_resilient(
                    fitted, truth, NAMES, VARIANT, MIN_SIM, checkpoint=checkpoint()
                )
        before = json.loads(ckpt_path.read_text())["completed"]
        assert [e["name"] for e in before] == NAMES[:2]

        outcome = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM,
            checkpoint=checkpoint(), deadline=expiring_deadline(),
        )
        saved = json.loads(ckpt_path.read_text())
        assert saved["completed"] == before
        assert saved["complete"] is False
        assert outcome.interrupted and not outcome.complete
        assert [r.name for r in outcome.result.names] == NAMES[:2]

        resumed = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM, checkpoint=checkpoint()
        )
        assert resumed.complete
        resumed_json = json.dumps(
            experiment_result_to_dict(resumed.result), sort_keys=True
        )
        assert resumed_json == baseline_json

    @pytest.mark.parametrize("checks_in_budget", [0, 1])
    def test_calibration_keeps_checkpointed_names(
        self, fitted, tmp_path, checks_in_budget
    ):
        ckpt_path = tmp_path / "cal.ckpt.json"

        def checkpoint():
            return calibration_checkpoint(ckpt_path, n_names=4, members=2, seed=3)

        baseline = calibrate_min_sim(fitted, n_names=4, members=2, seed=3)
        third = "+".join(baseline.details[2].member_names)
        with fault_plan(FaultPlan().fail_at("profile", item=third)):
            with pytest.raises(FaultInjected):
                calibrate_min_sim(
                    fitted, n_names=4, members=2, seed=3, checkpoint=checkpoint()
                )
        before = json.loads(ckpt_path.read_text())["completed"]
        assert len(before) == 2

        interrupted = calibrate_min_sim(
            fitted, n_names=4, members=2, seed=3, checkpoint=checkpoint(),
            deadline=expiring_deadline(checks_in_budget),
        )
        saved = json.loads(ckpt_path.read_text())
        assert saved["completed"][:2] == before
        assert len(saved["completed"]) == 2 + checks_in_budget
        assert saved["complete"] is False
        assert interrupted.interrupted
        assert interrupted.n_scored == 2 + checks_in_budget

        resumed = calibrate_min_sim(
            fitted, n_names=4, members=2, seed=3, checkpoint=checkpoint()
        )
        assert not resumed.interrupted
        assert json.dumps(resumed.f1_by_min_sim) == json.dumps(
            baseline.f1_by_min_sim
        )
        assert resumed.best_min_sim == baseline.best_min_sim
        assert json.loads(ckpt_path.read_text())["complete"] is True
