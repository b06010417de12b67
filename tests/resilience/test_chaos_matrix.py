"""Chaos fault matrix: process kills × file corruption × pair-feature failures.

Sweeps fault × site × policy and asserts the recovery invariants the
robustness layer promises:

- a SIGKILLed pool worker costs nothing: the run completes with results
  byte-identical to a serial run and ``perf.parallel.worker_deaths`` == 1;
- a name that kills its worker on every dispatch exhausts its re-dispatch
  budget and surfaces as a ``WorkerCrashed`` error under each ``--on-error``
  policy, exactly like an in-process failure;
- corrupted (truncated / bit-flipped) checkpoints are quarantined and the
  run restarts from nothing — never silently resumed;
- an injected ``MemoryError`` in the pair-feature route propagates: there
  is no slower route to fall back to;
- a deadline-expired run leaves a resumable (``complete: false``)
  checkpoint, including after a worker-crash abort.

Set ``CHAOS_REPORT_DIR`` to collect per-scenario JSON reports (the CI
``chaos`` job uploads them as artifacts).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.distinct import Distinct
from repro.core.variants import variant_by_key
from repro.eval.persistence import experiment_result_to_dict
from repro.eval.runner import experiment_checkpoint, run_resilient
from repro.obs import get_metrics
from repro.perf import RemoteTaskError
from repro.resilience import (
    Deadline,
    ErrorCollector,
    FaultPlan,
    fault_plan,
    flip_byte,
    truncate_file,
)

NAMES = ["Wei Wang", "Rakesh Kumar", "Jim Smith"]
MIN_SIM = 0.006
VARIANT = variant_by_key("distinct")
WORKERS = int(os.environ.get("CHAOS_WORKERS", "4"))


def _counter(name: str) -> float:
    return get_metrics().counter(name).value


def _result_json(result) -> str:
    return json.dumps(experiment_result_to_dict(result), sort_keys=True)


def _report(scenario: str, payload: dict) -> None:
    """Drop a per-scenario JSON report for the CI artifact upload."""
    report_dir = os.environ.get("CHAOS_REPORT_DIR")
    if not report_dir:
        return
    out = Path(report_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{scenario}.json").write_text(json.dumps(payload, indent=2))


@pytest.fixture(scope="module")
def baseline(fitted, small_db):
    """The uninterrupted serial run every chaos scenario must reproduce."""
    _, truth = small_db
    outcome = run_resilient(fitted, truth, NAMES, VARIANT, MIN_SIM)
    assert outcome.complete and not outcome.errors
    return outcome.result, _result_json(outcome.result)


class TestWorkerSigkill:
    """Fault: SIGKILL a pool worker. Site: the per-name experiment loop."""

    def test_one_death_run_completes_byte_identical(
        self, fitted, small_db, tmp_path, baseline
    ):
        _, truth = small_db
        _, baseline_json = baseline
        deaths0 = _counter("perf.parallel.worker_deaths")
        plan = FaultPlan().kill_at(
            "profile", item=NAMES[1], once_path=tmp_path / "latch"
        )
        with fault_plan(plan):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS
            )
        deaths = _counter("perf.parallel.worker_deaths") - deaths0
        assert outcome.complete and not outcome.errors
        assert _result_json(outcome.result) == baseline_json
        assert deaths == 1
        _report("worker_sigkill_once", {
            "workers": WORKERS,
            "worker_deaths": deaths,
            "byte_identical": True,
        })

    def test_repeat_killer_collect_reports_it_and_scores_the_rest(
        self, fitted, small_db, baseline
    ):
        _, truth = small_db
        baseline_result, _ = baseline
        collector = ErrorCollector()
        with fault_plan(FaultPlan().kill_at("profile", item=NAMES[1])):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS,
                policy="collect", collector=collector,
            )
        assert collector.items() == [NAMES[1]]
        (record,) = collector.records
        assert "WorkerCrashed" in str(record.error)
        assert [r.name for r in outcome.result.names] == [NAMES[0], NAMES[2]]
        by_name = {r.name: r for r in baseline_result.names}
        for r in outcome.result.names:
            assert r.scores == by_name[r.name].scores
        _report("worker_sigkill_repeat_collect", {
            "workers": WORKERS,
            "failed": collector.items(),
            "scored": [r.name for r in outcome.result.names],
        })

    def test_repeat_killer_skip_drops_it(self, fitted, small_db):
        _, truth = small_db
        with fault_plan(FaultPlan().kill_at("profile", item=NAMES[1])):
            outcome = run_resilient(
                fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS,
                policy="skip",
            )
        assert [r.name for r in outcome.result.names] == [NAMES[0], NAMES[2]]
        assert not outcome.errors

    def test_repeat_killer_raise_propagates_worker_crashed(
        self, fitted, small_db
    ):
        _, truth = small_db
        with fault_plan(FaultPlan().kill_at("profile", item=NAMES[1])):
            with pytest.raises(RemoteTaskError, match="WorkerCrashed"):
                run_resilient(
                    fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS
                )

    def test_resume_after_crash_aborted_parallel_run(
        self, fitted, small_db, tmp_path, baseline
    ):
        """--resume after a SIGKILLed worker aborted the run (ISSUE
        satellite): the checkpoint holds the pre-crash progress and the
        resumed run reproduces the baseline byte-for-byte."""
        _, truth = small_db
        _, baseline_json = baseline
        ckpt_path = tmp_path / "run.ckpt.json"

        def checkpoint():
            return experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM)

        with fault_plan(FaultPlan().kill_at("profile", item=NAMES[1])):
            with pytest.raises(RemoteTaskError, match="WorkerCrashed"):
                run_resilient(
                    fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS,
                    checkpoint=checkpoint(),
                )
        saved = json.loads(ckpt_path.read_text())
        assert saved["complete"] is False
        assert [e["name"] for e in saved["completed"]] == [NAMES[0]]

        resumed = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS,
            checkpoint=checkpoint(),
        )
        assert resumed.complete
        assert _result_json(resumed.result) == baseline_json
        assert json.loads(ckpt_path.read_text())["complete"] is True
        _report("resume_after_worker_crash", {
            "checkpointed_before_crash": [NAMES[0]],
            "resumed_byte_identical": True,
        })


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(
            lambda p: truncate_file(p, p.stat().st_size // 3), id="truncate"
        ),
        pytest.param(lambda p: flip_byte(p, -30), id="bitflip"),
    ],
)
class TestCheckpointCorruption:
    """Fault: torn write / bit rot. Site: the resume path of both loops."""

    def test_corrupt_checkpoint_quarantined_then_run_completes(
        self, fitted, small_db, tmp_path, baseline, corrupt
    ):
        _, truth = small_db
        _, baseline_json = baseline
        ckpt_path = tmp_path / "run.ckpt.json"

        def checkpoint():
            return experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM)

        run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM, checkpoint=checkpoint()
        )
        corrupt(ckpt_path)
        quarantined0 = _counter("checkpoint.corrupt_quarantined")
        resumed0 = _counter("checkpoint.items_resumed")

        outcome = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM, checkpoint=checkpoint()
        )

        # Quarantined and reported — never silently resumed.
        assert _counter("checkpoint.corrupt_quarantined") - quarantined0 == 1
        assert _counter("checkpoint.items_resumed") == resumed0
        assert (tmp_path / "run.ckpt.json.corrupt").exists()
        # The rerun restarted from nothing and still reproduced the baseline.
        assert outcome.complete
        assert _result_json(outcome.result) == baseline_json
        fresh = json.loads(ckpt_path.read_text())
        assert fresh["complete"] is True and len(fresh["completed"]) == len(NAMES)


class TestBackendMemoryError:
    """Fault: MemoryError in pair features. Site: compute_pair_features."""

    def test_strict_propagates(self, fitted):
        with fault_plan(
            FaultPlan().fail_at("features.backend", exc=MemoryError("oom"))
        ) as plan:
            with pytest.raises(MemoryError):
                fitted.resolve(NAMES[0])
        assert plan.triggered


class TestSharedMemoryCrash:
    """Fault: SIGKILL under shared-memory dispatch. Site: payload lifecycle.

    The respawned pool must re-attach the still-linked segment, results
    must stay byte-identical, and the segment must be unlinked exactly
    once when the runner's ``with`` block exits — the autouse
    ``_no_leaked_shm_segments`` fixture in conftest.py enforces the
    latter after every scenario here.
    """

    def _shared(self, fitted) -> Distinct:
        config = fitted.config.with_options(
            shared_memory=True, shard_strategy="cost"
        )
        return Distinct.from_models(
            fitted.db, fitted.resem_model_, fitted.walk_model_, config
        )

    def test_clean_shared_run_matches_baseline(self, fitted, small_db, baseline):
        _, truth = small_db
        _, baseline_json = baseline
        outcome = run_resilient(
            self._shared(fitted), truth, NAMES, VARIANT, MIN_SIM, workers=WORKERS
        )
        assert outcome.complete and not outcome.errors
        assert _result_json(outcome.result) == baseline_json

    def test_one_death_respawns_reattaches_and_unlinks_once(
        self, fitted, small_db, tmp_path, baseline
    ):
        _, truth = small_db
        _, baseline_json = baseline
        unlinks0 = _counter("perf.shm.unlinks")
        deaths0 = _counter("perf.parallel.worker_deaths")
        plan = FaultPlan().kill_at(
            "profile", item=NAMES[1], once_path=tmp_path / "latch"
        )
        with fault_plan(plan):
            outcome = run_resilient(
                self._shared(fitted), truth, NAMES, VARIANT, MIN_SIM,
                workers=WORKERS,
            )
        assert outcome.complete and not outcome.errors
        assert _result_json(outcome.result) == baseline_json
        assert _counter("perf.parallel.worker_deaths") - deaths0 == 1
        assert _counter("perf.shm.unlinks") - unlinks0 == 1
        _report("shm_worker_sigkill_once", {
            "workers": WORKERS,
            "byte_identical": True,
            "unlinks": 1,
        })

    def test_deadline_tail_still_unlinks(self, fitted, small_db):
        _, truth = small_db
        unlinks0 = _counter("perf.shm.unlinks")
        ticks = iter([0.0, 0.5] + [100.0] * 100)
        outcome = run_resilient(
            self._shared(fitted), truth, NAMES, VARIANT, MIN_SIM,
            workers=WORKERS,
            deadline=Deadline(1.0, clock=lambda: next(ticks)),
        )
        assert outcome.interrupted
        assert _counter("perf.shm.unlinks") - unlinks0 == 1

    def test_deadline_before_first_dispatch_still_unlinks(
        self, fitted, small_db
    ):
        # Expiry before the first next() means the map generator never
        # starts, so its finally never runs — the runner itself must
        # release the segment (generator.close() on an unstarted
        # generator is a no-op).
        _, truth = small_db
        unlinks0 = _counter("perf.shm.unlinks")
        ticks = iter([0.0] + [100.0] * 100)
        outcome = run_resilient(
            self._shared(fitted), truth, NAMES, VARIANT, MIN_SIM,
            workers=WORKERS,
            deadline=Deadline(1.0, clock=lambda: next(ticks)),
        )
        assert outcome.interrupted
        assert outcome.n_completed == 0
        assert _counter("perf.shm.unlinks") - unlinks0 == 1


class TestDeadlineCheckpoint:
    """Fault: wall-clock exhaustion. Site: the resilient experiment loop."""

    def test_expired_run_leaves_resumable_not_complete_checkpoint(
        self, fitted, small_db, tmp_path, baseline
    ):
        _, truth = small_db
        _, baseline_json = baseline
        ckpt_path = tmp_path / "run.ckpt.json"

        def checkpoint():
            return experiment_checkpoint(ckpt_path, NAMES, VARIANT.key, MIN_SIM)

        # One name's worth of clock, then far past the deadline.
        ticks = iter([0.0, 0.5] + [100.0] * 100)
        outcome = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM,
            checkpoint=checkpoint(),
            deadline=Deadline(1.0, clock=lambda: next(ticks)),
        )
        assert outcome.interrupted and not outcome.complete

        saved = json.loads(ckpt_path.read_text())
        assert saved["complete"] is False  # resumable, not final
        assert len(saved["completed"]) < len(NAMES)

        resumed = run_resilient(
            fitted, truth, NAMES, VARIANT, MIN_SIM, checkpoint=checkpoint()
        )
        assert resumed.complete
        assert _result_json(resumed.result) == baseline_json
        assert json.loads(ckpt_path.read_text())["complete"] is True
        _report("deadline_resumable_checkpoint", {
            "completed_before_deadline": len(saved["completed"]),
            "resumed_byte_identical": True,
        })
