"""Parallel per-name execution must be indistinguishable from serial.

The acceptance bar is byte-identical serialized results: ``--workers N``
may only change wall-clock time, never a single byte of the
:class:`~repro.eval.experiment.ExperimentResult` JSON.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.variants import variant_by_key
from repro.errors import DeadlineExceeded
from repro.eval.persistence import experiment_result_to_dict
from repro.eval.runner import run_resilient
from repro.eval.calibration import calibrate_min_sim
from repro.obs import disable_tracing, enable_tracing
from repro.resilience import Deadline, ErrorCollector, FaultPlan, fault_plan


@pytest.fixture(scope="module")
def names(small_world):
    return small_world.ambiguous_names


def _result_bytes(outcome) -> str:
    return json.dumps(experiment_result_to_dict(outcome.result), sort_keys=True)


class TestParallelExperiment:
    def test_workers_4_byte_identical_to_serial(self, fitted, small_db, names):
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        serial = run_resilient(fitted, truth, names, variant, min_sim)
        parallel = run_resilient(
            fitted, truth, names, variant, min_sim, workers=4
        )
        assert _result_bytes(serial) == _result_bytes(parallel)
        assert not parallel.interrupted
        assert parallel.complete

    def test_worker_failure_follows_skip_policy(self, fitted, small_db, names):
        _, truth = small_db
        variant = variant_by_key("distinct")
        plan = FaultPlan()
        plan.fail_at("profile", item=names[0])
        collector = ErrorCollector()
        with fault_plan(plan):
            outcome = run_resilient(
                fitted,
                truth,
                names,
                variant,
                fitted.config.min_sim,
                policy="collect",
                collector=collector,
                workers=2,
            )
        assert len(collector) == 1
        assert collector.to_dicts()[0]["item"] == names[0]
        scored = [r.name for r in outcome.result.names]
        assert scored == names[1:]

    def test_rejects_nonpositive_workers(self, fitted, small_db, names):
        _, truth = small_db
        with pytest.raises(ValueError):
            run_resilient(
                fitted,
                truth,
                names,
                variant_by_key("distinct"),
                fitted.config.min_sim,
                workers=0,
            )


class TestParallelTracing:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        disable_tracing()
        yield
        disable_tracing()

    def test_worker_spans_grafted_and_results_unchanged(
        self, fitted, small_db, names
    ):
        _, truth = small_db
        variant = variant_by_key("distinct")
        min_sim = fitted.config.min_sim
        serial = run_resilient(fitted, truth, names, variant, min_sim)

        tracer = enable_tracing()
        parallel = run_resilient(
            fitted, truth, names, variant, min_sim, workers=4
        )
        assert _result_bytes(serial) == _result_bytes(parallel)

        (root,) = [r for r in tracer.roots if r.name == "experiment.resilient"]
        grafted = [c for c in root.children if "worker" in c.attrs]
        assert grafted, "no worker subtrees landed in the parent trace"
        assert {sp.attrs["worker"] for sp in grafted} <= set(range(4))
        assert all(sp.attrs["worker_pid"] > 0 for sp in grafted)
        # The subtrees are the real per-name pipeline spans, not stubs.
        prepared = [sp for sp in grafted if sp.find("resolve.prepare")]
        assert len(prepared) == len(names)
        traced_names = {
            sp.find("resolve.prepare").attrs["name"] for sp in prepared
        }
        assert traced_names == set(names)


class TestParallelCalibration:
    def test_workers_match_serial(self, fitted):
        serial = calibrate_min_sim(fitted, n_names=3, members=2, seed=5)
        parallel = calibrate_min_sim(fitted, n_names=3, members=2, seed=5, workers=2)
        assert serial.f1_by_min_sim == parallel.f1_by_min_sim
        assert serial.best_min_sim == parallel.best_min_sim
        assert parallel.n_scored == serial.n_scored

    def test_deadline_tail_releases_shared_payload(self, fitted):
        """Regression: a deadline expiring before the first result is
        consumed leaves the parallel map's generator never-started, so
        closing it skips its ``finally`` — calibration must still raise
        and leave no pool worker behind."""
        ticks = [0.0]

        def clock():
            ticks[0] += 5.0
            return ticks[0]

        with pytest.raises(DeadlineExceeded):
            calibrate_min_sim(
                fitted,
                n_names=2,
                members=2,
                seed=5,
                workers=2,
                deadline=Deadline(1.0, clock=clock),
            )
        assert multiprocessing.active_children() == []
