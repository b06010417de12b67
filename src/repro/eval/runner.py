"""Resilient per-name experiment runner: policies, checkpoints, deadlines.

:func:`repro.eval.experiment.run_variant` assumes every name prepares and
scores cleanly; this module wraps the same per-name loop with the
:mod:`repro.resilience` machinery so a long evaluation can

- survive a poisoned name (``policy="skip"``/``"collect"``),
- stop gracefully at a wall-clock :class:`~repro.resilience.Deadline`, and
- checkpoint per-name progress atomically and resume after a crash,
  reproducing the uninterrupted run byte-for-byte (completed names are
  reloaded from the checkpoint; remaining names are prepared and scored
  exactly as a fresh run would).

Checkpoints store serialized :class:`~repro.eval.experiment.NameResult`
payloads — name-preparation-level progress — not the (large, numpy-backed)
pair features, so saving after every name is cheap.

With ``workers > 1`` the per-name work fans out over a process pool
(:func:`repro.perf.ordered_process_map`). Results are consumed in input
order, worker failures re-enter the same ``guard`` the serial path uses
(so policies behave identically), per-worker obs counters are merged into
this process's registry, and checkpointing/resume is unchanged — the
assembled :class:`~repro.eval.experiment.ExperimentResult` is byte-for-byte
identical to a single-worker run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.distinct import Distinct
from repro.core.variants import VariantSpec
from repro.data.world import GroundTruth
from repro.errors import DeadlineExceeded
from repro.eval.experiment import ExperimentResult, NameResult, score_resolution
from repro.eval.persistence import name_result_from_dict, name_result_to_dict
from repro.obs import counter, get_logger, histogram, span
from repro.perf import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    ordered_process_map,
)
from repro.resilience import (
    CheckpointStore,
    Deadline,
    ErrorCollector,
    Policy,
    guard,
)

__all__ = ["ExperimentRunOutcome", "experiment_checkpoint", "run_resilient"]

log = get_logger("eval.runner")

_NAMES_SCORED = counter("experiment.names_scored")
_NAMES_FAILED = counter("experiment.names_failed")
_NAME_SECONDS = histogram("experiment.name_seconds")


def _score_name_task(payload, name: str) -> NameResult:
    """Worker body for parallel runs: prepare, cluster, and score one name.

    ``payload`` is the fork-inherited ``(distinct, truth, variant, min_sim)``
    tuple installed once per worker process by the pool initializer.
    """
    distinct, truth, variant, min_sim = payload
    prep = distinct.prepare(name)
    resolution = distinct.cluster_prepared(
        prep,
        min_sim=min_sim,
        measure=variant.measure,
        supervised=variant.supervised,
    )
    return score_resolution(resolution, truth)


@dataclass
class ExperimentRunOutcome:
    """What a resilient run produced, and how it ended.

    ``result`` holds the names that completed (all of them on a clean
    run); ``errors`` the collected failures (empty unless
    ``policy="collect"``); ``interrupted`` is True when the deadline
    expired before every name was attempted.
    """

    result: ExperimentResult
    errors: ErrorCollector = field(default_factory=ErrorCollector)
    interrupted: bool = False
    n_total: int = 0

    @property
    def n_completed(self) -> int:
        return len(self.result.names)

    @property
    def complete(self) -> bool:
        return not self.interrupted and self.n_completed + len(self.errors) >= self.n_total


def experiment_checkpoint(
    path, names: list[str], variant_key: str, min_sim: float
) -> CheckpointStore:
    """The checkpoint store for one ``experiment`` run's parameters."""
    return CheckpointStore(
        path,
        kind="experiment",
        signature={
            "names": list(names),
            "variant_key": variant_key,
            "min_sim": min_sim,
        },
    )


def run_resilient(
    distinct: Distinct,
    truth: GroundTruth,
    names: list[str],
    variant: VariantSpec,
    min_sim: float,
    policy: Policy | str = Policy.RAISE,
    collector: ErrorCollector | None = None,
    checkpoint: CheckpointStore | None = None,
    deadline: Deadline | None = None,
    workers: int = 1,
    task_retries: int = DEFAULT_TASK_RETRIES,
) -> ExperimentRunOutcome:
    """Score ``names`` under ``variant``, one name at a time.

    Unlike :func:`~repro.eval.experiment.run_variant` (which requires all
    preparations upfront), each name is prepared, clustered, and scored
    individually so progress can be checkpointed after every name and a
    failure loses at most one name. Results are deterministic and ordered
    by ``names``, so a resumed run's :class:`ExperimentResult` matches an
    uninterrupted one exactly.

    ``workers > 1`` scores the not-yet-checkpointed names on a process
    pool while preserving every serial guarantee (ordering, policies,
    checkpoints, deadline, merged obs counters) — see the module
    docstring. A name whose worker dies is re-dispatched up to
    ``task_retries`` times; past the budget it surfaces as a
    ``WorkerCrashed`` failure under the same ``policy`` as any other
    name failure.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    policy = Policy.coerce(policy)
    collector = collector if collector is not None else ErrorCollector()
    result = ExperimentResult(variant_key=variant.key, min_sim=min_sim)
    outcome = ExperimentRunOutcome(
        result=result, errors=collector, n_total=len(names)
    )

    done: dict[str, NameResult] = {}
    if checkpoint is not None and checkpoint.exists():
        payload = checkpoint.load()  # None: corrupt file was quarantined
        if payload is not None:
            done = {
                entry["name"]: name_result_from_dict(entry)
                for entry in payload["completed"]
            }
            for entry in payload.get("errors", ()):
                log.info(
                    "checkpointed failure carried over: [%s] %s: %s",
                    entry.get("stage"), entry.get("item"), entry.get("message"),
                )

    def save_progress(complete: bool = False) -> None:
        if checkpoint is not None:
            checkpoint.save(
                [name_result_to_dict(r) for r in result.names],
                errors=collector.to_dicts(),
                complete=complete,
            )

    with span(
        "experiment.resilient",
        variant=variant.key,
        min_sim=min_sim,
        n_names=len(names),
        workers=workers,
    ) as sp:
        results_iter = None
        if workers > 1:
            pending = [n for n in names if n not in done]
            results_iter = ordered_process_map(
                _score_name_task,
                (distinct, truth, variant, min_sim),
                pending,
                workers=workers,
                deadline=deadline,
                task_retries=task_retries,
            )
        try:
            for name in names:
                if deadline is not None and deadline.expired():
                    outcome.interrupted = True
                    log.warning(
                        "deadline expired after %d/%d names; progress %s",
                        outcome.n_completed, outcome.n_total,
                        "checkpointed" if checkpoint is not None else "not checkpointed",
                    )
                    break
                if name in done:
                    result.names.append(done[name])
                    continue
                scored = None
                if results_iter is not None:
                    task = next(results_iter)
                    assert task.item == name, "parallel map yielded out of order"
                    if task.interrupted:
                        outcome.interrupted = True
                        log.warning(
                            "deadline expired after %d/%d names; progress %s",
                            outcome.n_completed, outcome.n_total,
                            "checkpointed" if checkpoint is not None
                            else "not checkpointed",
                        )
                        break
                    _NAME_SECONDS.observe(task.seconds)
                    with guard("experiment.score", name, policy, collector):
                        if task.error is not None:
                            _NAMES_FAILED.inc()
                            raise RemoteTaskError(task.error)
                        scored = task.value
                else:
                    name_start = time.perf_counter()
                    with guard("experiment.score", name, policy, collector):
                        try:
                            prep = distinct.prepare(name)
                            resolution = distinct.cluster_prepared(
                                prep,
                                min_sim=min_sim,
                                measure=variant.measure,
                                supervised=variant.supervised,
                            )
                            scored = score_resolution(resolution, truth)
                        except (DeadlineExceeded, KeyboardInterrupt):
                            # Control flow, not a name failure: must not
                            # bump failure counters on its way out.
                            raise
                        except Exception:
                            _NAMES_FAILED.inc()
                            raise
                    _NAME_SECONDS.observe(time.perf_counter() - name_start)
                if scored is None:  # failed and policy skipped/collected it
                    save_progress()
                    continue
                result.names.append(scored)
                _NAMES_SCORED.inc()
                save_progress()
        finally:
            if results_iter is not None:
                # Cancels still-queued tasks when the loop exits early
                # (deadline, raise policy); no-op after full consumption.
                results_iter.close()
        sp.annotate(
            n_completed=outcome.n_completed,
            n_failed=len(collector),
            interrupted=outcome.interrupted,
        )
    save_progress(complete=outcome.complete)
    return outcome
