"""The resilient per-name loop, and the experiment runner built on it.

:class:`NameLoop` is the one loop behind ``experiment``
(:func:`run_resilient`), ``calibrate``
(:func:`repro.eval.calibration.calibrate_min_sim`) and ``ingest``
(:func:`repro.ingest.runner.ingest_resilient`). Over a run's items it

- loads the checkpoint once and holds every checkpointed entry as
  completed from the start, so a save (even one made when the deadline
  expires before any new item ran) never writes back fewer entries than
  it loaded, and a resumed run reproduces the uninterrupted one
  byte-for-byte;
- stops gracefully at a wall-clock :class:`~repro.resilience.Deadline`;
- runs each item under ``guard`` with the caller's stage name, so a
  poisoned item follows the ``policy="skip"``/``"collect"`` choice;
- saves the checkpoint atomically after each item, and marks it
  ``complete`` at the end.

Each caller supplies a module-level ``fn(payload, item)``. With
``workers == 1`` it runs inline; with more it fans out over a process
pool (:func:`repro.perf.ordered_process_map`) whose outcomes are consumed
in input order under the same ``guard`` (so policies behave
identically), with per-worker obs counters merged into this process's
registry — results are byte-for-byte identical to a single-worker run.

Experiment checkpoints store serialized
:class:`~repro.eval.experiment.NameResult` payloads — name-level
progress — not the (large, numpy-backed) pair features, so saving after
every name is cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.distinct import Distinct
from repro.core.variants import VariantSpec
from repro.data.world import GroundTruth
from repro.errors import DeadlineExceeded
from repro.eval.experiment import ExperimentResult, NameResult, score_resolution
from repro.eval.persistence import name_result_from_dict, name_result_to_dict
from repro.obs import Counter, Histogram, counter, get_logger, histogram, span
from repro.perf import DEFAULT_TASK_RETRIES, ordered_process_map
from repro.resilience import (
    CheckpointStore,
    Deadline,
    ErrorCollector,
    Policy,
    guard,
)

__all__ = [
    "ExperimentRunOutcome",
    "NameLoop",
    "NameMetrics",
    "experiment_checkpoint",
    "run_resilient",
]

log = get_logger("eval.runner")

_NAMES_SCORED = counter("experiment.names_scored")
_NAMES_FAILED = counter("experiment.names_failed")
_NAME_SECONDS = histogram("experiment.name_seconds")


@dataclass(frozen=True)
class NameMetrics:
    """The per-item instruments one stage feeds (``None``: not counted).

    ``failed`` counts item failures, never the ``DeadlineExceeded`` or
    ``KeyboardInterrupt`` that stop a run; ``seconds`` observes each
    item that did not propagate out of its guard (on a pool: every
    outcome consumed).
    """

    scored: Counter | None = None
    failed: Counter | None = None
    seconds: Histogram | None = None


_UNCOUNTED = NameMetrics()
_FAILED = object()  # an item's failure its policy skipped or collected


class NameLoop:
    """One resilient run over ``items``, in input order.

    ``key(item)`` is the item's checkpoint key and its name in error
    reports; a checkpoint entry carries it under ``entry_key``, and
    ``decode(entry)`` is the completed value it stands for. The
    checkpoint is loaded here, once; :meth:`run` does one stage of work
    and may be called for several stages of one run; :meth:`finish`
    writes the final checkpoint.
    """

    def __init__(
        self,
        items: Sequence[Any],
        policy: Policy | str = Policy.RAISE,
        collector: ErrorCollector | None = None,
        checkpoint: CheckpointStore | None = None,
        deadline: Deadline | None = None,
        workers: int = 1,
        task_retries: int = DEFAULT_TASK_RETRIES,
        key: Callable[[Any], str] = str,
        entry_key: str = "name",
        decode: Callable[[dict], Any] = dict,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.items = list(items)
        self.key = key
        self.policy = Policy.coerce(policy)
        self.collector = collector if collector is not None else ErrorCollector()
        self.checkpoint = checkpoint
        self.deadline = deadline
        self.workers = workers
        self.task_retries = task_retries
        self.interrupted = False
        self._keys = [key(item) for item in self.items]
        self._values: dict[str, Any] = {}
        self._entries: dict[str, dict] = {}
        if checkpoint is not None and checkpoint.exists():
            payload = checkpoint.load()  # None: corrupt file was quarantined
            if payload is not None:
                for entry in payload["completed"]:
                    self._entries[entry[entry_key]] = entry
                    self._values[entry[entry_key]] = decode(entry)
                for entry in payload.get("errors", ()):
                    log.info(
                        "checkpointed failure carried over: [%s] %s: %s",
                        entry.get("stage"), entry.get("item"), entry.get("message"),
                    )

    @property
    def complete(self) -> bool:
        """Every item completed or failed, and the deadline never hit."""
        return (
            not self.interrupted
            and len(self._values) + len(self.collector) >= len(self.items)
        )

    def completed(self) -> list[Any]:
        """The completed values (checkpointed or fresh), in input order."""
        return [self._values[k] for k in self._keys if k in self._values]

    def run(
        self,
        stage: str,
        fn: Callable[[Any, Any], Any],
        payload: Any,
        items: Sequence[Any] | None = None,
        encode: Callable[[Any], dict] | None = None,
        metrics: NameMetrics = _UNCOUNTED,
    ) -> dict[str, Any]:
        """``fn(payload, item)`` for each of ``items`` (default: all) not
        yet completed, in order, until the deadline expires.

        With ``encode``, each success completes its item as the
        checkpoint entry ``encode(value)`` and the checkpoint is
        saved after every item; without, the stage only prepares later
        ones. Returns this stage's successes by key.
        """
        todo = [
            item for item in (self.items if items is None else items)
            if self.key(item) not in self._values
        ]
        values: dict[str, Any] = {}
        outcomes = None
        if self.workers > 1:
            outcomes = ordered_process_map(
                fn, payload, todo,
                workers=self.workers,
                deadline=self.deadline,
                task_retries=self.task_retries,
            )
        try:
            for item in todo:
                if self.deadline is not None and self.deadline.expired():
                    self._interrupt(stage)
                    break
                task = None
                if outcomes is not None:
                    task = next(outcomes)
                    assert task.item is item, "parallel map yielded out of order"
                    if task.interrupted:
                        self._interrupt(stage)
                        break
                value = self._attempt(stage, fn, payload, item, task, metrics)
                if value is not _FAILED:
                    key = self.key(item)
                    values[key] = value
                    if metrics.scored is not None:
                        metrics.scored.inc()
                    if encode is not None:
                        self._values[key] = value
                        self._entries[key] = encode(value)
                if encode is not None:
                    self._save()
        finally:
            if outcomes is not None:
                # Cancels still-queued tasks when the loop exits early
                # (deadline, raise policy); no-op after full consumption.
                outcomes.close()
        return values

    def _attempt(self, stage, fn, payload, item, task, metrics: NameMetrics) -> Any:
        """One item under its guard: its value, or ``_FAILED``."""
        if task is not None and metrics.seconds is not None:
            metrics.seconds.observe(task.seconds)
        start = time.perf_counter()
        value = _FAILED
        with guard(stage, self.key(item), self.policy, self.collector):
            try:
                value = fn(payload, item) if task is None else task.unwrap()
            except (DeadlineExceeded, KeyboardInterrupt):
                # Control flow, not an item failure: must not bump
                # failure counters on its way out.
                raise
            except Exception:
                if metrics.failed is not None:
                    metrics.failed.inc()
                raise
        if task is None and metrics.seconds is not None:
            metrics.seconds.observe(time.perf_counter() - start)
        return value

    def _interrupt(self, stage: str) -> None:
        self.interrupted = True
        log.warning(
            "[%s] deadline expired after %d/%d items; progress %s",
            stage, len(self._values), len(self.items),
            "checkpointed" if self.checkpoint is not None else "not checkpointed",
        )

    def _save(self, complete: bool = False) -> None:
        if self.checkpoint is not None:
            self.checkpoint.save(
                [self._entries[k] for k in self._keys if k in self._entries],
                errors=self.collector.to_dicts(),
                complete=complete,
            )

    def finish(self) -> None:
        """Write the final checkpoint, ``complete`` when the run is."""
        self._save(complete=self.complete)


def _score_name_task(payload, name: str) -> NameResult:
    """Prepare, cluster, and score one name.

    ``payload`` is the ``(distinct, truth, variant, min_sim)`` tuple; on
    a pool it is fork-inherited, installed once per worker process by
    the pool initializer.
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


_EXPERIMENT_METRICS = NameMetrics(_NAMES_SCORED, _NAMES_FAILED, _NAME_SECONDS)


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
    loop = NameLoop(
        names, policy=policy, collector=collector, checkpoint=checkpoint,
        deadline=deadline, workers=workers, task_retries=task_retries,
        decode=name_result_from_dict,
    )
    result = ExperimentResult(variant_key=variant.key, min_sim=min_sim)
    outcome = ExperimentRunOutcome(
        result=result, errors=loop.collector, n_total=len(names)
    )
    with span(
        "experiment.resilient",
        variant=variant.key,
        min_sim=min_sim,
        n_names=len(names),
        workers=workers,
    ) as sp:
        loop.run(
            "experiment.score", _score_name_task, (distinct, truth, variant, min_sim),
            encode=name_result_to_dict, metrics=_EXPERIMENT_METRICS,
        )
        result.names = loop.completed()
        outcome.interrupted = loop.interrupted
        sp.annotate(
            n_completed=outcome.n_completed,
            n_failed=len(loop.collector),
            interrupted=outcome.interrupted,
        )
    loop.finish()
    return outcome
