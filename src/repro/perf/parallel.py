"""Deterministic, input-ordered map over a process pool.

Disambiguation workloads scale with the number of ambiguous names, and the
names are independent — the ideal shape for process parallelism. What a
naive ``ProcessPoolExecutor.map`` loses, this module keeps:

- **Deterministic assembly.** Results are yielded in *input* order,
  whatever order workers finish in, so a parallel run's output is
  byte-identical to a serial one.
- **Obs continuity.** Each task snapshots the worker-local counter
  registry before and after, returns the delta, and the parent merges it
  on join — ``propagation.tuples_visited`` and friends keep counting
  across process boundaries (gauges and histograms are per-process and
  are not merged). When the parent has tracing enabled, each worker task
  additionally runs under its own fresh tracer, serializes its span
  subtree (:func:`repro.obs.span_to_wire`), and ships it home in the
  task result; the parent grafts the subtree into its trace annotated
  with ``worker`` (a stable sequential id) and ``worker_pid``, so a
  ``--trace-out`` of a parallel run shows real per-worker spans at their
  true timeline positions instead of an opaque gap.
- **Failure transparency.** Worker exceptions travel back as structured
  ``{"type", "message"}`` payloads in the :class:`TaskOutcome` instead of
  poisoning the pool, so the caller can apply its error policy per item,
  exactly like a serial loop under :func:`repro.resilience.guard`.
- **Worker-death recovery.** A worker killed mid-task (OOM killer,
  SIGKILL, segfault) breaks the whole ``ProcessPoolExecutor``; instead of
  propagating ``BrokenProcessPool``, the map respawns the pool and
  re-dispatches the lost tasks, so one transient kill costs only the
  lost work. Lost tasks re-run one at a time ("probation") before
  normal dispatch resumes, which pins the blame precisely: a task that
  breaks the pool while running *alone* is the killer. Each task may be
  re-dispatched at most ``task_retries`` times; past that budget its
  item is surfaced as an ordinary ``TaskOutcome`` error (``type:
  "WorkerCrashed"``) so the caller's error policy decides, and the run
  never hangs. Pool deaths and re-dispatches are counted
  (``perf.parallel.worker_deaths`` / ``.tasks_redispatched``).
- **Deadlines.** An expired :class:`~repro.resilience.Deadline` stops
  consuming results; remaining tasks are cancelled and reported as
  ``interrupted`` outcomes in order.

Workers are primed once with a picklable ``payload`` via a pool
initializer (under the default ``fork`` start method the payload is
inherited, not pickled); each task then ships only its item. ``fn`` must
be a module-level function taking ``(payload, item)``. Each item is one
future, dispatched in input order, and the pool never forks more
workers than there are items. Finished tasks are harvested as they
complete, whatever the consumer is blocked on, so they free window
slots at once; assembly stays input-ordered, so results are
byte-identical to a serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.obs import (
    counter,
    disable_tracing,
    enable_tracing,
    get_metrics,
    get_tracer,
    histogram,
    span_from_wire,
    span_to_wire,
    tracing_enabled,
)

_TASKS_OK = counter("perf.parallel.tasks_ok")
_TASKS_FAILED = counter("perf.parallel.tasks_failed")
_TASKS_INTERRUPTED = counter("perf.parallel.tasks_interrupted")
_SPANS_GRAFTED = counter("perf.parallel.spans_grafted")
_TASK_SECONDS = histogram("perf.parallel.task_seconds")
_WORKER_DEATHS = counter("perf.parallel.worker_deaths")
_TASKS_REDISPATCHED = counter("perf.parallel.tasks_redispatched")

#: How many times one task may be re-dispatched after a pool break
#: before its item is surfaced as a ``WorkerCrashed`` error. The default
#: survives any single worker death and surfaces a task that kills its
#: worker twice.
DEFAULT_TASK_RETRIES = 1

#: In-flight dispatch window, in multiples of the pool size. Bounding the
#: window keeps workers saturated while limiting how many tasks a single
#: pool break can take down (every in-flight task is lost with the pool).
_WINDOW_FACTOR = 2

#: Worker-side payload installed by the pool initializer.
_PAYLOAD: Any = None

#: Worker-side flag: record a span subtree per task and ship it home.
_TRACE: bool = False


class RemoteTaskError(RuntimeError):
    """A worker-side exception re-raised in the parent process.

    ``error`` holds the structured ``{"type", "message"}`` payload from
    the worker; the original traceback stays in the worker's logs.
    """

    def __init__(self, error: dict) -> None:
        super().__init__(f"worker task failed: {error['type']}: {error['message']}")
        self.error = error


@dataclass
class TaskOutcome:
    """One item's result: a value, a worker error, or an interruption.

    ``seconds`` and ``worker_pid`` are telemetry, not results: they are
    excluded from equality so outcome lists stay comparable across
    runs whose timings necessarily differ.
    """

    item: Any
    value: Any = None
    error: dict | None = None
    interrupted: bool = False
    seconds: float = field(default=0.0, compare=False)
    worker_pid: int | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.interrupted

    def unwrap(self) -> Any:
        """The value; raises :class:`RemoteTaskError` on a failed task."""
        if self.error is not None:
            raise RemoteTaskError(self.error)
        return self.value


def _init_worker(payload: Any, trace: bool = False) -> None:
    global _PAYLOAD, _TRACE
    # Designed per-worker divergence: the initializer primes each worker
    # with its own payload exactly so tasks never re-pickle it; nothing
    # here is read back by the parent.
    _PAYLOAD = payload
    _TRACE = trace
    # Under ``fork`` the worker inherits the parent's live tracer (and its
    # whole span forest). Spans recorded there would be silently lost —
    # each task instead runs under a fresh tracer and ships its subtree
    # home explicitly.
    disable_tracing()


def _counter_values() -> dict[str, float]:
    return dict(get_metrics().snapshot()["counters"])


def _run_task(fn: Callable[[Any, Any], Any], item: Any) -> tuple:
    """Worker-side wrapper: run one item, capture errors + counter deltas
    + (when tracing) the task's span subtree in wire form."""
    before = _counter_values()
    tracer = enable_tracing() if _TRACE else None
    value = None
    error = None
    trace = None
    start = time.perf_counter()
    try:
        value = fn(_PAYLOAD, item)
    except Exception as exc:  # travels back as data, not as pool poison
        error = {"type": type(exc).__name__, "message": str(exc)}
    finally:
        seconds = time.perf_counter() - start
        # The tracer must come down even when fn raises something
        # harsher than Exception (KeyboardInterrupt, worker teardown):
        # left installed, it would swallow the next task's spans.
        if tracer is not None:
            if tracer.roots:
                trace = {
                    "pid": os.getpid(),
                    "spans": [span_to_wire(sp) for sp in tracer.roots],
                }
            disable_tracing()
    after = _counter_values()
    deltas = {
        name: after[name] - before.get(name, 0.0)
        for name in after
        if after[name] != before.get(name, 0.0)
    }
    return value, error, deltas, seconds, trace


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (payload inherited, not pickled) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def active_segments() -> list[str]:
    """Live ``/dev/shm`` segments carrying this package's name prefix.

    Nothing in the pipeline creates one; the chaos suite and the
    benchmark assert the list stays empty. Linux-specific by
    inspection of ``/dev/shm`` (empty elsewhere).
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    # lint: allow[determinism/unkeyed-sort] segment names are strings
    return sorted(e for e in os.listdir(root) if e.startswith("repro_shm_"))


def ordered_process_map(
    fn: Callable[[Any, Any], Any],
    payload: Any,
    items: Sequence[Any],
    workers: int,
    deadline=None,
    task_retries: int = DEFAULT_TASK_RETRIES,
) -> Iterator[TaskOutcome]:
    """Run ``fn(payload, item)`` for every item; yield outcomes in input order.

    ``workers`` is the pool size (must be >= 1; 1 still uses a pool, so
    the code path is the same at every size). ``deadline`` is an
    optional :class:`repro.resilience.Deadline`; once expired, pending
    tasks are cancelled and yielded as ``interrupted`` outcomes.
    ``task_retries`` bounds how many times one task is re-dispatched
    after a worker death before its item is surfaced as a
    ``WorkerCrashed`` error (see module docstring; 0 disables
    re-dispatch entirely).

    Counter deltas from each task are merged into this process's registry
    as the task's outcome is yielded, so obs totals match a serial run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if task_retries < 0:
        raise ValueError("task_retries must be >= 0")
    return _ordered_map(fn, payload, list(items), workers, deadline, task_retries)


def _new_pool(payload, workers) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(payload, tracing_enabled()),
    )


def _crash_error(item: Any, losses: int) -> dict:
    return {
        "type": "WorkerCrashed",
        "message": (
            f"worker process died {losses} time(s) while this task was "
            f"in flight; re-dispatch budget exhausted (item: {item!r})"
        ),
    }


def _ordered_map(
    fn, payload, items, workers, deadline, task_retries
) -> Iterator[TaskOutcome]:
    """The pool path: windowed dispatch, ordered assembly, crash recovery.

    Task ``idx`` runs ``items[idx]`` and is dispatched in input order.
    State per task index: not yet submitted (``idx >= next_submit`` and
    not lost), in flight (``futures``), harvested (``results``), or
    surfaced as a crash error (``crashed``). Tasks lost to a pool break
    wait in ``probation`` and re-run one at a time so a poisonous task
    is blamed precisely instead of taking innocent neighbors past their
    retry budget. Completed tasks are harvested eagerly — whatever the
    consumer is blocked on — so early completions free window slots
    immediately; the consuming loop still walks input positions one by
    one.
    """
    registry = get_metrics()
    n = len(items)
    # Under ``fork`` the pool starts every worker at the first submit, so
    # a pool wider than the item list would fork idle copies of the parent.
    pool_size = max(1, min(workers, n))
    window = max(workers * _WINDOW_FACTOR, 1)
    tracer = get_tracer()
    worker_ids: dict[int, int] = {}

    pool = _new_pool(payload, pool_size)
    futures: dict[int, Future] = {}
    results: dict[int, tuple] = {}
    crashed: dict[int, dict] = {}
    losses = [0] * n
    probation: set[int] = set()
    dispatched: set[int] = set()
    next_submit = 0

    def submit(idx: int) -> None:
        if idx in dispatched:
            _TASKS_REDISPATCHED.inc()
        dispatched.add(idx)
        futures[idx] = pool.submit(_run_task, fn, items[idx])

    def fill_window() -> None:
        nonlocal next_submit
        if probation:
            # One suspect at a time: the only task allowed in flight is
            # the next lost one, so a repeat break has exactly one culprit.
            head = min(probation)
            if head not in futures and not futures:
                submit(head)
            return
        while next_submit < n and len(futures) < window:
            submit(next_submit)
            next_submit += 1

    def harvest() -> bool:
        """Bank every finished future; True when the pool broke under one."""
        broke = False
        # lint: allow[determinism/unkeyed-sort] task indices are ints
        for idx in sorted(futures):
            future = futures[idx]
            if not future.done() or future.cancelled():
                continue
            exc = future.exception()
            if exc is not None:
                if isinstance(exc, BrokenProcessPool):
                    broke = True
                    continue
                raise exc
            results[idx] = future.result()
            del futures[idx]
            probation.discard(idx)
        return broke

    def handle_break() -> None:
        nonlocal pool
        _WORKER_DEATHS.inc()
        pool.shutdown(wait=False, cancel_futures=True)
        # lint: allow[determinism/unkeyed-sort] task indices are ints
        for idx in sorted(futures):
            future = futures[idx]
            if future.cancelled():
                # Never ran (queued behind the break): requeue, no blame.
                probation.add(idx)
                continue
            # Results delivered before the break are intact; keep them.
            if future.done() and future.exception() is None:
                results[idx] = future.result()
                probation.discard(idx)
                continue
            losses[idx] += 1
            if losses[idx] > task_retries:
                crashed[idx] = _crash_error(items[idx], losses[idx])
                probation.discard(idx)
            else:
                probation.add(idx)
        futures.clear()
        pool = _new_pool(payload, pool_size)

    interrupted = False
    try:
        for idx, item in enumerate(items):
            if (
                not interrupted
                and deadline is not None
                and deadline.expired()
            ):
                interrupted = True
            while (
                not interrupted
                and idx not in results
                and idx not in crashed
            ):
                try:
                    if harvest():
                        handle_break()
                        continue
                    fill_window()
                    if idx in results or idx in crashed:
                        break
                    remaining = (
                        deadline.remaining() if deadline is not None else None
                    )
                    timeout = None if remaining is None else max(0.0, remaining)
                    target = futures.get(idx)
                    if target is not None:
                        target.result(timeout=timeout)
                    else:
                        # Needed task queued behind probation or window:
                        # wait for anything in flight, then re-harvest.
                        pending = list(futures.values())
                        if not pending:
                            raise RuntimeError(
                                f"ordered map stalled: task {idx} is "
                                "neither in flight nor finished"
                            )
                        wait(pending, timeout=timeout,
                             return_when=FIRST_COMPLETED)
                        if deadline is not None and deadline.expired():
                            interrupted = True
                            break
                except BrokenProcessPool:
                    handle_break()
                    continue
                except (FutureTimeout, CancelledError):
                    interrupted = True
                    break
            if interrupted:
                _TASKS_INTERRUPTED.inc()
                yield TaskOutcome(item=item, interrupted=True)
                continue
            if idx in crashed:
                _TASKS_FAILED.inc()
                yield TaskOutcome(item=item, error=dict(crashed[idx]))
                continue
            # Popped, so the task's payload is freed as soon as it is used.
            value, error, deltas, seconds, trace = results.pop(idx)
            for name, delta in deltas.items():
                registry.counter(name).inc(delta)
            _TASK_SECONDS.observe(seconds)
            worker_pid = None
            if trace is not None:
                worker_pid = int(trace["pid"])
                if tracer is not None:
                    _graft_trace(trace, tracer, worker_ids)
            if error is not None:
                _TASKS_FAILED.inc()
            else:
                _TASKS_OK.inc()
            yield TaskOutcome(
                item=item, value=value, error=error,
                seconds=seconds, worker_pid=worker_pid,
            )
    finally:
        # Also reached when the consumer abandons the iterator early:
        # cancel queued tasks so pool teardown doesn't run them all.
        pool.shutdown(wait=True, cancel_futures=True)


def _graft_trace(trace: dict, tracer, worker_ids: dict[int, int]) -> None:
    """Attach one task's wire-form span subtrees to the parent trace.

    Each worker pid gets a stable sequential ``worker`` id (order of
    first completed task), so traces read ``worker=0..n-1`` regardless of
    the pids the OS handed out.
    """
    pid = int(trace["pid"])
    worker = worker_ids.setdefault(pid, len(worker_ids))
    for wire in trace["spans"]:
        sp = span_from_wire(wire)
        sp.attrs["worker"] = worker
        sp.attrs["worker_pid"] = pid
        tracer.graft(sp)
        _SPANS_GRAFTED.inc()


