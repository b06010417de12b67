"""Test-only fault injection for the pipeline's failure paths.

Error policies and checkpoint/resume are only trustworthy if they are
exercised against real failures. The pipeline exposes named *injection
points* at its ingestion, profiling, similarity, and clustering stages —
each is a single call to :func:`fault_check`, a no-op (one global read)
unless a :class:`FaultPlan` is installed. Tests install a plan
describing *where* and *when* to fail::

    plan = FaultPlan()
    plan.fail_at("profile", item="Wei Wang")               # poison one name
    plan.fail_at("ingest.record", after=100, times=3)      # 3 bad records
    with fault_plan(plan):
        run_experiment(...)

The default injected exception is :class:`FaultInjected` (an ordinary
``Exception``, so policies can skip/collect it); pass ``exc=KeyboardInterrupt()``
to simulate a hard mid-run crash that no policy swallows, or
``exc=MemoryError()`` to simulate an oversized batch.

Process-level faults (the chaos matrix) go further than exceptions:

- ``plan.kill_at(site, ...)`` (or ``fail_at(..., signal=signal.SIGKILL)``)
  sends the configured signal to the *current process* when the fault
  fires — inside a pool worker this is a real worker death, exactly what
  ``ordered_process_map``'s recovery path must survive. Worker processes
  inherit the installed plan through ``fork``, so a plan installed in
  the driver fires in workers too.
- ``fail_at(..., once_path=...)`` latches the fault across *processes*
  through an ``O_CREAT | O_EXCL`` marker file: with a fork-inherited
  plan every worker carries its own ``times`` counter, so "kill exactly
  one worker, run-wide" needs a filesystem latch, not a counter.
- :func:`truncate_file` / :func:`flip_byte` corrupt files on disk
  (checkpoints, exports) the way a crashed writer or bit rot would.

Injection sites currently wired:

========================  ====================================================
site                      where
========================  ====================================================
``ingest.record``         per record in :func:`repro.data.dblp_xml.iter_dblp_records`
``csv.load``              per relation in :func:`repro.reldb.csvio.load_database`
``profile``               per name in :meth:`repro.core.distinct.Distinct.prepare`
``features.backend``      per batch in :func:`repro.core.features.compute_pair_features`
``cluster``               per name in :meth:`repro.core.distinct.Distinct.cluster_prepared`
========================  ====================================================
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "clear_fault_plan",
    "fault_check",
    "fault_plan",
    "flip_byte",
    "install_fault_plan",
    "truncate_file",
]


class FaultInjected(Exception):
    """The default exception raised at a triggered injection point."""


def truncate_file(path: str | Path, keep_bytes: int) -> Path:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (torn write)."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[:keep_bytes])
    return path


def flip_byte(path: str | Path, offset: int) -> Path:
    """XOR one byte of ``path`` with 0xFF (bit rot / disk corruption)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not -len(data) <= offset < len(data):
        raise ValueError(f"offset {offset} outside file of {len(data)} bytes")
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


@dataclass
class _Fault:
    site: str
    item: str | None = None  # None matches any item
    exc: BaseException | None = None
    times: int = 1  # how many triggers remain (<0 = unlimited)
    after: int = 0  # skip this many matching calls first
    signal: int | None = None  # send to current process instead of raising
    once_path: str | None = None  # cross-process once-only latch file
    seen: int = 0

    def matches(self, site: str, item: str | None) -> bool:
        if self.site != site or self.times == 0:
            return False
        return self.item is None or (item is not None and self.item == str(item))

    def claim_latch(self) -> bool:
        """Atomically claim the cross-process latch; True if we won.

        ``times``/``seen`` live in per-process memory, so a fork-inherited
        plan would fire once *per worker*. The ``O_CREAT | O_EXCL`` file
        makes the first claiming process — whichever it is — the only one.
        """
        if self.once_path is None:
            return True
        try:
            os.close(os.open(self.once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True


@dataclass
class _Trigger:
    """One fired fault, recorded for assertions."""

    site: str
    item: str | None


class FaultPlan:
    """A declarative schedule of failures keyed by injection site."""

    def __init__(self) -> None:
        self._faults: list[_Fault] = []
        self.triggered: list[_Trigger] = []
        self._lock = threading.Lock()

    def fail_at(
        self,
        site: str,
        item: str | None = None,
        exc: BaseException | None = None,
        times: int = 1,
        after: int = 0,
        signal: int | None = None,
        once_path: str | Path | None = None,
    ) -> "FaultPlan":
        """Arrange for ``site`` to fail.

        ``item`` restricts the fault to one item (name, record key,
        relation); ``after`` skips that many matching calls first (crash
        "after K names"); ``times`` bounds how often it fires (-1 =
        every matching call). ``signal`` sends that signal to the
        current process instead of raising (SIGKILL = unhandleable
        worker death). ``once_path`` names a latch file that bounds the
        fault to one firing *across processes* (see module docstring).
        Returns ``self`` for chaining.
        """
        self._faults.append(
            _Fault(
                site=site,
                item=item,
                exc=exc,
                times=times,
                after=after,
                signal=signal,
                once_path=None if once_path is None else str(once_path),
            )
        )
        return self

    def kill_at(
        self,
        site: str,
        item: str | None = None,
        after: int = 0,
        once_path: str | Path | None = None,
        sig: int | None = None,
    ) -> "FaultPlan":
        """Arrange for ``site`` to SIGKILL the process it runs in.

        Convenience for the chaos matrix's worker-death fault: inside a
        pool worker the kill is a real, unhandleable process death.
        ``once_path`` (recommended with forked pools) bounds it to one
        death run-wide; ``sig`` overrides the signal (default SIGKILL).
        """
        import signal as _signal

        return self.fail_at(
            site,
            item=item,
            times=-1 if once_path is not None else 1,
            after=after,
            signal=_signal.SIGKILL if sig is None else sig,
            once_path=once_path,
        )

    def check(self, site: str, item: str | None = None) -> None:
        with self._lock:
            for fault in self._faults:
                if not fault.matches(site, item):
                    continue
                fault.seen += 1
                if fault.seen <= fault.after:
                    continue
                if not fault.claim_latch():
                    fault.times = 0  # latch lost: retire locally, stay silent
                    continue
                if fault.times > 0:
                    fault.times -= 1
                self.triggered.append(_Trigger(site=site, item=item))
                if fault.signal is not None:
                    os.kill(os.getpid(), fault.signal)
                    continue  # survivable signals resume the sweep
                error = fault.exc if fault.exc is not None else FaultInjected(
                    f"injected fault at {site!r}"
                    + (f" (item {item!r})" if item is not None else "")
                )
                raise error


_ACTIVE: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan) -> None:
    global _ACTIVE
    _ACTIVE = plan


def clear_fault_plan() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_fault_plan() -> FaultPlan | None:
    return _ACTIVE


def fault_check(site: str, item: str | None = None) -> None:
    """The injection point: no-op unless a plan is installed."""
    if _ACTIVE is not None:
        _ACTIVE.check(site, item)


@contextmanager
def fault_plan(plan: FaultPlan):
    """Install ``plan`` for the duration of a ``with`` block."""
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        clear_fault_plan()
