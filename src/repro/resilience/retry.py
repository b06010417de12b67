"""Bounded retries with jittered exponential backoff, and wall-clock deadlines.

:func:`retry` turns a transiently failing callable into a bounded, reported
condition: k-medoids uses it to widen its swap budget on each attempt
(``fn`` receives the attempt index), and every re-attempt is
counted in the ``obs`` registry (``resilience.retry_attempts``) so retries
show up in traces. When the budget is exhausted the *last* exception
propagates unchanged — a :class:`~repro.errors.ConvergenceError` stays a
``ConvergenceError``, it is just raised after a known, bounded effort.

:class:`Deadline` is a monotonic wall-clock budget shared across stages:
long loops poll :meth:`Deadline.expired` (to stop gracefully, e.g. after
writing a checkpoint) or call :meth:`Deadline.check` (to raise
:class:`~repro.errors.DeadlineExceeded`).
"""

from __future__ import annotations

import random
import time
from typing import Callable, TypeVar

from repro.errors import DeadlineExceeded
from repro.obs import counter, get_logger

__all__ = ["Deadline", "retry"]

log = get_logger("resilience.retry")

_RETRIES = counter("resilience.retry_attempts")

T = TypeVar("T")


class Deadline:
    """A wall-clock budget measured on the monotonic clock.

    ``Deadline(None)`` never expires, so call sites can thread an optional
    deadline without branching.
    """

    def __init__(self, seconds: float | None, clock: Callable[[], float] = time.monotonic) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError("deadline seconds must be positive")
        self._clock = clock
        self.seconds = seconds
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def after(cls, seconds: float | None, **kwargs) -> "Deadline":
        return cls(seconds, **kwargs)

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for an unbounded deadline."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"{what} exceeded its {self.seconds}s deadline"
            )

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds})"


def retry(
    fn: Callable[[int], T],
    budget: int = 3,
    backoff: float = 0.0,
    deadline: Deadline | None = None,
    retry_on: type[BaseException] | tuple[type[BaseException], ...] = Exception,
    max_backoff: float = 30.0,
    jitter: float = 0.5,
    seed: int | None = None,
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn(attempt)`` up to ``budget`` times with jittered backoff.

    ``fn`` receives the zero-based attempt index so callers can scale their
    effort per attempt (k-medoids doubles its swap budget). Only exceptions
    matching ``retry_on`` are retried; anything else — and the last failure
    once the budget is exhausted — propagates unchanged.

    The delay before attempt ``k`` (k >= 1) is
    ``min(backoff * 2**(k-1), max_backoff)`` scaled by a random factor in
    ``[1, 1+jitter]``. Jitter randomness never touches the module-global
    generator: pass an explicit ``rng`` to share a caller's seeded stream
    (so retry schedules are reproducible under ``--seed``), or ``seed``
    to pin a private one; with neither, a private ``Random(0)`` is used —
    every run draws the same jitter schedule, so a replay that retries is
    byte-identical to the original run rather than sleeping differently.
    ``backoff=0`` disables sleeping entirely. A ``deadline`` bounds
    the whole retry loop: once expired, :class:`DeadlineExceeded` is
    raised (chained to the last failure, if any).
    """
    if budget < 1:
        raise ValueError("retry budget must be at least 1")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is None:
        # Random(None) would seed from the OS: two identical runs that
        # both hit a retry would sleep differently and (under deadlines)
        # could diverge. Pin the default so jitter is reproducible.
        rng = random.Random(0 if seed is None else seed)
    last_exc: BaseException | None = None
    for attempt in range(budget):
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(
                f"retry loop exceeded its {deadline.seconds}s deadline "
                f"after {attempt} attempt(s)"
            ) from last_exc
        if attempt:
            _RETRIES.inc()
            if backoff > 0:
                delay = min(backoff * 2 ** (attempt - 1), max_backoff)
                delay *= 1.0 + jitter * rng.random()
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None:
                        delay = min(delay, max(remaining, 0.0))
                sleep(delay)
        try:
            return fn(attempt)
        except retry_on as exc:
            last_exc = exc
            log.warning(
                "attempt %d/%d failed: %s: %s",
                attempt + 1, budget, type(exc).__name__, exc,
            )
    assert last_exc is not None
    raise last_exc
