"""Host-speed correction for the benchmark's timings.

The host this benchmark was built on is shared: over any window of a few
seconds to a few minutes its cores run the same code up to 1.7x slower,
and process CPU time slows with wall time, so neither clock repeats.
The slowdown is host-wide, so a second thread running a fixed loop sees
it too: over 50 s of 0.25 s chunks, a pure-Python loop's time varied
with a coefficient of variation of 18%, its ratio to the reference
loop's median CPU time over the same chunk by 3%.

:class:`HostClock` runs that reference loop on a daemon thread every
:data:`INTERVAL_S` and records its thread CPU time (waiting for the GIL
or a core does not count). :meth:`HostClock.seconds` turns a measured
interval into *host-corrected seconds*: it cuts the interval into blocks
of about :data:`BLOCK_S` and adds up each block's raw duration times
``REFERENCE_S / r``, where ``r`` is the median reference time sampled
during the block. On a quiet host ``r == REFERENCE_S`` and the
correction is 1. Blocks keep the correction time-weighted, so the
corrected times of an interval's parts add up to about that of the
whole, and a slow spell in part of a long interval is not outvoted by
the rest.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Iterations of the reference loop; about 0.3 ms on a quiet host.
LOOP_ITERATIONS = 5000

#: Median thread CPU seconds of one reference loop on the quiet 2-core
#: host the benchmark was calibrated on.
REFERENCE_S = 2.9e-4

#: Seconds between reference samples.
INTERVAL_S = 0.025

#: A block with fewer samples than this is widened on both sides until
#: it has them, so a short operation still gets a steady median.
MIN_SAMPLES = 41

#: Length of the blocks a long interval is corrected in.
BLOCK_S = 1.0


def reference_loop() -> float:
    """Thread CPU seconds of one pass of the fixed reference loop."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


class HostClock:
    """Samples host speed on a daemon thread while open (a context manager)."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostClock":
        self._thread = threading.Thread(target=self._run, name="pipebench-hostclock",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            sample = reference_loop()
            # Appended time first: a reader that sees the sample sees its time.
            self.times.append(time.perf_counter())
            self.samples.append(sample)

    def reference(self, start: float, end: float) -> float:
        """Median reference time of the samples taken in ``[start, end]``,
        widened to at least :data:`MIN_SAMPLES` samples."""
        n = min(len(self.times), len(self.samples))
        if n == 0:
            return REFERENCE_S
        lo = bisect.bisect_left(self.times, start, 0, n)
        hi = bisect.bisect_right(self.times, end, 0, n)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        return statistics.median(self.samples[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """Host-corrected seconds of the interval ``[start, end]``."""
        blocks = max(1, round((end - start) / BLOCK_S))
        edges = [start + (end - start) * i / blocks for i in range(blocks + 1)]
        return sum(
            (b - a) * REFERENCE_S / self.reference(a, b) for a, b in zip(edges, edges[1:])
        )

    def factor(self, start: float, end: float) -> float:
        """Corrected over raw seconds of ``[start, end]``."""
        if end <= start:
            return REFERENCE_S / self.reference(start, end)
        return self.seconds(start, end) / (end - start)
