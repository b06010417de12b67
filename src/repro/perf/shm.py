"""Zero-copy payload dispatch via POSIX shared memory.

:func:`repro.perf.ordered_process_map` primes every worker with one
``payload`` object. Under the default ``fork`` start method the payload
is inherited, but forking late in a run copies page tables and loses the
ability to measure (or bound) what each worker actually receives; under
``spawn`` the whole payload is re-pickled into every worker. For
Table-1-scale payloads — compiled :class:`repro.perf.transitions`
``TransitionCache`` CSR arrays, stacked profile matrices, a whole
database — that dispatch cost scales with ``workers``.

:class:`SharedPayload` removes it. ``wrap(payload)`` pickles the payload
once with **protocol 5 out-of-band buffers**: every contiguous buffer the
object graph exposes (numpy arrays, and therefore the ``data`` /
``indices`` / ``indptr`` arrays of every SciPy CSR matrix) is lifted out
of the pickle stream and packed, 64-byte aligned, into a single
``multiprocessing.shared_memory`` segment. What remains — the "head"
pickle — is only object scaffolding, typically a few KB. ``attach()``
(run once per worker by the pool initializer) maps the segment and
rebuilds the payload with ``pickle.loads(head, buffers=...)`` over
**read-only memoryviews into the mapping**: every worker sees the same
physical pages, zero copies, and the read-only views turn accidental
worker-side writes into hard errors instead of silent cross-worker
corruption.

Lifecycle is creator-owned and idempotent. A handle is a context
manager: the code that wraps a payload holds it in a ``with`` block
around the whole map, and :meth:`SharedPayload.release` — called by
``__exit__`` — closes and unlinks the segment exactly once, whatever
ended the block (completion, a deadline, an abandoned result iterator,
an exception). ``ordered_process_map`` only borrows the handle and never
releases it, so a worker-crash respawn simply re-attaches the
still-linked segment. Worker-side mappings are intentionally never
closed (the arrays alive in the worker are views into them); they die
with the worker process, and the parent's unlink removes the name.
Segment names carry a recognizable prefix so test suites can assert
nothing leaked (:func:`active_segments`).

:class:`PickledPayload` is the honest baseline for benchmarks: the same
handle interface, but ``wrap`` stores one pickle blob and every
``attach`` deserializes it in full — exactly the per-worker cost a
``spawn``-style pool pays. ``dispatch_bytes`` on both handles is the
serialized payload a worker must consume before its first task, which is
what ``benchmarks/bench_scale.py`` compares.
"""

from __future__ import annotations

import itertools
import os
import pickle
import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import Any, TypeVar

from repro.obs import counter

__all__ = [
    "PayloadHandle",
    "PickledPayload",
    "SharedPayload",
    "active_segments",
]

_SEGMENTS = counter("perf.shm.segments")
_BYTES_SHARED = counter("perf.shm.bytes_shared")
_BYTES_MAPPED = counter("perf.shm.bytes_mapped")
_UNLINKS = counter("perf.shm.unlinks")

#: Prefix of every segment this module creates; the leak check in the
#: chaos suite greps ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_shm_"

#: Buffer offsets are aligned to this many bytes inside the segment, so
#: reconstructed numpy arrays keep their natural alignment.
_ALIGN = 64

_SEGMENT_COUNTER = itertools.count()

_Handle = TypeVar("_Handle", bound="PayloadHandle")


class PayloadHandle:
    """Interface of a dispatchable payload wrapper.

    ``ordered_process_map`` treats any payload that is an instance of
    this class specially: workers (and the inline path) call
    :meth:`attach` to materialize the real payload. The creator owns
    :meth:`release`; ``with Handle.wrap(payload) as handle:`` calls it
    when the block exits.
    """

    def __enter__(self: _Handle) -> _Handle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def attach(self) -> Any:
        """Materialize the payload in the calling process."""
        raise NotImplementedError

    def release(self) -> None:
        """Free any cross-process resources. Idempotent; creator-side."""
        raise NotImplementedError

    @property
    def dispatch_bytes(self) -> int:
        """Serialized bytes one worker must consume to attach."""
        raise NotImplementedError


class PickledPayload(PayloadHandle):
    """The pickled-payload baseline: one blob, deserialized per attach.

    This is what a ``spawn``-start pool (or a naive ``initargs`` pickle)
    costs per worker; :mod:`benchmarks.bench_scale` measures
    :class:`SharedPayload` against it.
    """

    __slots__ = ("_blob",)

    def __init__(self, blob: bytes) -> None:
        self._blob = blob

    @classmethod
    def wrap(cls, payload: Any) -> "PickledPayload":
        return cls(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def attach(self) -> Any:
        return pickle.loads(self._blob)

    def release(self) -> None:
        pass

    @property
    def dispatch_bytes(self) -> int:
        return len(self._blob)


class _AttachedSegment(shared_memory.SharedMemory):
    """A worker-side mapping that outlives its Python handle.

    Attached arrays are zero-copy views into the mapping, so closing it
    at garbage-collection time would raise ``BufferError`` mid-teardown.
    The mapping instead lives as long as the process; the creator owns
    the unlink.
    """

    def __del__(self) -> None:  # the base class would close()
        pass


def _untrack(name: str) -> None:
    """Drop a segment from this process's resource tracker.

    Attaching registers the segment with ``resource_tracker`` (on
    Pythons without ``track=False``), which would warn about — and
    unlink — segments the *creator* still owns when this process exits.
    """
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except (AttributeError, KeyError, OSError, ValueError):
        pass


def _retrack(name: str) -> None:
    """Re-register a segment with this process's resource tracker."""
    try:
        resource_tracker.register(f"/{name.lstrip('/')}", "shared_memory")
    except (AttributeError, OSError, ValueError):
        pass


def _open_segment(name: str) -> shared_memory.SharedMemory:
    try:
        segment = _AttachedSegment(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # track= is 3.13+
        segment = _AttachedSegment(name=name)
        _untrack(name)
    return segment


class SharedPayload(PayloadHandle):
    """A payload whose array buffers live in one shared-memory segment.

    See the module docstring for the full protocol. Instances pickle as
    ``(head, segment name, spans)`` — a worker that receives one under a
    ``spawn`` pool attaches exactly like a forked worker, but never owns
    the unlink.
    """

    def __init__(
        self,
        head: bytes,
        segment: str | None,
        spans: list[tuple[int, int]],
        total: int,
        owner: shared_memory.SharedMemory | None = None,
    ) -> None:
        self._head = head
        self._segment = segment
        self._spans = spans
        self._total = total
        self._shm = owner
        self._owner = owner is not None
        self._attached: shared_memory.SharedMemory | None = None
        self._released = False

    @classmethod
    def wrap(cls, payload: Any) -> "SharedPayload":
        """Serialize ``payload`` with its buffers packed into shared memory."""
        buffers: list[pickle.PickleBuffer] = []
        # A falsy ``buffer_callback`` return marks the buffer out-of-band
        # (a truthy one would keep it in the stream); ``list.append``
        # returns None, which is exactly right.
        head = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
        raws: list[memoryview] = []
        for buf in buffers:
            try:
                raws.append(buf.raw())
            except BufferError:  # non-contiguous exporter: copy once
                raws.append(memoryview(memoryview(buf).tobytes()).cast("B"))
        spans: list[tuple[int, int]] = []
        offset = 0
        for raw in raws:
            offset = -(-offset // _ALIGN) * _ALIGN
            spans.append((offset, raw.nbytes))
            offset += raw.nbytes
        total = offset
        # Always create the segment — even for a payload with no
        # out-of-band buffers (size 0 is not a valid mapping, so floor at
        # one byte). The lifecycle guarantees (attach-on-respawn,
        # unlink-exactly-once, leak checks) then hold for every payload,
        # not just buffer-rich ones.
        owner = shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=_segment_name()
        )
        for (start, length), raw in zip(spans, raws):
            owner.buf[start:start + length] = raw
        segment = owner.name
        _SEGMENTS.inc()
        _BYTES_SHARED.inc(total)
        for raw in raws:
            raw.release()
        for buf in buffers:
            buf.release()
        return cls(head, segment, spans, total, owner=owner)

    def attach(self) -> Any:
        """Map the segment and rebuild the payload over read-only views."""
        views: list[memoryview] = []
        if self._segment is not None:
            if self._attached is None:
                self._attached = _open_segment(self._segment)
            base = self._attached.buf
            views = [
                base[start:start + length].toreadonly()
                for start, length in self._spans
            ]
            _BYTES_MAPPED.inc(self._total)
        return pickle.loads(self._head, buffers=views)

    def release(self) -> None:
        """Close and (creator only) unlink the segment, exactly once.

        Safe whenever: after a pool respawn, after a deadline-cancelled
        tail, on double call. A mapping still exporting live views (the
        inline path attaches in-process) cannot be closed — the unlink
        below still removes the name and the pages go when the views do.
        """
        if self._released:
            return
        self._released = True
        if self._segment is None:
            return
        for mapping in (self._attached, self._shm):
            if mapping is None:
                continue
            try:
                mapping.close()
            except BufferError:
                pass
        self._attached = None
        if self._owner:
            # A fork-pool worker's attach shares this process's resource
            # tracker, and its untrack drops our registration; re-adding
            # it (set semantics: idempotent) keeps unlink's internal
            # unregister from KeyError-ing inside the tracker process.
            _retrack(self._segment)
            try:
                self._shm.unlink()
                _UNLINKS.inc()
            except FileNotFoundError:
                pass
            self._shm = None

    @property
    def dispatch_bytes(self) -> int:
        """Bytes a worker deserializes to attach: the head pickle only."""
        return len(self._head)

    @property
    def shared_bytes(self) -> int:
        """Bytes of buffer data living in the shared segment."""
        return self._total

    @property
    def segment_name(self) -> str | None:
        return self._segment

    def __getstate__(self) -> dict:
        return {
            "head": self._head,
            "segment": self._segment,
            "spans": self._spans,
            "total": self._total,
        }

    def __setstate__(self, state: dict) -> None:
        self._head = state["head"]
        self._segment = state["segment"]
        self._spans = state["spans"]
        self._total = state["total"]
        self._shm = None
        self._owner = False
        self._attached = None
        self._released = False


def _segment_name() -> str:
    """A collision-resistant segment name carrying the leak-check prefix."""
    return (
        f"{SEGMENT_PREFIX}{os.getpid()}_"
        f"{next(_SEGMENT_COUNTER)}_{secrets.token_hex(4)}"
    )


def active_segments() -> list[str]:
    """Live segments this module created on this host, by name.

    Linux-specific by inspection of ``/dev/shm`` (empty elsewhere); the
    chaos suite asserts this is empty after every scenario, including
    worker-kill and deadline runs.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    # lint: allow[determinism/unkeyed-sort] segment names are strings
    return sorted(
        entry for entry in os.listdir(root) if entry.startswith(SEGMENT_PREFIX)
    )
