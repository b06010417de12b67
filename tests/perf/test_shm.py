"""Shared-memory payload dispatch: round-trip, zero-copy, lifecycle."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from scipy import sparse

from repro.perf import (
    PickledPayload,
    SharedPayload,
    active_segments,
    ordered_process_map,
)


def _csr_payload():
    """A payload shaped like the real one: CSR matrices + dense arrays."""
    rng = np.random.default_rng(7)
    matrix = sparse.random(40, 60, density=0.2, random_state=3, format="csr")
    dense = rng.standard_normal(512)
    return {"matrix": matrix, "dense": dense, "meta": {"k": 3, "name": "x"}}


def _scale_task(payload, item):
    return float(payload["dense"][item] * payload["meta"]["k"])


def _write_task(payload, item):
    try:
        payload["dense"][0] = -1.0
    except ValueError:
        return "read-only"
    return "writable"


class TestRoundTrip:
    def test_wrap_attach_reproduces_payload(self):
        payload = _csr_payload()
        handle = SharedPayload.wrap(payload)
        try:
            out = handle.attach()
            np.testing.assert_array_equal(out["dense"], payload["dense"])
            assert (out["matrix"] != payload["matrix"]).nnz == 0
            assert out["meta"] == payload["meta"]
        finally:
            handle.release()

    def test_attached_arrays_are_read_only_views(self):
        handle = SharedPayload.wrap(_csr_payload())
        try:
            out = handle.attach()
            assert not out["dense"].flags.writeable
            with pytest.raises(ValueError):
                out["dense"][0] = 1.0
            with pytest.raises(ValueError):
                out["matrix"].data[0] = 1.0
        finally:
            handle.release()

    def test_head_is_small_next_to_the_pickled_baseline(self):
        payload = _csr_payload()
        shared = SharedPayload.wrap(payload)
        try:
            baseline = PickledPayload.wrap(payload)
            # The buffers (CSR data/indices/indptr + the dense array) live
            # in the segment, not in the head a worker deserializes.
            assert shared.shared_bytes > 4096
            assert shared.dispatch_bytes < baseline.dispatch_bytes / 2
        finally:
            shared.release()

    def test_pickled_baseline_round_trips(self):
        payload = _csr_payload()
        handle = PickledPayload.wrap(payload)
        out = handle.attach()
        np.testing.assert_array_equal(out["dense"], payload["dense"])
        handle.release()  # no-op, must not raise


class TestLifecycle:
    def test_release_unlinks_exactly_once_and_is_idempotent(self):
        handle = SharedPayload.wrap(_csr_payload())
        name = handle.segment_name
        assert name in active_segments()
        handle.release()
        assert name not in active_segments()
        handle.release()  # second call is a no-op
        assert active_segments() == []

    def test_release_before_attach_is_clean(self):
        handle = SharedPayload.wrap(_csr_payload())
        handle.release()
        assert active_segments() == []

    def test_nonowner_copy_attaches_but_never_unlinks(self):
        handle = SharedPayload.wrap(_csr_payload())
        try:
            clone = pickle.loads(pickle.dumps(handle))
            out = clone.attach()
            np.testing.assert_array_equal(out["dense"], handle.attach()["dense"])
            clone.release()
            # Only the creator unlinks: the segment must still be alive.
            assert handle.segment_name in active_segments()
        finally:
            handle.release()
        assert active_segments() == []

    def test_empty_buffer_payload_still_gets_lifecycle(self):
        # Dict/list payloads expose no protocol-5 buffers; the segment
        # (floored at one byte) still exists so crash/leak semantics hold.
        handle = SharedPayload.wrap({"a": [1, 2, 3]})
        assert handle.segment_name in active_segments()
        assert handle.attach() == {"a": [1, 2, 3]}
        handle.release()
        assert active_segments() == []

    def test_with_block_releases_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedPayload.wrap(_csr_payload()) as handle:
                assert handle.segment_name in active_segments()
                raise RuntimeError("boom")
        assert active_segments() == []


class TestThroughTheMap:
    def test_pool_workers_attach_and_results_match_inline(self):
        payload = _csr_payload()
        items = list(range(32))
        expected = [
            t.value
            for t in ordered_process_map(
                _scale_task, payload, items, workers=1, inline=True
            )
        ]
        with SharedPayload.wrap(payload) as handle:
            out = list(
                ordered_process_map(
                    _scale_task, handle, items, workers=3, chunk_size=4,
                )
            )
        assert [t.value for t in out] == expected
        assert active_segments() == []

    def test_worker_side_payload_is_read_only(self):
        with SharedPayload.wrap(_csr_payload()) as handle:
            out = list(ordered_process_map(_write_task, handle, [0], workers=2))
        assert out[0].value == "read-only"
        assert active_segments() == []

    def test_abandoned_iterator_releases_the_segment(self):
        with SharedPayload.wrap(_csr_payload()) as handle:
            it = ordered_process_map(
                _scale_task, handle, list(range(16)), workers=2, chunk_size=2
            )
            next(it)
            it.close()
        assert active_segments() == []

    @pytest.mark.parametrize("inline", [False, True], ids=["pool", "inline"])
    @pytest.mark.parametrize("abandon", [False, True], ids=["exhausted", "abandoned"])
    def test_map_borrows_the_segment_until_the_block_exits(self, abandon, inline):
        # Only the creator releases: a map that has run dry or been
        # closed must leave the segment linked for the rest of the block.
        with SharedPayload.wrap(_csr_payload()) as handle:
            it = ordered_process_map(
                _scale_task, handle, list(range(8)), workers=2, chunk_size=2,
                inline=inline,
            )
            if abandon:
                next(it)
                it.close()
            else:
                assert len(list(it)) == 8
            assert handle.segment_name in active_segments()
        assert active_segments() == []
