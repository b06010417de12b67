"""Unit tests for :func:`repro.ingest.dirty.touched_row_mask`."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.ingest.dirty import touched_row_mask
from repro.perf.csr import Csr


def _pattern() -> Csr:
    # Three references over four relation rows: 0 -> {0, 2}, 1 -> {}, 2 -> {3}.
    return Csr.of(sparse.csr_matrix((np.ones(3), ([0, 0, 2], [0, 2, 3])), shape=(3, 4)))


def test_rows_hitting_a_changed_column_are_touched():
    assert touched_row_mask(_pattern(), np.array([2])).tolist() == [True, False, False]
    assert touched_row_mask(_pattern(), np.array([0, 3])).tolist() == [True, False, True]
    assert touched_row_mask(_pattern(), np.array([1])).tolist() == [False, False, False]


def test_empty_pattern_touches_nothing():
    empty = Csr.of(sparse.csr_matrix((3, 4)))
    mask = touched_row_mask(empty, np.array([0, 1, 2, 3]))
    assert mask.dtype == bool
    assert mask.tolist() == [False, False, False]


def test_no_columns_touch_nothing():
    assert touched_row_mask(_pattern(), np.array([], dtype=np.int64)).tolist() == [
        False, False, False,
    ]


def test_columns_past_the_pattern_width_are_ignored():
    # Rows the delta appended cannot appear in a pre-delta walk.
    assert touched_row_mask(_pattern(), np.array([4, 9])).tolist() == [False, False, False]
    assert touched_row_mask(_pattern(), np.array([3, 4])).tolist() == [False, False, True]


def test_a_row_range_equals_the_sliced_pattern():
    # A batch's patterns serve every name in it: each name reads its own
    # range, first and last rows of the batch and empty ranges included.
    rng = np.random.default_rng(3)
    pattern = sparse.random(9, 12, density=0.25, format="csr", random_state=rng)
    pattern.sort_indices()
    assert pattern[0].nnz and pattern[8].nnz
    for columns in (np.array([1, 5, 11]), np.array([0]), np.array([], dtype=np.int64)):
        ranges = ((0, 9), (0, 1), (0, 4), (3, 7), (8, 9), (0, 0), (5, 5), (9, 9))
        for start, stop in ranges:
            rows = slice(start, stop)
            want = touched_row_mask(Csr.of(pattern[rows]), columns)
            got = touched_row_mask(Csr.of(pattern), columns, rows)
            assert got.dtype == bool
            assert got.tolist() == want.tolist(), (start, stop)
