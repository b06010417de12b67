"""Unit tests for :func:`repro.ingest.dirty.touched_row_mask`."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.ingest.dirty import touched_row_mask


def _pattern() -> sparse.csr_matrix:
    # Three references over four relation rows: 0 -> {0, 2}, 1 -> {}, 2 -> {3}.
    return sparse.csr_matrix(
        (np.ones(3), ([0, 0, 2], [0, 2, 3])), shape=(3, 4)
    )


def test_rows_hitting_a_changed_column_are_touched():
    assert touched_row_mask(_pattern(), np.array([2])).tolist() == [True, False, False]
    assert touched_row_mask(_pattern(), np.array([0, 3])).tolist() == [True, False, True]
    assert touched_row_mask(_pattern(), np.array([1])).tolist() == [False, False, False]


def test_empty_pattern_touches_nothing():
    empty = sparse.csr_matrix((3, 4))
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
