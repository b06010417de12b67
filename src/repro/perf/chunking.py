"""Slice sizing for the pair-list kernels.

The pair kernels (:mod:`repro.similarity.vectorized`) gather the rows
of a stacked sparse matrix for a slice of pairs, ``matrix[idx_a[sl]]`` and
``matrix[idx_b[sl]]``. One slice therefore holds as many stored entries
as its pairs' rows have together, and row widths differ by an order of
magnitude between worlds: a fixed pair count either wastes time on
narrow rows or blows up peak memory on wide ones. :func:`pair_slices`
cuts the pair list by stored entries instead, under one fixed byte
budget.
"""

from __future__ import annotations

import numpy as np

#: Byte budget of the rows one pair slice gathers (both sides).
PAIR_SLICE_BYTES = 2 * 1024 * 1024

#: Bytes of one stored CSR entry: a float64 value and an int64 index.
_ENTRY_BYTES = 16


def pair_slices(row_nnz: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray) -> list[slice]:
    """Cover the pair list with consecutive slices under the byte budget.

    ``row_nnz[i]`` is the stored-entry count of matrix row ``i`` (e.g.
    ``np.diff(matrix.indptr)``); pair ``k`` gathers rows ``idx_a[k]`` and
    ``idx_b[k]``. Each slice gathers at most :data:`PAIR_SLICE_BYTES`,
    except that a single pair wider than the budget gets a slice of its
    own.
    """
    n = len(idx_a)
    if not n:
        return []
    # One extra entry per pair keeps all-empty rows from piling up
    # into one unbounded slice.
    cost = row_nnz[idx_a] + row_nnz[idx_b] + 1
    ends = np.cumsum(cost * _ENTRY_BYTES)
    slices: list[slice] = []
    start = 0
    while start < n:
        spent = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, spent + PAIR_SLICE_BYTES, side="right"))
        stop = max(stop, start + 1)
        slices.append(slice(start, stop))
        start = stop
    return slices
