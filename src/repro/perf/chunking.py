"""Chunk sizing for the pair kernel.

The pair kernel (:mod:`repro.similarity.vectorized`) enumerates the
*terms* of a pair list: one term per stored column two rows share. It
works through the terms in consecutive chunks, each holding a few
index and value arrays of one entry per term. How many terms a column
or a pair yields differs by orders of magnitude between worlds, so a
fixed count of columns or pairs either wastes time on small chunks or
blows up peak memory on large ones. :func:`budget_slices` cuts a run of
items by the terms they yield instead, under one fixed byte budget.
"""

from __future__ import annotations

import numpy as np

#: Byte budget of the term arrays one kernel chunk holds.
TERM_CHUNK_BYTES = 4 * 1024 * 1024

#: Bytes the kernel holds per term: index arrays and gathered values.
_TERM_BYTES = 128


def budget_slices(costs: np.ndarray) -> list[slice]:
    """Cover items with consecutive slices under the byte budget.

    ``costs[k]`` is the number of terms item ``k`` yields. Each slice
    holds at most :data:`TERM_CHUNK_BYTES` of terms, except that a
    single item over the budget gets a slice of its own.
    """
    n = len(costs)
    if not n:
        return []
    # One extra term per item keeps items that yield nothing from
    # piling up into one unbounded slice.
    ends = np.cumsum((np.asarray(costs, dtype=np.int64) + 1) * _TERM_BYTES)
    slices: list[slice] = []
    start = 0
    while start < n:
        spent = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, spent + TERM_CHUNK_BYTES, side="right"))
        stop = max(stop, start + 1)
        slices.append(slice(start, stop))
        start = stop
    return slices
