"""Integer key columns: one attribute's join keys as codes, rows grouped by code.

Joins in this library are always equi-joins on a single attribute pair.
A :class:`~repro.reldb.database.Database` interns every value its key
columns hold through one :class:`ValueCodes` dict, so two values share a
code exactly when they are equal as dict keys (``1``, ``1.0`` and
``True`` share one). Per (relation, attribute) a :class:`KeyColumn`
keeps

- ``codes``: each row's code, in row-id order;
- ``order``: the row ids sorted stably by code, so each code's rows
  ascend;
- ``starts``: where each code's rows begin in ``order``, so the rows
  holding code ``c`` are ``order[starts[c]:starts[c + 1]]``, up to the
  largest code the column holds (no row holds a larger one).

``starts`` is the ``searchsorted`` of every code over the ordered codes,
kept up to date, so finding the rows of an array of codes is two
gathers, not one binary search per code. :meth:`KeyColumn.spans` finds
the spans of a whole array of codes at once, and
:meth:`KeyColumn.rows_in` concatenates them; the join-step matrices of
:mod:`repro.perf.transitions` are built from these two calls. NULL has
its own code, :data:`NULL_CODE`, whose span :meth:`KeyColumn.spans`
leaves empty: a NULL join value joins nothing.

Tables are append-only, so a refresh codes only the rows appended since
the last one, merges them into ``order`` after the old rows of their
codes, and shifts ``starts`` by their counts. Columns are coded on
demand and kept by the database.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.reldb.table import Table

__all__ = ["KeyColumn", "NULL_CODE", "ValueCodes"]

#: The code of NULL (``None``) in every column.
NULL_CODE = 0


class ValueCodes(dict):
    """Value -> integer code, shared by the key columns of one database.

    NULL is :data:`NULL_CODE`; any other value gets the next free code
    the first time it is coded.
    """

    def __init__(self) -> None:
        super().__init__({None: NULL_CODE})

    def __missing__(self, value: object) -> int:
        code = self[value] = len(self)
        return code


class KeyColumn:
    """The codes of one attribute of one table, and its rows grouped by code.

    Values are coded through ``value_codes``; columns that join must
    share one.
    """

    def __init__(self, table: Table, attribute: str, value_codes: ValueCodes) -> None:
        self.table = table
        self.attribute = attribute
        self._position = table.schema.position(attribute)
        self._value_codes = value_codes
        self.codes = np.empty(0, dtype=np.int64)
        self.order = np.empty(0, dtype=np.int64)
        self.starts = np.zeros(1, dtype=np.int64)
        self.refresh()

    def refresh(self) -> None:
        """Code the rows appended since the last refresh."""
        seen = len(self.codes)
        values = list(map(itemgetter(self._position), self.table.rows[seen:]))
        codes = map(self._value_codes.__getitem__, values)
        new = np.fromiter(codes, dtype=np.int64, count=len(values))
        # Codes this column has not held yet start after every old row.
        top = max(len(self.starts) - 1, int(new.max(initial=NULL_CODE)) + 1)
        starts = np.full(top + 1, seen, dtype=np.int64)
        starts[: len(self.starts)] = self.starts
        order = np.argsort(new, kind="stable")
        # A new row goes after every old row holding its code.
        at = starts[new[order] + 1] + np.arange(len(new))
        self.order = _merged(self.order, order + seen, at)
        starts[1:] += np.cumsum(np.bincount(new, minlength=len(starts) - 1))
        self.starts = starts
        self.codes = np.concatenate([self.codes, new])

    @property
    def stale(self) -> bool:
        return len(self.codes) != len(self.table)

    # -- vectorized ------------------------------------------------------------

    def spans(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: ``order[lo[k]:hi[k]]`` are the rows holding
        ``codes[k]``, ascending; empty for NULL."""
        joins = (codes != NULL_CODE) & (codes < len(self.starts) - 1)
        known = np.where(joins, codes, NULL_CODE)
        lo = self.starts[known]
        return lo, np.where(joins, self.starts[known + 1], lo)

    def rows_in(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The rows of every span ``order[lo[k]:hi[k]]``, concatenated."""
        counts = hi - lo
        total = int(counts.sum())
        starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return self.order[starts + np.arange(total)]

    # -- one value -------------------------------------------------------------

    def _span(self, value: object) -> tuple[int, int]:
        code = self._value_codes.get(value)
        if code is None or code >= len(self.starts) - 1:
            return 0, 0
        return int(self.starts[code]), int(self.starts[code + 1])

    def lookup(self, value: object) -> list[int]:
        """Row ids whose attribute equals ``value``, ascending (possibly empty)."""
        lo, hi = self._span(value)
        return self.order[lo:hi].tolist()

    def count(self, value: object) -> int:
        """Number of rows whose attribute equals ``value``."""
        lo, hi = self._span(value)
        return hi - lo

    def distinct_values(self) -> list[object]:
        """The attribute's distinct values, in first-seen row order."""
        held = np.flatnonzero(np.diff(self.starts))
        first = np.sort(self.order[self.starts[held]])
        get = itemgetter(self._position)
        return [get(self.table.rows[row]) for row in first.tolist()]

    def __len__(self) -> int:
        """Number of distinct values."""
        return int(np.count_nonzero(np.diff(self.starts)))

    def __repr__(self) -> str:
        return (
            f"KeyColumn({self.table.schema.name}.{self.attribute}, "
            f"{len(self)} distinct values)"
        )


def _merged(old: np.ndarray, new: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``old`` and ``new`` interleaved: ``new[k]`` lands at position
    ``at[k]`` (ascending); the old entries fill the rest in order."""
    merged = np.empty(len(old) + len(new), dtype=np.int64)
    kept = np.ones(len(merged), dtype=bool)
    kept[at] = False
    merged[kept] = old
    merged[at] = new
    return merged
