"""Canonical CSR matrices as plain arrays, and the one sparse product.

Batched propagation (:mod:`repro.paths.batch`) runs one sparse product
per join step of a batch, and the products are small: on the evaluation
world a forward product averages about 710 left-hand and 1,430 output
entries. At that size scipy's ``@`` costs more in wrapping than in
arithmetic. It builds two matrix objects, each checking and pruning its
arrays, and looks up index dtypes several times; after it, canonicalizing
(``tocsr``, ``sort_indices``, ``eliminate_zeros``) and masking build
more.

So a walk's levels are :class:`Csr` values: the ``indptr``, ``indices``
and ``data`` arrays of a canonical CSR matrix (sorted, duplicate-free
indices in every row, no stored zeros) with its shape, and nothing
else. :func:`matmul` is the one product over them. It calls the compiled
kernels behind scipy's ``@`` directly (``csr_matmat_maxnnz``,
``csr_matmat``, ``csr_sort_indices``). These live in the private
``scipy.sparse._sparsetools``, which this module alone imports (the
``privateapi/scipy-private-module`` lint rule holds every other module
to that), and a property test holds :func:`matmul` to the public ``@``
byte for byte, so a scipy upgrade that changes the kernels fails a test
rather than moving bits.

The compiled kernels trust their inputs: out-of-range indices read out of
bounds. :func:`matmul` only ever receives arrays it or scipy built, and
:class:`Csr` values built by hand must hold in-range, canonical indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

__all__ = ["Csr", "index_dtype", "matmul"]

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_dtype(maxval: int, *arrays: np.ndarray) -> type[np.signedinteger]:
    """scipy's index dtype rule: ``int32`` unless ``maxval`` or an
    ``int64`` array among ``arrays`` needs ``int64``."""
    if maxval > _INT32_MAX or any(a.dtype == np.int64 for a in arrays):
        return np.int64
    return np.int32


@dataclass(frozen=True, eq=False)
class Csr:
    """A canonical CSR matrix held as its arrays.

    Every row's ``indices`` are sorted and distinct and no ``data`` entry
    is zero, by construction: nothing checks it again. Values compare by
    identity; compare the arrays to compare contents.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @classmethod
    def of(cls, matrix: sparse.csr_matrix) -> Csr:
        """``matrix``'s arrays, after a canonicalizing copy when it is not
        canonical already."""
        if not matrix.has_canonical_format:
            matrix = matrix.copy()
            matrix.sum_duplicates()
        return cls(matrix.indptr, matrix.indices, matrix.data, matrix.shape)

    def tocsr(self) -> sparse.csr_matrix:
        """A scipy matrix over the same arrays, for tests and inspection."""
        return sparse.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape, copy=False
        )


def matmul(a: Csr, b: Csr | sparse.csr_matrix) -> Csr:
    """``a @ b`` in canonical form: scipy's own product with sorted
    indices, trimmed to its entries.

    ``b`` may be a canonical scipy matrix (the step matrices of
    :mod:`repro.perf.transitions`); only its arrays are read. The result
    equals ``(a @ b)`` after ``sort_indices()`` and ``eliminate_zeros()``
    entry for entry and bit for bit: the compiled product stores no
    zeros, so only sorting is left.
    """
    (m, inner), (inner_b, n) = a.shape, b.shape
    if inner != inner_b:
        raise ValueError(f"matmul: dimension mismatch, {a.shape} @ {b.shape}")
    arrays = (a.indptr, a.indices, b.indptr, b.indices)
    idx = index_dtype(max(m, n), *arrays)
    maxnnz = _sparsetools.csr_matmat_maxnnz(m, n, *(np.asarray(x, dtype=idx) for x in arrays))
    dtype = np.result_type(a.data, b.data)
    if maxnnz == 0:
        return Csr(
            np.zeros(m + 1, dtype=idx), np.zeros(0, dtype=idx), np.zeros(0, dtype=dtype), (m, n)
        )
    if maxnnz > _INT32_MAX:
        idx = np.int64
    a_indptr, a_indices, b_indptr, b_indices = (np.asarray(x, dtype=idx) for x in arrays)
    indptr = np.empty(m + 1, dtype=idx)
    indices = np.empty(maxnnz, dtype=idx)
    data = np.empty(maxnnz, dtype=dtype)
    _sparsetools.csr_matmat(
        m, n,
        a_indptr, a_indices, np.asarray(a.data, dtype=dtype),
        b_indptr, b_indices, np.asarray(b.data, dtype=dtype),
        indptr, indices, data,
    )
    nnz = int(indptr[-1])
    if nnz < maxnnz:
        # ``maxnnz`` only bounds the product; a view would keep the whole
        # buffer alive as long as the level.
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    _sparsetools.csr_sort_indices(m, indptr, indices, data)
    return Csr(indptr, indices, data, (m, n))
