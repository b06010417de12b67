"""The one sparse product: :func:`repro.perf.csr.matmul` against scipy's ``@``.

``matmul`` calls scipy's private compiled kernels directly. These tests
hold it to the public product, canonicalized (``sort_indices`` then
``eliminate_zeros``), entry for entry and bit for bit, so a scipy
upgrade that changes the kernels fails here instead of moving profile
bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.perf.csr import Csr, matmul

#: Values that cancel exactly (a product entry of 0.0 is not stored) and
#: values that do not.
VALUES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def sparse_matrix(draw, n_rows: int, n_cols: int) -> sparse.csr_matrix:
    """A canonical CSR matrix; rows come out empty often."""
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    dense = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        for j in range(n_cols):
            if draw(st.floats(0.0, 1.0)) < density:
                dense[i, j] = draw(VALUES)
    return sparse.csr_matrix(dense)


def wide(matrix: sparse.csr_matrix) -> Csr:
    """``matrix``'s arrays with ``int64`` indices (scipy's constructor
    would narrow them again)."""
    return Csr(
        matrix.indptr.astype(np.int64),
        matrix.indices.astype(np.int64),
        matrix.data,
        matrix.shape,
    )


@st.composite
def operands(draw):
    """``(a, b)`` scipy matrices and which of them goes in with ``int64``
    index arrays."""
    m = draw(st.integers(0, 6))
    k = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    a = draw(sparse_matrix(m, k))
    b = draw(sparse_matrix(k, n))
    return a, b, draw(st.sampled_from(["", "a", "b", "ab"]))


def assert_product(a: sparse.csr_matrix, b: sparse.csr_matrix, widen: str = "") -> Csr:
    want = (a @ b).tocsr()
    want.sort_indices()
    want.eliminate_zeros()
    got = matmul(wide(a) if "a" in widen else Csr.of(a), wide(b) if "b" in widen else b)
    assert got.shape == want.shape
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    # Exactly nnz entries: the kernels' upper-bound buffers are trimmed.
    assert len(got.indices) == len(got.data) == got.indptr[-1] == got.nnz
    assert got.indices.dtype == got.indptr.dtype
    assert got.indptr.dtype == (np.int64 if widen else np.int32)
    return got


class TestMatmul:
    @given(operands())
    @settings(max_examples=300, deadline=None)
    @example((sparse.csr_matrix((0, 3)), sparse.csr_matrix(np.ones((3, 2))), ""))
    @example((sparse.csr_matrix(np.ones((2, 3))), sparse.csr_matrix((3, 4)), "ab"))
    def test_equals_the_canonical_public_product(self, case):
        assert_product(*case)

    def test_an_all_cancelling_product_is_empty(self):
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        b = sparse.csr_matrix(np.array([[1.0], [-1.0]]))
        got = assert_product(a, b)
        assert got.nnz == 0 and got.indptr.tolist() == [0, 0, 0]

    def test_the_trimmed_arrays_own_their_memory(self):
        # Four structural products, one of them cancelling to zero.
        a = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        b = sparse.csr_matrix(np.array([[1.0, 2.0], [-1.0, 0.0], [0.0, 3.0]]))
        got = assert_product(a, b)
        assert got.nnz == 3
        assert got.indices.base is None and got.data.base is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matmul(Csr.of(sparse.csr_matrix((2, 3))), sparse.csr_matrix((2, 3)))


class TestCsr:
    def test_of_canonicalizes_a_copy(self):
        matrix = sparse.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 2]), np.array([0, 3])), shape=(1, 3)
        )
        arrays = Csr.of(matrix)
        assert arrays.indices.tolist() == [0, 2]
        assert arrays.data.tolist() == [2.0, 4.0]
        assert matrix.indices.tolist() == [2, 0, 2]

    def test_tocsr_views_the_same_arrays(self):
        arrays = Csr.of(sparse.csr_matrix(np.eye(3)))
        view = arrays.tocsr()
        assert np.shares_memory(view.indices, arrays.indices)
        assert (view != sparse.csr_matrix(np.eye(3))).nnz == 0
