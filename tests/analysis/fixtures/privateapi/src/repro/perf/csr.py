"""Fixture: the sparse-product module may import the private kernels."""

from scipy.sparse import _sparsetools
