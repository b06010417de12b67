"""Fixture: private scipy modules imported outside the product module."""

from scipy.sparse import _sparsetools
import scipy.sparse._sputils
from scipy.sparse._compressed import _cs_matrix
from scipy import sparse, __version__


def product(a, b):
    return _sparsetools, _cs_matrix, sparse, __version__, a @ b
