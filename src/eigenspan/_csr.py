"""The CSR matrix class behind ``SparseSymmetric``.

It imports ``scipy.sparse``, so ``sparse`` imports it at the first CSR
build rather than with the package.  The class is defined at module level
so that it, and every ``SparseSymmetric`` holding one, pickles by name.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import _add_product

# Operand dtypes whose 2-D blocks go straight to the kernel.
_BLOCK_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


class BlockCSR(sp.csr_matrix):
    """scipy's CSR matrix whose ``@`` makes one kernel call per dense block.

    A 2-D float64 or complex128 ndarray with a matching row count is
    multiplied, when the matrix is float64, by one call of scipy's in-place
    kernel into a zeroed result.  A complex block X_r + i X_i goes in as
    its C-contiguous float64 view of shape (n, 2k): A is real, so
    A X = A X_r + i A X_i is the real row loop over 2k columns.  scipy's own
    ``@`` would instead copy A's values to complex on every call.

    Every other operand takes scipy's own ``@``: 1-D vectors (its one-vector
    kernel is about twice as fast as the block kernel on one column), other
    dtypes, ndarray subclasses and sparse operands.
    """

    def __matmul__(self, other):
        if not (
            type(other) is np.ndarray and other.ndim == 2 and other.shape[0] == self.shape[1]
            and other.dtype in _BLOCK_DTYPES and self.data.dtype == np.float64
        ):
            return super().__matmul__(other)
        out = np.zeros((self.shape[0], other.shape[1]), dtype=other.dtype)
        x, target = np.ascontiguousarray(other), out
        if other.dtype == np.complex128:
            x, target = x.view(np.float64), out.view(np.float64)
        _add_product(self.shape, self.indptr, self.indices, self.data, x, target)
        return out
