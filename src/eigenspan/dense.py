"""Dense kernels used on tall-skinny blocks and small projected matrices.

All routines wrap LAPACK through numpy and normalize conventions (ascending
eigenvalue order, one rank rule) so callers can rely on them.
"""

from typing import NamedTuple

import numpy as np

EPS = np.finfo(np.float64).eps
#: The package's one rank rule: singular values at or below
#: RANK_TOL * sigma_max count as zero.
RANK_TOL = 10.0 * EPS


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    values are ascending; vectors[:, i] is the unit eigenvector for values[i].
    """

    values: np.ndarray
    vectors: np.ndarray


def dense_sym_eig(b):
    """Full eigendecomposition of a small symmetric matrix.

    The input must satisfy ||b - b.T||_F <= 1e-12 * max(1, ||b||_F); it is
    explicitly symmetrized before the solve so roundoff asymmetry cannot
    leak into the result.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    asym = np.linalg.norm(b - b.T)
    if asym > 1e-12 * max(1.0, np.linalg.norm(b)):
        raise ValueError(f"matrix is not symmetric: ||B - B^T|| = {asym:.3e}")
    values, vectors = np.linalg.eigh(0.5 * (b + b.T))
    return SymEig(values, vectors)


def condition_number(s):
    """2-norm condition number sigma_max / sigma_min, or +inf exactly when
    ``numerical_rank`` is below full (the ratio would then be roundoff)."""
    return _kappa_rank(s)[0]


def _rank(sv):
    """Count of singular values (descending) above RANK_TOL * sigma_max."""
    return int(np.count_nonzero(sv > RANK_TOL * sv[0])) if sv.size else 0


def _kappa_rank(s):
    """(``condition_number(s)``, ``numerical_rank(s)``) from one SVD."""
    sv = np.linalg.svd(np.asarray(s, dtype=np.float64), compute_uv=False)
    rank = _rank(sv)
    return (float(sv[0] / sv[-1]) if 0 < rank == sv.size else np.inf), rank


def numerical_rank(s):
    """Number of singular values above RANK_TOL * sigma_max."""
    return _kappa_rank(s)[1]


def orthonormal_range(s):
    """Orthonormal basis of the numerical range of ``s`` via SVD.

    Keeps the left singular vectors whose singular values exceed
    RANK_TOL * sigma_max (at least one column is always kept), so the
    basis dimension is the rank ``numerical_rank`` reports.

    Returns
    -------
    (u, rank) : ndarray of shape (n, rank) and the retained rank.
    """
    u, sv, _ = np.linalg.svd(np.asarray(s, dtype=np.float64), full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        raise ValueError("cannot orthonormalize an all-zero block")
    rank = max(1, _rank(sv))
    return u[:, :rank], rank
