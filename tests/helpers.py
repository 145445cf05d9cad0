"""Shared builders for model matrices with analytically known spectra."""

import numpy as np
import scipy.sparse as sp

from eigenspan import SparseSymmetric


def diag_matrix(values):
    """Diagonal matrix with the given diagonal entries."""
    return SparseSymmetric.from_scipy(sp.diags(np.asarray(values, dtype=np.float64)).tocsr())


def laplacian_1d(n):
    """Tridiagonal second-difference matrix (Dirichlet ends)."""
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    return SparseSymmetric.from_scipy(sp.diags([off, main, off], [-1, 0, 1]).tocsr())


def laplacian_2d(k):
    """Five-point Laplacian on a k-by-k grid (Dirichlet ends), n = k^2."""
    t = sp.diags([np.full(k - 1, -1.0), np.full(k, 2.0), np.full(k - 1, -1.0)], [-1, 0, 1])
    eye = sp.identity(k)
    return SparseSymmetric.from_scipy((sp.kron(t, eye) + sp.kron(eye, t)).tocsr())


def laplacian_eigs(n):
    """Ascending eigenvalues of laplacian_1d(n): 2 - 2 cos(k pi / (n+1))."""
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))


def random_symmetric(n, rng, scale=1.0):
    """Dense random symmetric matrix with entries ~ N(0, scale^2)."""
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


def random_spectrum_matrix(eigenvalues, rng):
    """Dense symmetric matrix with the prescribed spectrum (random eigenbasis)."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n = eigenvalues.size
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * eigenvalues) @ q.T


def force_panels(monkeypatch, panels):
    """Make ``chebyshev_moments`` split every start block into min(panels, ell) column panels."""
    from eigenspan import filters

    monkeypatch.setattr(filters, "PANEL_ELEMENTS", 1)
    monkeypatch.setattr(filters, "usable_cpus", lambda: panels)
