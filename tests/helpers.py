"""Shared builders for model matrices with analytically known spectra, a product spy
and a child-interpreter runner."""

import os
import subprocess
import sys

import numpy as np
import scipy.sparse as sp

import eigenspan
from eigenspan import SparseSymmetric

# Child interpreters import the same package tree as this process.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eigenspan.__file__)))


def run_child(code):
    """Run ``code`` in a fresh interpreter; return its stdout split into words."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


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


class ColumnSpy:
    """Stands in for ``a._csr``; counts the columns pushed through the wrapped CSR matrix."""

    def __init__(self, csr):
        self.csr = csr
        self.columns = 0

    def __matmul__(self, x):
        self.columns += 1 if np.ndim(x) == 1 else x.shape[1]
        return self.csr @ x

    def diagonal(self):
        return self.csr.diagonal()


def force_panels(monkeypatch, panels):
    """Make ``chebyshev_moments`` split every start block into min(panels, ell) column panels."""
    from eigenspan import filters

    monkeypatch.setattr(filters, "PANEL_ELEMENTS", 1)
    monkeypatch.setattr(filters, "usable_cpus", lambda: panels)
