"""Contour-integral moment baseline over the circle through a and b.

Moments S_k = sum_j w_j z_j^k (z_j I - A)^{-1} V are assembled from
trapezoidal quadrature nodes on the circle; because the nodes come in
conjugate pairs and A, V are real, only the upper-half systems are solved
and the conjugate contributions are folded in as 2 Re(...).  All q/2 * ell
shifted systems of a restart, one (node, column of V) pair per column, run
as one blocked COCG iteration with one shift per column; each column keeps
its own stopping rule and leaves the block when it stops, so every block
matrix application multiplies running columns only and a column is billed
one application per iteration.  The moments are one contraction of the
(m, q/2) coefficients w_j z_j^k with the solutions, returned as the
(n, m * ell) block [S_0 | ... | S_{m-1}].  The restart /
Rayleigh-Ritz driver (``engine.restart_loop``) is shared with the
polynomial-filter solver, so the two methods differ only in how the moment
blocks are built; the shifted solve's per-column ``mv_count`` is the one
bill for its matrix applications.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import restart_loop
from .errors import check_at_least
from .sparse import matvec


@dataclass(frozen=True)
class QuadratureRule:
    """Midpoint trapezoid nodes/weights on the circle through a and b.

    Nodes z_j = c + r e^{i theta_j} with theta_j = (2j - 1) pi / q sit off
    the real axis and are closed under conjugation; weights are chosen so
    sum_j w_j f(z_j) approximates the mean-value contour integral
    (2 pi i)^{-1} times the closed line integral of f.
    """

    nodes: np.ndarray
    weights: np.ndarray
    q: int
    center: float
    radius: float

    @property
    def upper_half(self):
        """Indices of the nodes with positive imaginary part."""
        return np.flatnonzero(self.nodes.imag > 0.0)


def check_node_count(q):
    """Raise ValueError unless q is an even node count >= 4."""
    if q % 2 != 0:
        raise ValueError(f"node count must be even, got {q}")
    check_at_least("node count", q, 4)


def check_shift_tol(tol):
    """Raise ValueError unless the shifted-solve tolerance is > 0."""
    if not tol > 0:
        raise ValueError(f"shifted-solve tol must be > 0, got {tol}")


def trapezoid_rule(iv, q=16):
    """Quadrature rule on the circle with diameter [a, b] (original units).

    Parameters
    ----------
    iv : TargetInterval
    q : int
        Even node count, q >= 4.
    """
    check_node_count(q)
    center = 0.5 * (iv.a + iv.b)
    radius = 0.5 * (iv.b - iv.a)
    theta = (2.0 * np.arange(1, q + 1) - 1.0) * math.pi / q
    rays = np.exp(1j * theta)
    return QuadratureRule(
        nodes=center + radius * rays,
        weights=radius * rays / q,
        q=int(q),
        center=center,
        radius=radius,
    )


def rational_filter_value(rule, t):
    """Direct evaluation of the induced rational filter sum_j w_j / (z_j - t)."""
    t = np.asarray(t)
    return np.sum(rule.weights / (rule.nodes - t[..., None]), axis=-1)


@dataclass
class ShiftedSolveStats:
    """Cost and accuracy bookkeeping of one shifted solve (a column or a block)."""

    mv_count: int
    iterations: int
    final_relres: float
    converged: bool

    @classmethod
    def combine(cls, parts):
        """Stats of a block from its columns': MVs summed, the rest the worst."""
        return cls(
            mv_count=sum(s.mv_count for s in parts),
            iterations=max((s.iterations for s in parts), default=0),
            final_relres=max((s.final_relres for s in parts), default=0.0),
            converged=all(s.converged for s in parts),
        )


# The per-column reductions stay in numpy's own loops rather than a BLAS
# matrix-vector product: a multithreaded BLAS call on blocks this small ran
# 30 times slower on a busy 2-core machine.
def _coldot(u, v):
    """Unconjugated (bilinear) product of each column of u with the same column of v."""
    return (u * v).sum(axis=0)


def _colnorm(u):
    """Euclidean norm of each column of a complex block."""
    w = u.view(np.float64)
    sq = np.einsum("ij,ij->j", w, w)  # re^2 and im^2 of each column, interleaved
    return np.sqrt(sq[0::2] + sq[1::2])


class _Running:
    """COCG working arrays of the running columns.

    Blocks are (n, k') with one running column each, vectors have one entry
    per running column, and ``cols`` maps them back to block columns.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for name, arr in self.__dict__.items():
            self.__dict__[name] = arr.compress(mask, axis=-1)


def shifted_krylov_solve(a, z, b, tol=1e-12, maxit=20000):
    """Solve (z_c I - A) x_c = b_c for every column c of B, with Im(z_c) != 0.

    B is an (n, k) block and z holds k complex shifts, one per column; a
    single shift is used for every column.  Each column runs the
    conjugate-orthogonal short-recurrence iteration (COCG) for the
    complex-symmetric operator z_c I - A, with bilinear (unconjugated)
    products.  All running columns advance together, one block matrix
    application per step, and a column leaves the block as soon as it
    stops, so only running columns are multiplied: a column is billed one
    matrix application per iteration.  A column stops at
    relative residual <= tol (tol > 0), at a vanishing bilinear form, or
    after maxit iterations; the last two are reported through
    ``converged`` rather than raised, so a surrounding solve can continue
    with degraded accuracy.  A zero column gets x = 0 at no cost.

    Returns
    -------
    (x, stats) : complex (n, k) ndarray, and a list of k
        ShiftedSolveStats, one per column (``ShiftedSolveStats.combine``
        merges them).
    """
    b = np.asarray(b)
    n, k = b.shape
    shifts = np.broadcast_to(np.asarray(z, dtype=np.complex128), (k,))
    if np.any(shifts.imag == 0.0):
        raise ValueError("shift must have nonzero imaginary part")
    check_shift_tol(tol)

    # Per-column results, written when a column stops; a zero column keeps
    # the initial values.
    x = np.zeros((n, k), dtype=np.complex128)
    iters = np.zeros(k, dtype=np.int64)
    relres = np.zeros(k)
    converged = np.ones(k, dtype=bool)

    bnorm = np.linalg.norm(b, axis=0)
    cols = np.flatnonzero(bnorm > 0.0)
    r = b[:, cols].astype(np.complex128, order="C")
    # p = Ap = 0 and rar = 1 make the first step's beta * p vanish, so every
    # step starts with its one product.
    w = _Running(
        cols=cols, bnorm=bnorm[cols], z=shifts[cols], x=np.zeros_like(r), r=r,
        relres=np.ones(cols.size), p=np.zeros_like(r), ap=np.zeros_like(r),
        rar=np.ones(cols.size, dtype=np.complex128),
    )

    def shifted_product():
        """(z_c I - A) r_c for every running column: one product per column and iteration."""
        ar = w.z * w.r
        ar -= matvec(a, w.r)
        return ar

    def retire(mask, it, flag):
        stopped = w.cols[mask]
        x[:, stopped] = w.x[:, mask]
        iters[stopped] = it
        relres[stopped] = w.relres[mask]
        converged[stopped] = flag
        w.keep(~mask)

    it = 0
    while w.cols.size and it < maxit:
        it += 1
        ar = shifted_product()
        rar = _coldot(w.r, ar)
        beta = rar / w.rar
        w.rar = rar
        w.p *= beta
        w.p += w.r
        w.ap *= beta
        w.ap += ar
        denom = _coldot(w.ap, w.ap)
        vanished = (denom == 0.0) | (w.rar == 0.0)
        if vanished.any():  # the bilinear form vanished: keep what we have
            retire(vanished, it, False)
            denom = denom[~vanished]
            if not w.cols.size:
                break
        alpha = w.rar / denom
        w.x += alpha * w.p
        w.r -= alpha * w.ap
        w.relres = _colnorm(w.r) / w.bnorm
        done = w.relres <= tol
        if done.any():
            retire(done, it, True)
    retire(np.ones(w.cols.size, dtype=bool), it, False)  # maxit reached

    return x, [
        ShiftedSolveStats(int(i), int(i), float(r), bool(f))
        for i, r, f in zip(iters, relres, converged)
    ]


def run_baseline(
    a,
    tr,
    iv,
    m,
    ell,
    v0,
    q=16,
    krylov_tol=1e-12,
    tol=1e-10,
    max_restarts=30,
    n_ev_target=None,
):
    """Restarted contour-moment solver, reported like the filter solver.

    Per restart: one shifted solve with one shift per column for the q/2
    upper-half nodes times the ell columns of V (the conjugate nodes
    contribute the conjugated solutions for free), the moments
    S_k = sum_j 2 Re(w_j z_j^k X_j) as one contraction over the nodes, then
    the shared orthonormalize / project / convergence-test / restart path.
    ``shift_stats`` holds one entry per restart and node, its columns'
    stats combined.  ``mv_exact`` counts every complex matrix application
    at face value (one per iteration of each column) plus the projection's
    real ones.
    """
    rule = trapezoid_rule(iv, q)
    n, ell_v = np.shape(v0)
    if ell_v != ell:
        raise ValueError(f"V0 has {ell_v} columns, expected ell = {ell}")
    nodes = rule.nodes[rule.upper_half]
    coeffs = rule.weights[rule.upper_half] * nodes ** np.arange(m)[:, None]  # c_kj = w_j z_j^k
    shift_log = []

    def build_block(v, restart, counter):
        # One blocked solve per restart: column j * ell + c is (z_j I - A) x = v_c.
        x, col_stats = shifted_krylov_solve(
            a, np.repeat(nodes, ell), np.tile(v, nodes.size), tol=krylov_tol
        )
        for j, zj in enumerate(nodes):
            stats = ShiftedSolveStats.combine(col_stats[j * ell : (j + 1) * ell])
            counter.add(stats.mv_count)
            shift_log.append({"restart": restart, "node": complex(zj), "stats": stats})
        s = 2.0 * np.einsum("kj,njc->nkc", coeffs, x.reshape(n, nodes.size, ell)).real
        return s.reshape(n, m * ell)

    rep = restart_loop(
        a, tr, iv, v0, build_block,
        tol=tol, max_restarts=max_restarts, n_ev_target=n_ev_target,
    )
    return replace(rep, shift_stats=shift_log)
