"""Contour-integral moment baseline over the circle through a and b.

Moments S_k = sum_j w_j z_j^k (z_j I - A)^{-1} V are assembled from
trapezoidal quadrature nodes on the circle; because the nodes come in
conjugate pairs and A, V are real, only the upper-half systems are solved
and the conjugate contributions are folded in as 2 Re(...).  Each shifted
solution is added into all m moments at once, through one (n, m, ell)
accumulator returned as the (n, m * ell) block [S_0 | ... | S_{m-1}].
The restart / Rayleigh-Ritz driver (``engine.restart_loop``) is shared with
the polynomial-filter solver, so the two methods differ only in how the
moment blocks are built; each shifted solve's ``mv_count`` is the one bill
for its matrix applications.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import restart_loop
from .sparse import MVCounter, matvec


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


def trapezoid_rule(iv, q=16):
    """Quadrature rule on the circle with diameter [a, b] (original units).

    Parameters
    ----------
    iv : TargetInterval
    q : int
        Even node count, q >= 4.
    """
    if q % 2 != 0:
        raise ValueError(f"node count must be even, got {q}")
    if q < 4:
        raise ValueError(f"node count must be >= 4, got {q}")
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
    """Cost and accuracy bookkeeping of one shifted block solve."""

    mv_count: int
    iterations: int
    final_relres: float
    converged: bool


def shifted_krylov_solve(a, z, b, tol=1e-12, maxit=20000):
    """Solve (z I - A) X = B column-wise for complex z with Im(z) != 0.

    B is an (n, ell) block.  Uses a conjugate-orthogonal short-recurrence
    iteration for the complex-symmetric operator z I - A (bilinear inner
    products, one matrix application per iteration).  Stops each column at
    relative residual <= tol (tol > 0) or after maxit iterations; a
    vanishing bilinear form and maxit are reported via the stats flag
    rather than an exception so a surrounding solve can continue with
    degraded accuracy.

    Returns
    -------
    (x, stats) : complex (n, ell) ndarray, ShiftedSolveStats
        ``iterations`` is the maximum over columns, ``final_relres`` the
        worst column, ``mv_count`` the total.
    """
    if z.imag == 0.0:
        raise ValueError("shift must have nonzero imaginary part")
    if not tol > 0:
        raise ValueError(f"shifted-solve tol must be > 0, got {tol}")
    b = np.asarray(b)
    x = np.zeros(b.shape, dtype=np.complex128)
    counter = MVCounter()
    worst_iters = 0
    worst_relres = 0.0
    all_converged = True

    for col in range(b.shape[1]):
        rhs = b[:, col].astype(np.complex128)
        bnorm = np.linalg.norm(rhs)
        if bnorm == 0.0:
            continue
        xc = np.zeros_like(rhs)
        r = rhs.copy()
        ar = z * r - matvec(a, r, counter)
        rar = r @ ar  # bilinear (unconjugated) product
        p = r.copy()
        ap = ar.copy()
        iters = 0
        relres = 1.0
        converged = False
        for iters in range(1, maxit + 1):
            denom = ap @ ap
            if denom == 0.0 or rar == 0.0:
                break  # the bilinear form vanished: report what we have
            alpha = rar / denom
            xc += alpha * p
            r -= alpha * ap
            relres = np.linalg.norm(r) / bnorm
            if relres <= tol:
                converged = True
                break
            ar = z * r - matvec(a, r, counter)
            rar_next = r @ ar
            beta = rar_next / rar
            rar = rar_next
            p = r + beta * p
            ap = ar + beta * ap
        x[:, col] = xc
        worst_iters = max(worst_iters, iters)
        worst_relres = max(worst_relres, float(relres))
        all_converged = all_converged and converged

    stats = ShiftedSolveStats(
        mv_count=counter.count,
        iterations=worst_iters,
        final_relres=worst_relres,
        converged=all_converged,
    )
    return x, stats


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

    Per restart: q/2 shifted block solves on the upper-half nodes (the
    conjugate nodes contribute the conjugated solutions for free), moment
    assembly S_k = sum_j 2 Re(w_j z_j^k X_j), then the shared
    orthonormalize / project / convergence-test / restart path.
    ``mv_exact`` counts every complex matrix application at face value plus
    the projection's real ones.
    """
    rule = trapezoid_rule(iv, q)
    n, ell_v = np.shape(v0)
    if ell_v != ell:
        raise ValueError(f"V0 has {ell_v} columns, expected ell = {ell}")
    shift_log = []

    def build_block(v, restart, counter):
        s = np.zeros((n, m, ell))
        for jj in rule.upper_half:
            zj, wj = rule.nodes[jj], rule.weights[jj]
            xj, stats = shifted_krylov_solve(a, zj, v, tol=krylov_tol)
            counter.add(stats.mv_count)
            shift_log.append({"restart": restart, "node": complex(zj), "stats": stats})
            # c_k = w_j z_j^k for all k, formed in real arithmetic: numpy's
            # complex array product rounds differently from its scalar one.
            zk = zj ** np.arange(m)
            c_re = wj.real * zk.real - wj.imag * zk.imag
            c_im = wj.real * zk.imag + wj.imag * zk.real
            s += 2.0 * (c_re[:, None] * xj.real[:, None] - c_im[:, None] * xj.imag[:, None])
        return s.reshape(n, m * ell)

    rep = restart_loop(
        a, tr, iv, v0, build_block,
        tol=tol, max_restarts=max_restarts, n_ev_target=n_ev_target,
    )
    return replace(rep, shift_stats=shift_log)
