"""Restarted moment-subspace iteration with Rayleigh-Ritz extraction.

Each restart builds a stacked moment block from the current start block,
orthonormalizes it, projects the *original* matrix onto that basis, and
keeps the leading moment block as the next start.  ``restart_loop`` is that
driver; the damped-Chebyshev solver here and the contour baseline differ
only in the block builder they hand it.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dense import dense_sym_eig, orthonormal_range
from .filters import build_moment_block
from .sparse import MVCounter, matvec
from .transform import MappedOperator


@dataclass
class RitzSet:
    """Ritz pairs of one Rayleigh-Ritz pass, sorted by ascending value.

    Attributes
    ----------
    values : ndarray, shape (m,)
        Ritz values in original units.
    vectors : ndarray, shape (n, m)
        Ritz vectors with unit 2-norm columns.
    residual_norms : ndarray, shape (m,)
        Relative residuals ||A x - theta x|| / (||A|| * ||x||).
    in_interval : ndarray of bool, shape (m,)
        Closed-interval membership of each Ritz value in [a, b].
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    in_interval: np.ndarray


def rayleigh_ritz(a, u, iv, norm_a, counter=None):
    """Project ``a`` onto the orthonormal basis ``u`` and extract Ritz pairs.

    Charges the matrix applications for A @ U (one per basis column) and
    reuses that product for the residual norms, so no further products are
    needed.

    Parameters
    ----------
    a : SparseSymmetric
        The original (untransformed) matrix.
    u : ndarray, shape (n, m)
        Orthonormal basis of the search subspace.
    iv : TargetInterval
    norm_a : float
        Spectral-norm estimate of ``a`` used to scale residuals.
    counter : MVCounter, optional
    """
    gram_defect = np.max(np.abs(u.T @ u - np.eye(u.shape[1])))
    if gram_defect > 1e-10:
        raise ValueError(f"basis is not orthonormal (Gram defect {gram_defect:.2e})")
    au = matvec(a, u, counter)
    projected = u.T @ au
    eig = dense_sym_eig(0.5 * (projected + projected.T))
    vectors = u @ eig.vectors
    residual = au @ eig.vectors - vectors * eig.values
    residual_norms = np.linalg.norm(residual, axis=0) / max(norm_a, np.finfo(float).tiny)
    return RitzSet(
        values=eig.values,
        vectors=vectors,
        residual_norms=residual_norms,
        in_interval=iv.contains(eig.values),
    )


def check_convergence(rs, tol, n_ev_target):
    """Count converged in-interval pairs; converged means strictly below tol.

    Returns
    -------
    (done, n_converged) : (bool, int)
        ``done`` is True when at least ``n_ev_target`` in-interval Ritz
        values have residual_norm < tol.
    """
    n_converged = int(np.count_nonzero(rs.in_interval & (rs.residual_norms < tol)))
    return n_converged >= n_ev_target, n_converged


def mv_accounting(d, m, ell, n, nnz):
    """Exact and nnz-equivalent matrix-application counts per restart.

    Returns
    -------
    (per_iter_exact, per_iter_equivalent)
        ``per_iter_exact``: d * ell filter applications plus m * ell for the
        projection, i.e. (d / m + 1) * m * ell.
        ``per_iter_equivalent``: a model of the filter's non-product dense
        work, m + 1 passes over an n-by-ell block per step, in units of one
        sparse product: (m + 1) * n / nnz * d * ell.  It is a model, not a
        measurement: ``build_moment_block`` makes four elementwise passes
        per step whatever m is, and adds the iterates into all m moments
        with one GEMM per batch.  Solves report neither; they report the
        applications they counted, ``mv_exact``.
    """
    per_iter = d * ell + m * ell
    equivalent = (m + 1) * n / nnz * d * ell
    return per_iter, equivalent


@dataclass
class SolveReport:
    """Outcome of a restarted solve.

    ``ritz`` holds only the converged in-interval pairs (ascending).
    ``mv_exact`` counts the matrix applications the solve made.
    ``degraded_ranks`` holds the basis rank of each restart whose stacked
    block lost numerical rank; it is the only record of rank loss.
    ``degree_used`` is the polynomial filter's degree, 0 when none ran.
    """

    ritz: RitzSet
    converged: bool
    restarts: int
    max_residual: float
    mv_exact: int
    m: int
    ell: int
    n_ev_target: int
    degree_used: int = 0
    degraded_ranks: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    shift_stats: list = field(default_factory=list)


def orthonormalize_block(s):
    """Orthonormal basis of a stacked block's numerical range (SVD).

    Returns (u, None) when the block has full numerical rank, or (u, rank)
    when dependent directions were dropped; ``rank`` is the column count of
    ``u``, the dimension the solve continues on.
    """
    u, rank = orthonormal_range(s)
    return u, (None if rank == s.shape[1] else rank)


def restart_loop(
    a,
    tr,
    iv,
    v0,
    build_block,
    *,
    tol,
    max_restarts,
    n_ev_target,
):
    """Restart / Rayleigh-Ritz driver shared by both solvers.

    Parameters
    ----------
    a : SparseSymmetric
        The original (untransformed) matrix.
    tr : SpectralTransform
    iv : TargetInterval
    v0 : ndarray, shape (n, ell)
        Start block.
    build_block : callable
        ``build_block(v, restart, counter)`` returns the stacked moment
        block [S_0 | ... | S_{m-1}] of shape (n, m * ell) for the start
        block ``v`` and charges its matrix applications to ``counter``.
        It is the only step in which the methods differ.  The report's m
        is the block's width over ell.
    tol, max_restarts, n_ev_target
        As in ``run_cjssrr``.

    Returns
    -------
    SolveReport
        Best effort (converged=False) when ``max_restarts`` is reached.
    """
    if n_ev_target is None:
        raise ValueError("n_ev_target is required")
    if max_restarts < 1:
        raise ValueError(f"need max_restarts >= 1, got {max_restarts}")
    if not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    v = np.asarray(v0, dtype=np.float64)
    ell = v.shape[1]
    if ell < 1:
        raise ValueError("the start block has no columns")
    counter = MVCounter()
    norm_a = tr.operator_norm
    degraded = []
    history = []
    for restarts in range(1, max_restarts + 1):
        s = build_block(v, restarts, counter)
        u, lost_rank = orthonormalize_block(s)
        if lost_rank is not None:
            degraded.append(lost_rank)
        rs = rayleigh_ritz(a, u, iv, norm_a, counter)
        # Track the quality of the wanted pairs: the largest residual among
        # the n_ev_target best in-interval pairs.  Ghost pairs (extra basis
        # directions that land inside the interval with O(1) residuals) are
        # excluded -- they do not gate convergence and would swamp the metric.
        inside_res = np.sort(rs.residual_norms[rs.in_interval])
        if inside_res.size:
            history.append(float(inside_res[: int(n_ev_target)][-1]))
        else:
            history.append(float("nan"))
        converged, _ = check_convergence(rs, tol, n_ev_target)
        if converged:
            break
        # Restart from the leading moment block, orthonormalized.  This
        # changes no later search subspace in exact arithmetic (each moment
        # column block is invariant under right-multiplying V by a
        # nonsingular matrix), but it stops the iterate from collapsing onto
        # the dominant directions over many restarts in floating point.
        # Householder QR never fails: if the columns are dependent, the
        # surplus directions come back as fresh orthonormal vectors.
        v = np.linalg.qr(s[:, :ell], mode="reduced")[0]

    keep = rs.in_interval & (rs.residual_norms < tol) if converged else rs.in_interval
    kept_res = rs.residual_norms[keep]
    return SolveReport(
        ritz=RitzSet(
            values=rs.values[keep],
            vectors=rs.vectors[:, keep],
            residual_norms=rs.residual_norms[keep],
            in_interval=rs.in_interval[keep],
        ),
        converged=converged,
        restarts=restarts,
        max_residual=float(kept_res.max()) if kept_res.size else float("nan"),
        mv_exact=counter.count,
        m=s.shape[1] // ell,
        ell=ell,
        n_ev_target=int(n_ev_target),
        degraded_ranks=degraded,
        residual_history=history,
    )


def run_cjssrr(
    a,
    tr,
    iv,
    spec,
    v0,
    tol=1e-10,
    max_restarts=30,
    n_ev_target=None,
):
    """Run the restarted damped-Chebyshev solver to a residual tolerance.

    Parameters
    ----------
    a : SparseSymmetric
    tr : SpectralTransform
    iv : TargetInterval
    spec : FilterSpec
        Filter built for ``iv`` (degree and basis count fixed here).
    v0 : ndarray, shape (n, ell)
        Start block.
    tol : float
        Relative-residual target, ||A x - theta x|| / ||A|| < tol; tol > 0.
    max_restarts : int
        At least 1.
    n_ev_target : int
        Number of in-interval eigenpairs that must converge.  Required:
        the caller knows it from a count estimate or from problem data.

    Returns
    -------
    SolveReport
        If the target is not reached within ``max_restarts`` the report is
        returned with converged=False (best effort, never an exception).

    Notes
    -----
    If the stacked filtered block loses numerical rank, the solve continues
    on the detected-rank subspace and records that rank in
    ``degraded_ranks``; nothing is printed.
    """
    a_t = MappedOperator(a, tr)
    rep = restart_loop(
        a, tr, iv, v0,
        lambda v, restart, counter: build_moment_block(a_t, v, spec, counter),
        tol=tol, max_restarts=max_restarts, n_ev_target=n_ev_target,
    )
    return replace(rep, degree_used=int(spec.d))
