"""The interval-solve policy: from a matrix and [a, b] to a finished solve.

``solve_interval`` checks every argument, fixes the spectral transform
(given bounds, or Lanczos) and the interval, counts the interval with the
stochastic trace, sets the target max(1, round(n_ev_tilde - 1)), the block
size ell = min(ceil(1.5 * n_ev_tilde / m), n) unless one is given and the
start block default_rng(seed).standard_normal((n, ell)), and runs the
damped-Chebyshev solver ("cj") or the contour baseline ("contour").
``count_interval`` stops after the count and ``plan_interval`` before the
run, so that one count and one start block can serve both methods.
"""

from dataclasses import dataclass

import numpy as np

from .contour import check_node_count, check_shift_tol, run_baseline
from .engine import check_block_width, check_stopping, run_cjssrr
from .estimators import estimate_count, recommended_block_size, select_degree
from .filters import check_degree, make_filter_spec
from .transform import (MappedOperator, SpectralTransform, TargetInterval, estimate_spectral_range,
                        exact_transform, make_interval)

METHODS = ("cj", "contour")


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """What a solve fixes before its restart loop, and the run's arguments as given.

    ``degree`` is the filter degree, the count's "auto" degree (the contour
    baseline runs no filter); ``n_ev_target`` pairs must converge from the
    (n, ell) start block ``v0``.
    """

    transform: SpectralTransform
    interval: TargetInterval
    degree: int
    m: int
    ell: int
    n_ev_target: int
    v0: np.ndarray
    basis: str
    tol: float
    max_restarts: int
    quad_nodes: int
    krylov_tol: float


def filter_degree(iv, m, degree="auto", d_factor=1.0, k_factor=10.0):
    """``degree``, or for "auto" the width rule of ``select_degree`` with D and K."""
    if degree == "auto":
        return select_degree(iv.width_t, m, d_factor=d_factor, k_factor=k_factor).d
    return degree


def start_block(n, ell, seed=0):
    """The start block V0 = default_rng(seed).standard_normal((n, ell))."""
    return np.random.default_rng(seed).standard_normal((n, ell))


def locate_interval(a, lo, hi, bounds="auto", lanczos_steps=50, seed=0):
    """(transform, interval): ``bounds`` = (lmin, lmax), or a seeded Lanczos estimate."""
    if isinstance(bounds, str) and bounds == "auto":
        tr = estimate_spectral_range(a, steps=min(lanczos_steps, a.n), seed=seed)
    else:
        tr = exact_transform(*bounds)
    return tr, make_interval(tr, lo, hi)


def count_interval(a, lo, hi, *, count_degree="auto", samples=30, seed=0, bounds="auto",
                   lanczos_steps=50, degree="auto", m=4, d_factor=1.0, k_factor=10.0):
    """The count step: (transform, interval, filter degree, CountEstimate).

    The count runs at ``count_degree``, or at the filter degree for "auto".
    """
    tr, iv = locate_interval(a, lo, hi, bounds, lanczos_steps, seed)
    degree = filter_degree(iv, m, degree, d_factor, k_factor)
    d = degree if count_degree == "auto" else count_degree
    est = estimate_count(MappedOperator(a, tr), iv, d=d, samples=samples, seed=seed)
    return tr, iv, degree, est


def plan_interval(a, lo, hi, *, m=4, ell="auto", degree="auto", basis="chebyshev", seed=0,
                  tol=1e-10, max_restarts=30, quad_nodes=16, krylov_tol=1e-12, **count_options):
    """Check the arguments of both methods, count, and fix the run: (SolvePlan, CountEstimate).

    ``count_options`` are the rest of ``count_interval``'s keywords.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if degree != "auto":
        check_degree(degree)
    check_node_count(quad_nodes)
    check_shift_tol(krylov_tol)
    check_stopping(tol, max_restarts)
    if ell != "auto":
        check_block_width(a.n, ell)
    tr, iv, degree, est = count_interval(a, lo, hi, seed=seed, degree=degree, m=m, **count_options)
    if ell == "auto":
        ell = min(recommended_block_size(est.n_ev_tilde, m), a.n)
    target = max(1, int(round(est.n_ev_tilde - 1.0)))
    return SolvePlan(tr, iv, int(degree), m, int(ell), target, start_block(a.n, ell, seed), basis,
                     tol, max_restarts, quad_nodes, krylov_tol), est


def _check_method(method):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def run_plan(a, plan, method="cj"):
    """The SolveReport of ``method`` run from ``plan``."""
    _check_method(method)
    tr, iv = plan.transform, plan.interval
    stop = dict(tol=plan.tol, max_restarts=plan.max_restarts, n_ev_target=plan.n_ev_target)
    if method == "cj":
        spec = make_filter_spec(iv, plan.degree, plan.m, basis=plan.basis)
        return run_cjssrr(a, tr, iv, spec, plan.v0, **stop)
    return run_baseline(a, tr, iv, plan.m, plan.ell, plan.v0, q=plan.quad_nodes,
                        krylov_tol=plan.krylov_tol, **stop)


def solve_interval(a, lo, hi, *, method="cj", **options):
    """Every eigenpair of ``a`` in [lo, hi]: (SolveReport, CountEstimate, SolvePlan).

    ``options`` are the keywords of ``plan_interval`` and ``count_interval``,
    named and defaulted as the CLI flags (``d_factor``, ``k_factor`` for
    ``--d``, ``--k``; ``bounds`` for ``--spectral-bounds``).
    """
    _check_method(method)
    plan, est = plan_interval(a, lo, hi, **options)
    return run_plan(a, plan, method), est, plan
