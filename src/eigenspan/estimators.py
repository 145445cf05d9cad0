"""Expansion-degree selection and stochastic eigenvalue counting."""

import math
from dataclasses import dataclass

import numpy as np

from .filters import check_degree, chebyshev_moments, make_filter_spec
from .sparse import MVCounter

PI2 = math.pi**2


@dataclass(frozen=True)
class DegreeChoice:
    """Selected expansion degree together with the knobs that produced it.

    ``width`` is the mapped interval width the rule was evaluated on.
    """

    d: int
    width: float
    m: int
    d_factor: float
    k_factor: float


def select_degree(width_t, m, d_factor=1.0, k_factor=10.0):
    """Practical expansion degree for a mapped interval width and block count.

    d = ceil(D * pi^2 / w^(4/3) + pi^2 * (M - 1)^2 / (K^2 * w)) - 2,

    clamped to at least 2.  The first term drives the cubic-rate tail of the
    filter error, the second controls the part growing with the basis degree;
    D in [1, 8] and K in [1, 10] trade filter sharpness against matrix
    applications per iteration.

    Parameters
    ----------
    width_t : float
        Interval width in mapped units, 0 < width_t <= 2.
    m : int
        Number of basis polynomials (m >= 1).
    d_factor, k_factor : float
        The D and K knobs above.

    Returns
    -------
    DegreeChoice
    """
    if not 0.0 < width_t <= 2.0:
        raise ValueError(f"mapped width must be in (0, 2], got {width_t}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not 1.0 <= d_factor <= 8.0:
        raise ValueError(f"d_factor must be in [1, 8], got {d_factor}")
    if not 1.0 <= k_factor <= 10.0:
        raise ValueError(f"k_factor must be in [1, 10], got {k_factor}")
    raw = (
        d_factor * PI2 / width_t ** (4.0 / 3.0)
        + PI2 * (m - 1) ** 2 / (k_factor**2 * width_t)
    )
    return DegreeChoice(
        d=max(2, math.ceil(raw) - 2),
        width=float(width_t),
        m=int(m),
        d_factor=float(d_factor),
        k_factor=float(k_factor),
    )


@dataclass(frozen=True)
class CountEstimate:
    """Stochastic-trace estimate of the eigenvalue count in the interval.

    ``mv_exact`` is the number of products with the matrix the estimate
    made, ceil(d / 2) * samples.
    """

    n_ev_tilde: float
    samples: int
    per_sample: np.ndarray
    seed: int
    d: int
    mv_exact: int


def estimate_count(a_t, iv, d=2000, samples=30, seed=0):
    """Estimate the number of eigenvalues in the interval by a filtered trace.

    Uses the degree-d damped expansion of the plain indicator (constant
    basis polynomial) on i.i.d. sign vectors v_i, returning

        n_ev_tilde = mean_i( v_i^T F_d(1)(A_t) v_i ) + 1,

    the +1 compensating the damped filter's deficit: its weights for
    eigenvalues near the interval ends are below 1, so the plain trace mean
    runs low as a count.  Deterministic for a fixed seed.

    Each probe's quadratic form is the weighted sum
    sum_j w_j mu_{j,i} of its Chebyshev moments mu_{j,i} = v_i^T T_j(A_t) v_i,
    with the filter's weights w_j = rho_j c_{0,j} (w_0 halved).  The
    moments come from ``chebyshev_moments``, which uses the kernel
    polynomial method's doubling identities

        T_{2k} = 2 T_k^2 - T_0,    T_{2k+1} = 2 T_{k+1} T_k - T_1

    (Weisse, Wellein, Alvermann & Fehske, Rev. Mod. Phys. 78, 275 (2006),
    Sec. II.D), so the estimate costs ceil(d / 2) * samples products and no
    (n, samples) accumulation.  The products are with the prescaled
    2 A_t = ``a_t.doubled()``, one more CSR copy of A held for the call, and
    the recurrence keeps a ring of two iterates with no tiles.  A probe
    block of n * samples >= 2 * PANEL_ELEMENTS elements runs as column
    panels on up to one thread per usable CPU, BLAS left at its own thread
    setting (see ``chebyshev_moments``).  The panels share only 2 A_t until
    they join; the estimate is the same bit for bit on any panel count, and
    the growth of the iterates is checked at every step.

    Parameters
    ----------
    a_t : MappedOperator
    iv : TargetInterval
    d : int
        Expansion degree for the indicator filter.
    samples : int
        Number of sign probes (s >= 1).
    seed : int

    Returns
    -------
    CountEstimate

    Raises
    ------
    RecurrenceDivergenceError
        If a recurrence iterate outgrows the start block (see
        ``chebyshev_moments``): the spectral transform misses part of the
        spectrum.  Any panel count names the same step.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    check_degree(d)
    rng = np.random.default_rng(seed)
    n = a_t.a.n
    v = rng.integers(0, 2, size=(n, samples)).astype(np.float64) * 2.0 - 1.0
    spec = make_filter_spec(iv, d=d, m=1, basis="chebyshev")
    counter = MVCounter()
    per_sample = spec.weights[0] @ chebyshev_moments(a_t, v, d, counter)
    return CountEstimate(
        n_ev_tilde=float(per_sample.mean() + 1.0),
        samples=int(samples),
        per_sample=per_sample,
        seed=int(seed),
        d=int(d),
        mv_exact=counter.count,
    )


def recommended_block_size(n_ev_tilde, m):
    """Block size ell = ceil(1.5 * n_ev_tilde / m), at least 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return max(1, math.ceil(1.5 * n_ev_tilde / m))
