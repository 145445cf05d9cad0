"""Damped Chebyshev approximation of the interval indicator times a polynomial.

For the indicator h of [a_t, b_t] (value 1 inside, 1/2 at the endpoints, 0
outside) and a basis polynomial p_k, the degree-d filtered expansion is

    F_d(p_k)(t) = c_{k,0}/2 + sum_{j=1..d} rho_{j,d} c_{k,j} T_j(t),

where T_j are Chebyshev polynomials of the first kind, rho_{j,d} are the
damping factors that make the underlying kernel nonnegative, and

    c_{k,j} = (2/pi) * integral_{beta}^{alpha} p_k(cos(theta)) cos(j theta) dtheta

with alpha = arccos(a_t), beta = arccos(b_t).  Applying F_d(p_k) to a matrix
uses only the three-term recurrence, d matrix applications per start vector.
The integrand is a trigonometric polynomial of degree d + k, so composite
Gauss-Legendre on panels short against its top frequency computes the
coefficients to roundoff.  This module holds the package's one quadrature
rule (``panel_rule``), its one series evaluator (``cosine_series``) and its
one basis evaluator (``basis_values``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RecurrenceDivergenceError

BASES = ("chebyshev", "scaled", "monomial")

#: Gauss-Legendre nodes per panel of ``panel_rule``.
PANEL_NODES = 32
#: Largest span, in radians of the integrand's top frequency, of one panel.
PANEL_RADIANS = 24.0
#: Angles per pass of the coefficient quadrature and of ``cosine_series``;
#: at degree 10^4 this keeps each complex quadrature temporary near 256 KB
#: and each cosine table near 10 MB.
ANGLE_CHUNK = 128


def jackson_factors(d):
    """Damping factors rho_{j, d}, j = 0..d.

    rho_{j,d} = sin((j+1) a) / ((d+2) sin a) + (1 - (j+1)/(d+2)) cos(j a)
    with a = pi / (d + 2).  rho_0 = 1 analytically; the factors decay to
    ~0 at j = d, which is what suppresses the Gibbs oscillations.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    j = np.arange(d + 1, dtype=np.float64)
    alpha = math.pi / (d + 2)
    rho = np.sin((j + 1) * alpha) / ((d + 2) * math.sin(alpha))
    rho += (1.0 - (j + 1) / (d + 2)) * np.cos(j * alpha)
    return rho


def panel_rule(lo, hi, frequency):
    """Nodes and weights of composite Gauss-Legendre on [lo, hi].

    Equal PANEL_NODES-node panels, each at most PANEL_RADIANS of
    ``frequency`` wide, integrate a trigonometric polynomial of that degree
    (times a low-degree polynomial) to roundoff.
    """
    panels = max(1, math.ceil((hi - lo) * frequency / PANEL_RADIANS))
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)


def cosine_series(theta, rows):
    """w_0/2 + sum_{j>=1} w_j cos(j theta) for each weight row w, one column per row.

    Rows may differ in length: each chunk of ANGLE_CHUNK angles builds one
    cosine table for the longest row, and every row reads a prefix of it.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    rows = [np.asarray(w, dtype=np.float64) for w in rows]
    j = np.arange(1, max((w.size for w in rows), default=1), dtype=np.float64)
    out = np.empty((theta.size, len(rows)))
    for start in range(0, theta.size, ANGLE_CHUNK):
        sl = slice(start, start + ANGLE_CHUNK)
        table = np.cos(np.outer(theta[sl], j))
        for col, w in enumerate(rows):
            out[sl, col] = 0.5 * w[0] + table[:, : w.size - 1] @ w[1:]
    return out


def basis_values(basis, ks, t, a_t, b_t):
    """Basis polynomials p_k(t), one row per k in ``ks`` (mapped units)."""
    ks = np.asarray(ks)[:, None]
    if basis == "monomial":
        return t**ks
    u = (2.0 * t - a_t - b_t) / (b_t - a_t)
    if basis == "scaled":
        return u**ks
    # u can stray past [-1, 1] by roundoff at the interval ends.
    return np.cos(ks * np.arccos(np.clip(u, -1.0, 1.0)))


def _coefficient_rows(iv, basis, ks, d):
    """Coefficients c_{k, 0..d} for every k in ``ks``, shape (len(ks), d + 1).

    Composite Gauss-Legendre over theta in [beta, alpha], each panel at most
    PANEL_RADIANS of the top frequency d + max(ks).  Writing j = W b + r
    with W = isqrt(d) + 1, angle addition gives
    cos(j theta) = Re(e^{i W b theta} e^{i r theta}), so each node chunk
    needs two small exponential tables and one complex matrix product per
    row for all d + 1 columns.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    ks = np.asarray(ks)
    theta, w = panel_rule(iv.beta, iv.alpha, d + int(ks.max()))
    g = 2.0 / math.pi * w * basis_values(basis, ks, np.cos(theta), iv.a_t, iv.b_t)

    width = math.isqrt(d) + 1
    blocks = d // width + 1
    out = np.zeros((ks.size, blocks, width))
    for start in range(0, theta.size, ANGLE_CHUNK):
        th = theta[start : start + ANGLE_CHUNK]
        coarse = np.exp(1j * np.outer(width * np.arange(blocks), th))
        fine = np.exp(1j * np.outer(th, np.arange(width)))
        for row, g_row in zip(out, g[:, start : start + ANGLE_CHUNK]):
            row += ((coarse * g_row) @ fine).real
    return out.reshape(ks.size, -1)[:, : d + 1]


def step_coefficients(iv, basis, k, d):
    """Expansion coefficients c_{k, j}, j = 0..d, for basis polynomial k.

    Parameters
    ----------
    iv : TargetInterval
    basis : {'chebyshev', 'scaled', 'monomial'}
        Polynomial family on the mapped interval: Chebyshev of the first
        kind in the interval-normalized variable (default elsewhere),
        plain powers of that variable, or raw powers of t.
    k : int
        Basis index (polynomial degree), k >= 0.
    d : int
        Expansion degree, d >= 0.

    Returns
    -------
    ndarray, shape (d + 1,)
    """
    if k < 0:
        raise ValueError(f"basis index must be >= 0, got {k}")
    return _coefficient_rows(iv, basis, [k], d)[0]


@dataclass(frozen=True)
class FilterSpec:
    """Fully assembled filter: damping factors and per-basis coefficients.

    Attributes
    ----------
    interval : TargetInterval
    d : int
        Expansion degree.
    m : int
        Number of basis polynomials (degrees 0 .. m-1).
    basis : str
    rho : ndarray, shape (d + 1,)
    coeffs : ndarray, shape (m, d + 1)
        Row k holds c_{k, 0..d}.
    """

    interval: "TargetInterval"  # noqa: F821 - forward ref for docs only
    d: int
    m: int
    basis: str
    rho: np.ndarray
    coeffs: np.ndarray


def make_filter_spec(iv, d, m, basis="chebyshev"):
    """Build the FilterSpec for m moment blocks at expansion degree d."""
    if m < 1:
        raise ValueError(f"need at least one basis polynomial, got m = {m}")
    rho = jackson_factors(d)
    coeffs = _coefficient_rows(iv, basis, np.arange(m), d)
    return FilterSpec(interval=iv, d=d, m=m, basis=basis, rho=rho, coeffs=coeffs)


def filter_scalar(spec, k, t):
    """Evaluate F_d(p_k) pointwise on mapped values t in [-1, 1].

    Vectorized over t; used by diagnostics and by the dense-oracle tests.
    Values outside [-1, 1] (beyond 1e-12 roundoff) are rejected, since the
    Chebyshev cos-form is only defined there.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("filter evaluation points must lie in [-1, 1]")
    theta = np.arccos(np.clip(t, -1.0, 1.0))
    out = cosine_series(theta, [spec.rho * spec.coeffs[k]])[:, 0]
    return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class MomentBlock:
    """Stacked filtered blocks S = [S_0 | ... | S_{m-1}] and the MV bill."""

    s: np.ndarray
    mv_count: int


def build_moment_block(a_t, v, spec, counter=None):
    """Apply all m filters to a start block with one shared recurrence.

    Computes S_k = F_d(p_k)(A_t) V for k = 0..m-1 using the three-term
    Chebyshev recurrence on the mapped operator: exactly d * ell matrix
    applications for an n-by-ell start block, independent of m.

    Parameters
    ----------
    a_t : MappedOperator
    v : ndarray, shape (n, ell)
    spec : FilterSpec
    counter : MVCounter, optional

    Returns
    -------
    MomentBlock
        ``s`` has shape (n, m * ell); columns k*ell .. (k+1)*ell - 1 hold S_k.

    Raises
    ------
    RecurrenceDivergenceError
        If any recurrence iterate stops being finite (spectrum escaping
        [-1, 1], i.e. an unsafe spectral transform); names the step.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"start block must be 2-D, got shape {v.shape}")
    n, ell = v.shape
    m, d = spec.m, spec.d
    weighted = spec.rho * spec.coeffs  # (m, d+1): rho_j * c_{k, j}

    s = np.zeros((n, m * ell))
    blocks = [s[:, k * ell : (k + 1) * ell] for k in range(m)]

    v_prev = v
    for k in range(m):
        blocks[k] += 0.5 * weighted[k, 0] * v_prev
    if d >= 1:
        v_curr = a_t.apply(v_prev, counter)
        for k in range(m):
            blocks[k] += weighted[k, 1] * v_curr
        for j in range(2, d + 1):
            v_prev, v_curr = v_curr, 2.0 * a_t.apply(v_curr, counter) - v_prev
            if not np.all(np.isfinite(v_curr)):
                raise RecurrenceDivergenceError(
                    f"recurrence diverged at step {j} of {d}; "
                    "the spectral transform does not enclose the spectrum",
                    j,
                )
            for k in range(m):
                blocks[k] += weighted[k, j] * v_curr
    return MomentBlock(s=s, mv_count=d * ell)
