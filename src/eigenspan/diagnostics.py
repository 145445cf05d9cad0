"""Numerical verification of the filter's analytical apparatus.

Everything here is for inspection and testing: kernel moments, pointwise
error bounds with their decay orders, the per-eigenvalue filter error bound,
the convergence-factor bound for the filtered subspace iteration, and the
sufficient expansion degree of the worst-case convergence analysis.
Series evaluation, quadrature and the basis polynomials come from
``filters`` (``cosine_series``, ``panel_rule``, ``basis_values``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundUndefinedError, HypothesisViolationError, check_at_least
from .filters import (basis_values, check_degree, cosine_series, jackson_factors, mapped_points,
                      panel_rule, step_coefficients)

PI = math.pi


def cheb_t(m, x):
    """Chebyshev T_m(x), stable for |x| <= 1 (cos form) and x > 1 (cosh form).

    The cosh form avoids the overflow/cancellation of the three-term
    recurrence at large m; x < -1 and NaN are rejected (never needed here).
    """
    check_at_least("x", x, -1)
    if x <= 1.0:
        return math.cos(m * math.acos(x))
    return math.cosh(m * math.acosh(x))


def kernel_value(d, phi):
    """Evaluate the degree-d damping kernel u_d(phi) = 1/2 + sum rho_j cos(j phi).

    Vectorized over phi; d >= 2 required (``check_degree``).
    """
    check_degree(d)
    phi = np.asarray(phi, dtype=np.float64)
    rho = jackson_factors(d)
    rho[0] = 1.0  # exact: the series starts at 1/2
    out = cosine_series(phi, [rho]).reshape(phi.shape)
    return float(out) if out.ndim == 0 else out


def kernel_moments(d, k):
    """Moment (1/pi) * integral_{-pi}^{pi} |phi|^k u_d(phi) dphi, k in {0,1,2,4}.

    Computed as (2/pi) * integral_0^pi phi^k u_d(phi) dphi (the kernel is
    even) by ``panel_rule`` at the kernel's top frequency d.
    """
    check_degree(d)
    if k not in (0, 1, 2, 4):
        raise ValueError(f"moment power must be in {{0, 1, 2, 4}}, got {k}")
    rule = panel_rule(0.0, PI, d)
    phi, w = rule.nodes, rule.weights
    vals = kernel_value(d, phi) * phi**k
    return float(2.0 / PI * (w @ vals))


@dataclass(frozen=True)
class ProbeRow:
    """One probe sample: measured filter error and the governing bound."""

    d: int
    t: float
    p_degree: int
    error: float
    bound_kind: str  # 'outside' | 'inside' | 'endpoint'
    bound: float


def filter_probe(iv, p_degree, points, degrees):
    """Measure |F_d(p)(t) - p(t) h(t)| against the pointwise error bounds.

    ``p`` is the Chebyshev polynomial of the first kind of degree
    ``p_degree`` rescaled to the target interval.  For each requested
    expansion degree d and each point t (mapped units), the row carries the
    measured error and the right-hand side of the applicable bound:
    cubic-rate outside the interval, quadratic-rate inside, linear-rate at
    the endpoints, with the derivative norms of the angular composition
    replaced by the polynomial's own sup norms.

    Parameters
    ----------
    iv : TargetInterval
    p_degree : int
    points : array of floats in [-1, 1], NaN refused (``mapped_points``)
    degrees : array of ints, each >= 2 (``check_degree``)

    Returns
    -------
    list of ProbeRow
    """
    degrees = sorted(int(d) for d in degrees)
    if degrees:
        check_degree(degrees[0])
    points, theta = mapped_points(points)
    d_max = degrees[-1] if degrees else 2
    row = step_coefficients(iv, "chebyshev", p_degree, d_max)
    a, b = iv.a_t, iv.b_t
    # Sup norms on the interval: ||p|| = 1 and ||p^(k)|| = T_p^(k)(1) (2/w)^k,
    # the Markov-extremal values (0 once k exceeds the degree).
    p_sup = 1.0
    dp_sup, ddp_sup = (markov_constants(p_degree + 1, k) * (2.0 / iv.width_t) ** k
                       if k <= p_degree else 0.0 for k in (1, 2))

    # Basis values p(t) and the target p(t) h(t) at each point.
    p_vals = basis_values("chebyshev", [p_degree], points, a, b)[0]
    h_vals = np.where((points > a) & (points < b), 1.0, 0.0)
    h_vals = np.where((points == a) | (points == b), 0.5, h_vals)
    target = p_vals * h_vals
    approx = cosine_series(theta, [jackson_factors(d) * row[: d + 1] for d in degrees])

    out = []
    for d, approx_d in zip(degrees, approx.T):
        for t, th, fd, tgt in zip(points, theta, approx_d, target):
            err = abs(fd - tgt)
            if t == a or t == b:
                kind = "endpoint"
                delta = min(iv.alpha - iv.beta, 2.0 * PI - 2.0 * iv.alpha) if t == a \
                    else min(iv.alpha - iv.beta, 2.0 * iv.beta)
                bound = (
                    3.0 * PI**6 * p_sup / (4.0 * delta**4 * (d + 2) ** 3)
                    + PI**2 * dp_sup / (4.0 * (d + 2))
                )
            elif a < t < b:
                kind = "inside"
                delta = min(abs(th - iv.alpha), abs(th - iv.beta))
                bound = (
                    PI**6 * p_sup / (delta**4 * (d + 2) ** 3)
                    + PI**4 * (dp_sup + ddp_sup) / (8.0 * (d + 2) ** 2)
                )
            else:
                kind = "outside"
                delta = min(abs(th - iv.alpha), abs(th - iv.beta))
                bound = PI**6 * p_sup / (2.0 * delta**4 * (d + 2) ** 3)
            out.append(
                ProbeRow(d=d, t=float(t), p_degree=int(p_degree),
                         error=float(err), bound_kind=kind, bound=float(bound))
            )
    return out


def probe_csv(rows):
    """Render probe rows as CSV with the stable header."""
    lines = ["d,t,p_degree,error,bound_kind,bound"]
    for r in rows:
        lines.append(f"{r.d},{r.t:.17g},{r.p_degree},{r.error:.17g},{r.bound_kind},{r.bound:.17g}")
    return "\n".join(lines) + "\n"


def fit_slope(degrees, errors, decades=2.0):
    """Least-squares slope of log(error) vs log(d + 2) on the final decades.

    Only rows with error > 0 inside the trailing ``decades`` of d are used,
    which skips the pre-asymptotic regime at small d.
    """
    d = np.asarray(degrees, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    cutoff = d.max() / 10.0**decades
    keep = (d >= cutoff) & (e > 0.0)
    if np.count_nonzero(keep) < 2:
        raise ValueError("not enough positive errors in the fitting window")
    coeffs = np.polyfit(np.log10(d[keep] + 2.0), np.log10(e[keep]), 1)
    return float(coeffs[0])


@dataclass(frozen=True)
class SpectrumModel:
    """A known synthetic spectrum with a target eigenvalue for the bounds.

    Attributes
    ----------
    eigenvalues : ndarray
        Ascending, all within [-1, 1] (mapped units); NaN fails both checks.
    interval : TargetInterval
    i : int
        1-based index of the target eigenvalue, counted *downward* from the
        upper end b among the in-interval eigenvalues (index 1 is the
        largest eigenvalue inside the interval).
    ell : int
        Block size of the iteration being modeled.
    m : int
        Number of basis polynomials (moment count).
    """

    eigenvalues: np.ndarray
    interval: "TargetInterval"  # noqa: F821
    i: int
    ell: int
    m: int

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if not np.all(np.diff(ev) >= 0.0):
            raise ValueError("eigenvalues must be ascending")
        if ev.size and not (ev[0] >= -1.0 and ev[-1] <= 1.0):
            raise ValueError("eigenvalues must lie within [-1, 1]")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def inside_descending(self):
        """In-interval eigenvalues ordered from b downward (label order)."""
        ev = self.eigenvalues
        inside = ev[self.interval.contains(ev, mapped=True)]
        return inside[::-1]


def _boundary_angle_gap(sm):
    """Smallest angular gap between an interval end and its nearest eigenvalues.

    Considers up to four candidates: the eigenvalues closest to each end
    from inside and from outside the interval (absent candidates are
    skipped).  Returns 0.0 when an eigenvalue sits exactly on an end.
    """
    ev = sm.eigenvalues
    iv = sm.interval
    # An exact end hit must report a zero gap.  Detect it in the original
    # coordinate: converting both sides through arccos separately can leave
    # a one-ulp phantom gap.
    if np.any(ev == iv.a_t) or np.any(ev == iv.b_t):
        return 0.0
    inside = ev[iv.contains(ev, mapped=True)]
    below = ev[ev < iv.a_t]
    above = ev[ev > iv.b_t]
    gaps = []
    if inside.size:
        gaps.append(abs(iv.alpha - math.acos(float(inside.min()))))  # near a, inside
        gaps.append(abs(iv.beta - math.acos(float(inside.max()))))  # near b, inside
    if below.size:
        gaps.append(abs(iv.alpha - math.acos(float(below.max()))))  # near a, outside
    if above.size:
        gaps.append(abs(iv.beta - math.acos(float(above.min()))))  # near b, outside
    if not gaps:
        raise BoundUndefinedError("spectrum model has no eigenvalues near the interval")
    return min(gaps)


def error_at_eigenvalue_bound(sm, lam, m, d, p_sup_ratio=1.0):
    """Bound on |F_d(p)(lambda) - p(lambda) h(lambda)| at one eigenvalue.

    Three cases by the position of ``lam`` relative to the interval: outside
    (cubic-rate term only), strictly inside (plus a quadratic-rate term
    scaling with (m - 1)^4), or exactly at an endpoint (plus a linear-rate
    term scaling with (m - 1)^2).  The result is proportional to
    ``p_sup_ratio``, the sup norm of the basis polynomial over the interval
    relative to the unit normalization (1.0 for the Chebyshev basis).

    Returns +inf when an eigenvalue of the model sits exactly on an
    interval end, which makes the angular gap zero.
    """
    check_at_least("m", m, 1)
    check_degree(d)
    iv = sm.interval
    delta_min = _boundary_angle_gap(sm)
    if delta_min == 0.0:
        return math.inf
    w = iv.width_t
    main = PI**6 / (delta_min**4 * (d + 2) ** 3)
    if lam == iv.a_t or lam == iv.b_t:
        extra = PI**2 * (m - 1) ** 2 / (2.0 * w * (d + 2))
    elif iv.a_t < lam < iv.b_t:
        extra = PI**4 * (m - 1) ** 4 / (2.0 * w**2 * (d + 2) ** 2)
    else:
        extra = 0.0
    return (main + extra) * p_sup_ratio


@dataclass(frozen=True)
class BoundReport:
    """Constants of the convergence-factor bound for one target eigenvalue.

    ``ratio`` = mu_i / nu_i bounds the per-iteration error-ratio of the
    filtered iteration when ``bound_active`` (nu_i > 0); fields that a
    branch does not use (e.g. sigma_i when no separation polynomial is
    needed) are reported as their neutral values.
    """

    delta_min: float
    epsilon_i: float
    tau_i: float
    kappa_i: float
    sigma_i: float
    gamma_hat: float
    delta_hat: float
    eta_hat: float
    mu_i: float
    nu_i: float
    ratio: float
    bound_active: bool


def _poly_sup_on_interval(roots, lo, hi):
    """Exact sup of |prod (t - r_k)| on [lo, hi] via critical points."""
    poly = np.polynomial.Polynomial.fromroots(roots)
    candidates = [lo, hi]
    crit = poly.deriv().roots()
    for c in crit:
        if abs(c.imag) < 1e-12 and lo < c.real < hi:
            candidates.append(float(c.real))
    return float(max(abs(poly(t)) for t in candidates))


def convergence_factor_bound(sm, d):
    """Evaluate the per-iteration convergence-factor bound mu_i / nu_i.

    Follows the labeling of ``sm``: in-interval eigenvalues are indexed
    descending from b, the target is index ``sm.i``.  The separation
    polynomial for index i vanishes on the distinct eigenvalues above
    lambda_i; its Chebyshev amplification constants (evaluated in cosh form
    for arguments > 1) combine with the filter-error constants into mu_i
    and nu_i.  nu_i <= 0 means the expansion degree is too small for the
    bound to say anything; the report then carries bound_active=False.

    Raises
    ------
    HypothesisViolationError
        Naming the specific violated hypothesis: target index out of range,
        coincidence lambda_{i-1} == lambda_i, too many distinct eigenvalues
        above the target (needs |Xi_i| <= m - 1), or an in-interval
        multiplicity exceeding ell.
    """
    check_degree(d)
    iv = sm.interval
    lam = sm.inside_descending
    n_ev = lam.size
    i = sm.i
    if not 1 <= i <= n_ev:
        raise HypothesisViolationError(
            f"target index i = {i} outside the in-interval range 1..{n_ev}"
        )
    lam_i = float(lam[i - 1])
    if i >= 2 and lam[i - 2] == lam_i:
        raise HypothesisViolationError(
            f"distinctness hypothesis violated: lambda_{i - 1} == lambda_{i} == {lam_i}"
        )
    _, counts = np.unique(lam, return_counts=True)
    if np.any(counts > sm.ell):
        worst = int(counts.max())
        raise HypothesisViolationError(
            f"multiplicity hypothesis violated: an in-interval eigenvalue has "
            f"multiplicity {worst} > ell = {sm.ell}"
        )

    w = iv.width_t
    delta_min = _boundary_angle_gap(sm)
    if delta_min == 0.0:
        raise BoundUndefinedError(
            "an eigenvalue sits exactly on an interval end; the bound is infinite"
        )
    endpoint = lam_i == iv.a_t or lam_i == iv.b_t
    h_i = 0.5 if endpoint else 1.0

    if sm.m == 1:
        # Single-basis branch: constant filter polynomial, no separation
        # machinery; the bound reduces to the plain filter-error constant.
        gamma_hat = PI**6 / (delta_min**4 * (d + 2) ** 3)
        mu = gamma_hat
        nu = h_i - gamma_hat
        return BoundReport(
            delta_min=delta_min, epsilon_i=0.0, tau_i=1.0, kappa_i=1.0,
            sigma_i=1.0, gamma_hat=gamma_hat, delta_hat=0.0, eta_hat=0.0,
            mu_i=mu, nu_i=nu, ratio=mu / nu if nu > 0.0 else math.inf,
            bound_active=nu > 0.0,
        )

    xi = np.unique(lam[: i - 1])  # distinct eigenvalues labeled above the target
    if xi.size > sm.m - 1:
        raise HypothesisViolationError(
            f"basis-count hypothesis violated: {xi.size} distinct eigenvalues "
            f"above the target need m - 1 >= {xi.size}, got m = {sm.m}"
        )
    if xi.size:
        kappa = _poly_sup_on_interval(xi, iv.a_t, iv.b_t) / abs(
            float(np.prod(lam_i - xi))
        )
    else:
        kappa = 1.0

    deg_sep = sm.m - 1 - xi.size  # degree left for the separation factor
    if i <= n_ev - sm.ell:
        lam_shift = float(lam[i + sm.ell - 1])
        if lam_shift - iv.a_t <= 0.0:
            raise BoundUndefinedError(
                "lambda_{i+ell} coincides with the lower end; separation map undefined"
            )
        sigma = 1.0 + 2.0 * (lam_i - lam_shift) / (lam_shift - iv.a_t)
        epsilon = kappa / cheb_t(deg_sep, sigma)
        tau = epsilon * cheb_t(
            deg_sep, 1.0 + 2.0 * (iv.b_t - lam_shift) / (lam_shift - iv.a_t)
        )
    else:
        sigma = 1.0
        epsilon = 0.0
        tau = kappa

    gamma_hat = PI**6 * tau / (delta_min**4 * (d + 2) ** 3)
    linear = PI**2 * (sm.m - 1) ** 2 / (w * (d + 2))
    delta_hat = linear**2 * tau / 2.0
    eta_hat = linear * tau / 2.0
    mu = gamma_hat + max(epsilon + delta_hat, 0.5 * epsilon + eta_hat)
    nu = (0.5 - gamma_hat - eta_hat) if endpoint else (1.0 - gamma_hat - delta_hat)
    return BoundReport(
        delta_min=delta_min, epsilon_i=epsilon, tau_i=tau, kappa_i=kappa,
        sigma_i=sigma, gamma_hat=gamma_hat, delta_hat=delta_hat,
        eta_hat=eta_hat, mu_i=mu, nu_i=nu,
        ratio=mu / nu if nu > 0.0 else math.inf, bound_active=nu > 0.0,
    )


def theoretical_degree_bound(iv, m, n_ev, ell, zeta=1.0):
    """Sufficient expansion degree from the worst-case convergence analysis.

    Assumes n_ev eigenvalues spread uniformly over the mapped interval, so
    the boundary gaps shrink to width / n_ev.  Returned as a real number:
    any integer degree above it satisfies the sufficient condition.  This
    is a diagnostic; it is far too pessimistic to drive the solver (use
    ``estimators.select_degree`` for that).

    For a single basis polynomial (m == 1) the condition is

        d + 2 > pi^2 / delta^(4/3) * ((1 + zeta) / zeta)^(1/3),

    with delta = width / n_ev and zeta the contraction-safety ratio.  For
    m >= 2 the max-form rule with the standard safety ratio baked in
    (zeta = 1, damping loss bounded by 1/3) is evaluated:

        d + 2 > max{ pi^2 n_ev^(4/3) / w^(4/3) * max(12, 3 tau)^(1/3),
                     pi^2 (m - 1)^2 / w * max(12, 12 tau / 5) },

    where tau is the Chebyshev growth ratio of the uniform model.

    Raises
    ------
    BoundUndefinedError
        If m >= 2 and n_ev - 1 - ell <= 0: the uniform model then has no
        gap separating wanted from unwanted eigenvalues.
    """
    for name, value in (("m", m), ("n_ev", n_ev), ("ell", ell)):
        check_at_least(name, value, 1)
    if not zeta > 0.0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    w = iv.width_t

    if m == 1:
        delta = w / n_ev
        rhs = PI**2 / delta ** (4.0 / 3.0) * ((1.0 + zeta) / zeta) ** (1.0 / 3.0)
        return rhs - 2.0

    if n_ev - 1 - ell <= 0:
        raise BoundUndefinedError(
            f"uniform model needs n_ev - 1 - ell > 0, got n_ev = {n_ev}, ell = {ell}"
        )
    deg = m - 1
    tau = cheb_t(deg, (n_ev + 1 + ell) / (n_ev - 1 - ell)) / cheb_t(
        deg, (n_ev - 1 + ell) / (n_ev - 1 - ell)
    )
    cubic = (
        PI**2 * n_ev ** (4.0 / 3.0) / w ** (4.0 / 3.0)
        * max(12.0, 3.0 * tau) ** (1.0 / 3.0)
    )
    linear = PI**2 * deg**2 / w * max(12.0, 12.0 * tau / 5.0)
    return max(cubic, linear) - 2.0


def markov_constants(m, k):
    """k-th derivative of the degree-(m-1) Chebyshev polynomial at 1.

    T_{m-1}^{(k)}(1) = prod_{j=0}^{k-1} ((m-1)^2 - j^2) / (1 * 3 * ... * (2k-1)),
    the constant in the Markov-type derivative bound
    ||p^(k)|| <= (2/w)^k * T_{m-1}^{(k)}(1) * ||p|| for p of degree m - 1.
    """
    if not 1 <= k <= m - 1:
        raise ValueError(f"need 1 <= k <= m - 1, got k = {k}, m = {m}")
    num = 1.0
    den = 1.0
    for j in range(k):
        num *= (m - 1) ** 2 - j**2
        den *= 2 * j + 1
    return num / den
