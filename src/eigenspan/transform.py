"""Spectral range estimation and the affine map onto [-1, 1].

The solver works on the transformed operator l(A), where the one affine
map l(t) = scale * t + shift, with scale = 2 / (lmax - lmin) and
shift = -(lmax + lmin) / (lmax - lmin), sends the whole (estimated) spectrum
onto [-1, 1] so Chebyshev recurrences are stable.  ``SpectralTransform``
holds the map, and ``make_interval`` is the one builder of the target
interval in mapped units.
"""

from dataclasses import dataclass

import numpy as np

from .dense import dense_sym_eig
from .errors import IntervalError, check_at_least
from .sparse import SparseSymmetric, matvec


@dataclass(frozen=True)
class SpectralTransform:
    """Affine spectrum map l(t) = scale * t + shift onto [-1, 1].

    Attributes
    ----------
    lambda_min_est, lambda_max_est : float
        Estimated (padded) extreme eigenvalues, lambda_min_est < lambda_max_est.
    """

    lambda_min_est: float
    lambda_max_est: float

    def map(self, t):
        """Original units -> mapped units."""
        return self.scale * np.asarray(t) + self.shift

    def unmap(self, t):
        """Mapped units -> original units."""
        return (np.asarray(t) - self.shift) / self.scale

    @property
    def scale(self):
        """Slope of the map: l(t) = scale * t + shift."""
        return 2.0 / (self.lambda_max_est - self.lambda_min_est)

    @property
    def shift(self):
        """Intercept of the map: l(t) = scale * t + shift."""
        lo, hi = self.lambda_min_est, self.lambda_max_est
        return -(hi + lo) / (hi - lo)

    @property
    def operator_norm(self):
        """max(|lambda_min_est|, |lambda_max_est|), a 2-norm estimate of A."""
        return max(abs(self.lambda_min_est), abs(self.lambda_max_est))


@dataclass(frozen=True)
class TargetInterval:
    """Search interval in original and mapped units with its end angles.

    alpha = arccos(a_t) and beta = arccos(b_t) are the angles of the mapped
    endpoints; beta < alpha because arccos is decreasing.
    """

    a: float
    b: float
    a_t: float
    b_t: float
    alpha: float
    beta: float

    @property
    def width_t(self):
        """Mapped width b_t - a_t."""
        return self.b_t - self.a_t

    def contains(self, values, mapped=False):
        """Closed-interval membership test (elementwise)."""
        v = np.asarray(values)
        if mapped:
            return (v >= self.a_t) & (v <= self.b_t)
        return (v >= self.a) & (v <= self.b)


@dataclass(frozen=True)
class MappedOperator:
    """l(A) = scale * A + shift * I held unapplied: the matrix and its transform.

    ``build_moment_block`` applies it through products with ``a``;
    ``chebyshev_moments`` multiplies by its prescaled twin ``doubled()``.
    """

    a: SparseSymmetric
    transform: SpectralTransform

    def doubled(self):
        """2 l(A) = 2 scale A + 2 shift I as a new SparseSymmetric.

        Built from ``a``'s CSR arrays; it holds one more CSR copy of A while
        it lives.  Each stored entry becomes 2 scale a_ij, plus 2 shift on
        the diagonal; a diagonal entry A lacks goes into its sorted place in
        its row.  Doubling is exact, so each entry is twice the rounded entry
        of l(A).  Entries that come out exactly zero are not stored, as in
        scipy's sparse sum.
        """
        a, tr = self.a, self.transform
        n, row_ptr, cols = a.n, a.row_ptr, a.col_idx
        values = 2.0 * tr.scale * a.values
        shift = 2.0 * tr.shift
        rows = np.repeat(np.arange(n), np.diff(row_ptr))
        # Where each row's diagonal entry is, or goes: after the row's
        # entries left of the diagonal.
        at = row_ptr[:-1] + np.bincount(rows[cols < rows], minlength=n)
        present = np.zeros(n, dtype=bool)
        inside = at < row_ptr[1:]
        present[inside] = cols[at[inside]] == np.flatnonzero(inside)
        values[at[present]] += shift
        missing = np.flatnonzero(~present)
        values = np.insert(values, at[missing], shift)
        cols = np.insert(cols, at[missing], missing)
        row_ptr = row_ptr + np.concatenate([[0], np.cumsum(~present)])
        kept = values != 0.0
        row_ptr = np.concatenate([[0], np.cumsum(kept)])[row_ptr]
        return SparseSymmetric(n, row_ptr, cols[kept], values[kept])


def estimate_spectral_range(a, steps=50, seed=0):
    """Estimate [lambda_min, lambda_max] with residual-padded Lanczos bounds.

    Runs Lanczos with full reorthogonalization for ``steps`` steps from a
    unit-norm Gaussian start vector drawn with ``seed``.  The returned
    transform uses lambda_min_est = theta_1 - r_1 and
    lambda_max_est = theta_s + r_s, where theta are the Ritz values and r
    the Ritz residual norms |beta_last * u_last| (0 if an invariant subspace
    stops the recurrence early), so the true extreme eigenvalues are
    enclosed with high probability.  A one-point spectrum (estimates
    collapse) is widened symmetrically so the map stays well defined.

    Raises
    ------
    ValueError
        If ``steps`` is above n, or below 2 (below 1 when n = 1).
    """
    n = a.n
    steps = int(steps)
    check_at_least("steps", steps, min(n, 2))  # on n = 1 one step is exact
    if steps > n:
        raise ValueError(f"steps must be <= n = {n}, got {steps}")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)

    basis = np.zeros((steps, n))  # one basis vector per row, each contiguous
    alphas = np.zeros(steps)
    betas = np.zeros(steps)  # betas[j] couples steps j and j+1
    for j in range(steps):
        basis[j] = q
        w = matvec(a, q)
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        alphas[j] = q @ w
        w -= alphas[j] * q
        # Full reorthogonalization against every kept basis vector.
        w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        k = j + 1
        beta = np.linalg.norm(w)
        scale = max(1.0, np.max(np.abs(alphas[: j + 1])))
        if beta <= 1e-14 * scale:
            # Invariant subspace: the captured Ritz values are exact.
            beta_last = 0.0
            break
        beta_last = beta
        if j + 1 < steps:
            betas[j] = beta
            q = w / beta

    off = betas[: k - 1]
    theta, u = dense_sym_eig(np.diag(alphas[:k]) + np.diag(off, 1) + np.diag(off, -1))
    resid = np.abs(beta_last * u[-1, :])
    # Residuals of converged Ritz pairs underflow below the rounding error
    # of the Ritz values themselves; keep a roundoff-scale safety margin so
    # the padded range still encloses the true extremes.
    safety = len(theta) * np.finfo(np.float64).eps * max(1.0, abs(theta[0]), abs(theta[-1]))
    lo = float(theta[0] - max(resid[0], safety))
    hi = float(theta[-1] + max(resid[-1], safety))
    if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
        # One-point spectrum: widen symmetrically so the map is well defined.
        pad = max(1e-8, 1e-8 * abs(hi))
        lo, hi = lo - pad, hi + pad
    return SpectralTransform(lo, hi)


def exact_transform(lambda_min, lambda_max):
    """Transform from supplied exact (or reference) extremes, refused unless finite and ordered."""
    if not -np.inf < lambda_min < lambda_max < np.inf:
        raise ValueError(f"need finite lambda_min < lambda_max, got [{lambda_min}, {lambda_max}]")
    return SpectralTransform(float(lambda_min), float(lambda_max))


def make_interval(tr, a, b):
    """Build the TargetInterval for [a, b] (original units) under ``tr``.

    This is the only constructor of TargetInterval; the mapped endpoints are
    clipped to [-1, 1] so roundoff at the range ends cannot leave arccos.

    Raises
    ------
    IntervalError
        If a or b is NaN, if a >= b, if [a, b] is not inside [lambda_min_est, lambda_max_est],
        or if the mapped endpoints collapse (a_t >= b_t).
    """
    lo, hi = tr.lambda_min_est, tr.lambda_max_est
    if a != a or b != b:
        raise IntervalError(f"interval ends must be numbers, got [{a}, {b}]")
    if not a < b:
        raise IntervalError(f"empty interval: a = {a} must be < b = {b}")
    if a < lo or b > hi:
        raise IntervalError(f"interval [{a}, {b}] is not inside the spectral range [{lo}, {hi}]")
    a_t, b_t = (float(x) for x in np.clip(tr.map([a, b]), -1.0, 1.0))
    if not a_t < b_t:
        raise IntervalError(
            f"interval [{a}, {b}] collapses to [{a_t}, {b_t}] on the spectral range [{lo}, {hi}]"
        )
    # arccos is decreasing: alpha (angle of a_t) is the larger angle.
    return TargetInterval(
        a=float(a),
        b=float(b),
        a_t=a_t,
        b_t=b_t,
        alpha=float(np.arccos(a_t)),
        beta=float(np.arccos(b_t)),
    )


def mapped_interval(a_t, b_t):
    """TargetInterval for endpoints already given in mapped units.

    Convenience for diagnostics that work directly on [-1, 1]: the interval
    under the identity transform, where original and mapped units coincide.
    """
    return make_interval(exact_transform(-1.0, 1.0), a_t, b_t)
