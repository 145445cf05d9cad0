"""Damped Chebyshev filter: damping factors, coefficients, and operator form.

The coefficient oracles below are independent closed forms of

    c_{k,j} = (2/pi) * integral_{beta}^{alpha} p_k(cos(theta)) cos(j*theta) dtheta

frozen before the quadrature implementation was written.
"""

import math

import numpy as np
import pytest

from eigenspan import (
    MVCounter,
    MappedOperator,
    RecurrenceDivergenceError,
    exact_transform,
    build_moment_block,
    filter_scalar,
    jackson_factors,
    make_filter_spec,
    mapped_interval,
    step_coefficients,
)
from eigenspan.filters import ANGLE_CHUNK, FilterSpec, cosine_series
from helpers import diag_matrix, random_spectrum_matrix
from eigenspan import SparseSymmetric

INTERVAL = mapped_interval(-0.2, 0.4)
NARROW_INTERVAL = mapped_interval(0.5, 0.52)
IDENTITY_TRANSFORM = exact_transform(-1.0, 1.0)


def constant_coefficient(j, alpha, beta):
    """Closed form for p = 1: (2/pi) * int_beta^alpha cos(j theta) dtheta."""
    if j == 0:
        return 2.0 * (alpha - beta) / math.pi
    return 2.0 * (math.sin(j * alpha) - math.sin(j * beta)) / (j * math.pi)


def linear_coefficient(j, alpha, beta):
    """Closed form for p(t) = t via product-to-sum of cos(theta) cos(j theta)."""
    if j == 0:
        return 2.0 * (math.sin(alpha) - math.sin(beta)) / math.pi
    if j == 1:
        return ((alpha - beta) + (math.sin(2 * alpha) - math.sin(2 * beta)) / 2.0) / math.pi
    lo = (math.sin((j - 1) * alpha) - math.sin((j - 1) * beta)) / (j - 1)
    hi = (math.sin((j + 1) * alpha) - math.sin((j + 1) * beta)) / (j + 1)
    return (lo + hi) / math.pi


def trapezoid_coefficient(iv, basis, k, j, points=1_000_001):
    """Brute-force composite-trapezoid value of the same theta-integral."""
    theta = np.linspace(iv.beta, iv.alpha, points)
    u = (2.0 * np.cos(theta) - iv.a_t - iv.b_t) / (iv.b_t - iv.a_t)
    if basis == "monomial":
        p = np.cos(theta) ** k
    elif basis == "scaled":
        p = u**k
    else:
        p = np.cos(k * np.arccos(np.clip(u, -1.0, 1.0)))
    f = p * np.cos(j * theta)
    h = (iv.alpha - iv.beta) / (points - 1)
    return 2.0 / math.pi * h * (f.sum() - 0.5 * (f[0] + f[-1]))


def test_damping_factor_zero_is_one():
    for d in (1, 2, 3, 10, 100, 1000):
        rho = jackson_factors(d)
        assert abs(rho[0] - 1.0) <= 1e-15


def test_damping_factors_degree_two_closed_form():
    rho = jackson_factors(2)
    assert rho[1] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
    assert rho[2] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 5, 17, 64, 500])
def test_damping_factors_positive_and_bounded(d):
    rho = jackson_factors(d)
    assert rho.shape == (d + 1,)
    assert np.all(rho > 0)
    assert np.all(rho <= 1.0 + 1e-15)


def test_damping_factors_reject_negative_degree():
    with pytest.raises(ValueError):
        jackson_factors(-1)


@pytest.mark.parametrize("j", [0, 1, 2, 3, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("basis", ["chebyshev", "scaled", "monomial"])
def test_constant_coefficients_match_closed_form(basis, j):
    d = max(j, 4)
    row = step_coefficients(INTERVAL, basis, 0, d)
    expected = constant_coefficient(j, INTERVAL.alpha, INTERVAL.beta)
    assert row[j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("j", [0, 1, 2, 5, 50])
def test_monomial_linear_coefficients_match_closed_form(j):
    row = step_coefficients(INTERVAL, "monomial", 1, max(j, 4))
    expected = linear_coefficient(j, INTERVAL.alpha, INTERVAL.beta)
    assert row[j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("j", [0, 1, 2, 7])
def test_interval_chebyshev_coefficients_match_trapezoid_oracle(j):
    row = step_coefficients(INTERVAL, "chebyshev", 1, 8)
    expected = trapezoid_coefficient(INTERVAL, "chebyshev", 1, j)
    assert row[j] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("j", [0, 1, 57, 400])
def test_scaled_top_row_matches_trapezoid_oracle_on_narrow_interval(j):
    # All m = 16 rows come from one quadrature sized for the top frequency
    # d + 15; row 15 carries the steepest basis polynomial u^15.
    spec = make_filter_spec(NARROW_INTERVAL, d=400, m=16, basis="scaled")
    expected = trapezoid_coefficient(NARROW_INTERVAL, "scaled", 15, j)
    assert spec.coeffs[15, j] == pytest.approx(expected, abs=1e-12)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        step_coefficients(INTERVAL, "legendre", 0, 4)
    with pytest.raises(ValueError):
        step_coefficients(INTERVAL, "chebyshev", -1, 4)
    with pytest.raises(ValueError):
        step_coefficients(INTERVAL, "chebyshev", 0, -2)


def test_filter_spec_shapes():
    spec = make_filter_spec(INTERVAL, d=30, m=4)
    assert spec.rho.shape == (31,)
    assert spec.coeffs.shape == (4, 31)
    assert np.all(np.isfinite(spec.coeffs))
    with pytest.raises(ValueError):
        make_filter_spec(INTERVAL, d=30, m=0)


def test_zeroth_filter_range_on_grid():
    grid = np.linspace(-1.0, 1.0, 10_000)
    for d in (10, 100, 1000):
        spec = make_filter_spec(INTERVAL, d=d, m=1)
        values = filter_scalar(spec, 0, grid)
        assert values.min() >= 0.0
        assert values.max() <= 1.0 + 1e-12


def test_filter_scalar_rejects_points_outside_unit_interval():
    spec = make_filter_spec(INTERVAL, d=10, m=1)
    with pytest.raises(ValueError):
        filter_scalar(spec, 0, 1.001)


def test_filter_scalar_matches_chebyshev_series_evaluation(rng):
    # Same series summed by an independent Clenshaw evaluation.
    spec = make_filter_spec(INTERVAL, d=200, m=2)
    t = rng.uniform(-1.0, 1.0, size=64)
    for k in range(2):
        series = np.concatenate(
            [[0.5 * spec.coeffs[k, 0]], (spec.rho * spec.coeffs[k])[1:]]
        )
        expected = np.polynomial.chebyshev.chebval(t, series)
        got = filter_scalar(spec, k, t)
        assert np.max(np.abs(got - expected)) <= 1e-13


def test_cosine_series_matches_direct_sum_per_row(rng):
    # Rows of three lengths share one table per chunk; each must equal the
    # direct per-row sum exactly.  Enough angles for several chunks.
    theta = rng.uniform(0.0, math.pi, size=2 * ANGLE_CHUNK + 37)
    rows = [rng.standard_normal(size) for size in (1, 40, 301)]
    got = cosine_series(theta, rows)
    assert got.shape == (theta.size, len(rows))
    for col, w in enumerate(rows):
        j = np.arange(1, w.size, dtype=np.float64)
        expected = 0.5 * w[0] + np.cos(np.outer(theta, j)) @ w[1:]
        assert np.array_equal(got[:, col], expected)


def test_outside_point_is_suppressed_within_cubic_bound():
    d = 1000
    spec = make_filter_spec(INTERVAL, d=d, m=1)
    t = -0.6
    theta = math.acos(t)
    delta = min(abs(theta - INTERVAL.alpha), abs(theta - INTERVAL.beta))
    bound = math.pi**6 / (2.0 * delta**4 * (d + 2) ** 3)
    assert abs(filter_scalar(spec, 0, t)) <= bound


def test_midpoint_approaches_one():
    spec = make_filter_spec(INTERVAL, d=10_000, m=1)
    assert abs(filter_scalar(spec, 0, 0.1) - 1.0) <= 1e-2


def test_midpoint_error_decays_with_degree():
    degrees = [2**p for p in range(4, 14)]
    errors = [
        abs(filter_scalar(make_filter_spec(INTERVAL, d=d, m=1), 0, 0.1) - 1.0)
        for d in degrees
    ]
    increases = sum(1 for lo, hi in zip(errors, errors[1:]) if hi > lo)
    assert increases <= 1  # allow ~10% non-monotone transitions
    assert errors[-1] < errors[0] / 10.0


def test_moment_block_matches_scalar_filter_on_diagonal(rng):
    t_diag = rng.uniform(-0.95, 0.95, size=40)
    a = diag_matrix(t_diag)
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=60, m=3)
    v = rng.standard_normal((40, 5))
    block = build_moment_block(op, v, spec)
    for k in range(3):
        expected = filter_scalar(spec, k, t_diag)[:, None] * v
        got = block.s[:, k * 5 : (k + 1) * 5]
        assert np.max(np.abs(got - expected)) <= 1e-13


def test_moment_block_matches_dense_eigendecomposition_oracle(rng):
    n = 120
    eigenvalues = rng.uniform(-0.9, 0.9, size=n)
    dense = random_spectrum_matrix(eigenvalues, rng)
    a = SparseSymmetric.from_dense(dense)
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=80, m=1)
    v = rng.standard_normal((n, 4))

    w, x = np.linalg.eigh(dense)
    expected = (x * filter_scalar(spec, 0, w)) @ (x.T @ v)
    block = build_moment_block(op, v, spec)
    assert np.max(np.abs(block.s - expected)) <= 1e-11


def test_moment_block_is_linear_in_the_polynomial(rng):
    a = diag_matrix(rng.uniform(-0.9, 0.9, size=25))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=40, m=2)
    v = rng.standard_normal((25, 3))
    summed_spec = FilterSpec(
        interval=spec.interval,
        d=spec.d,
        m=1,
        basis=spec.basis,
        rho=spec.rho,
        coeffs=spec.coeffs.sum(axis=0, keepdims=True),
    )
    combined = build_moment_block(op, v, summed_spec).s
    separate = build_moment_block(op, v, spec).s
    total = separate[:, :3] + separate[:, 3:]
    assert np.max(np.abs(combined - total)) <= 1e-13 * max(1.0, np.max(np.abs(total)))


def test_moment_block_mv_accounting(rng):
    a = diag_matrix(rng.uniform(-0.5, 0.5, size=30))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=25, m=4)
    counter = MVCounter()
    block = build_moment_block(op, rng.standard_normal((30, 6)), spec, counter)
    assert block.mv_count == 25 * 6
    assert counter.count == 25 * 6
    assert block.s.shape == (30, 4 * 6)


def test_recurrence_divergence_is_reported(rng):
    # Spectrum escapes [-1, 1], so Chebyshev iterates overflow.
    a = diag_matrix([5.0, 0.1])
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=400, m=1)
    with pytest.raises(RecurrenceDivergenceError, match="step") as excinfo:
        build_moment_block(op, rng.standard_normal((2, 2)), spec)
    assert 2 <= excinfo.value.step <= 400
