"""Damped Chebyshev filter: damping factors, coefficients, and operator form.

The coefficient oracles below are independent closed forms of

    c_{k,j} = (2/pi) * integral_{beta}^{alpha} p_k(cos(theta)) cos(j*theta) dtheta

frozen before the quadrature implementation was written.
"""

import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from eigenspan import (
    MVCounter,
    MappedOperator,
    RecurrenceDivergenceError,
    exact_transform,
    build_moment_block,
    chebyshev_moments,
    filter_scalar,
    jackson_factors,
    make_filter_spec,
    mapped_interval,
    step_coefficients,
)
from eigenspan import filters
from eigenspan.filters import (
    ANGLE_CHUNK,
    GROWTH_LIMIT,
    PANEL_NODES,
    FilterSpec,
    basis_values,
    cosine_series,
    panel_rule,
)
from helpers import diag_matrix, force_panels, random_spectrum_matrix
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


def brute_force_rows(iv, basis, m, d):
    """c_{k, 0..d}, k < m, summed directly over the flat nodes of the same panel rule."""
    rule = panel_rule(iv.beta, iv.alpha, d + m - 1)
    theta, w = rule.nodes, rule.weights
    g = 2.0 / math.pi * w * basis_values(basis, np.arange(m), np.cos(theta), iv.a_t, iv.b_t)
    return (np.cos(np.outer(np.arange(d + 1), theta)) @ g.T).T


@pytest.mark.parametrize("lo, hi", [(-0.3, 0.1), (0.5, 0.55), (-0.9, 0.9)])
def test_constant_row_matches_closed_form_at_degree_ten_thousand(lo, hi):
    iv = mapped_interval(lo, hi)
    d = 10_000
    j = np.arange(1, d + 1)
    expected = np.concatenate(
        [[2.0 * (iv.alpha - iv.beta)], 2.0 * (np.sin(j * iv.alpha) - np.sin(j * iv.beta)) / j]
    ) / math.pi
    row = step_coefficients(iv, "chebyshev", 0, d)
    assert np.max(np.abs(row - expected)) <= 2e-14


@pytest.mark.parametrize("basis", ["chebyshev", "scaled", "monomial"])
def test_coefficient_rows_match_direct_cosine_sum(basis):
    d, m = 2000, 4
    got = make_filter_spec(INTERVAL, d=d, m=m, basis=basis).coeffs
    expected = brute_force_rows(INTERVAL, basis, m, d)
    for k in range(m):
        assert np.max(np.abs(got[k] - expected[k])) <= 1e-13 * np.max(np.abs(expected[k]))


@pytest.mark.parametrize("iv, d", [(NARROW_INTERVAL, 2), (INTERVAL, 330), (INTERVAL, 400)])
def test_coefficient_rows_cover_a_partial_last_chunk(iv, d):
    # Panels go ANGLE_CHUNK // PANEL_NODES to a chunk; these panel counts
    # (1, 9 and 11) leave a shorter chunk at the end.
    per = ANGLE_CHUNK // PANEL_NODES
    panels = panel_rule(iv.beta, iv.alpha, d + 1).mids.size
    assert panels % per != 0
    got = make_filter_spec(iv, d=d, m=2).coeffs
    expected = brute_force_rows(iv, "chebyshev", 2, d)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_filter_spec_shapes():
    spec = make_filter_spec(INTERVAL, d=30, m=4)
    assert spec.rho.shape == (31,)
    assert spec.coeffs.shape == (4, 31)
    assert np.all(np.isfinite(spec.coeffs))
    with pytest.raises(ValueError):
        make_filter_spec(INTERVAL, d=30, m=0)


@pytest.mark.parametrize("d", [0, 1])
def test_filter_spec_rejects_degree_below_two(d):
    # The damped kernel is nonnegative only from degree 2; the count says the same.
    with pytest.raises(ValueError, match=f"^need degree >= 2, got {d}$"):
        make_filter_spec(INTERVAL, d=d, m=1)


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


def any_degree_spec(d, m):
    """The FilterSpec of make_filter_spec(INTERVAL, d, m), for any d >= 0.

    make_filter_spec refuses d < 2; this keeps the recurrence's head steps
    (d = 0 and 1) under test.
    """
    coeffs = np.array([step_coefficients(INTERVAL, "chebyshev", k, d) for k in range(m)])
    return FilterSpec(d=d, m=m, basis="chebyshev", rho=jackson_factors(d), coeffs=coeffs)


@pytest.mark.parametrize("d", [0, 1, 2, 60])
def test_moment_block_matches_scalar_filter_on_diagonal(rng, d):
    t_diag = rng.uniform(-0.95, 0.95, size=40)
    a = diag_matrix(t_diag)
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = any_degree_spec(d, m=3)
    v = rng.standard_normal((40, 5))
    block = build_moment_block(op, v, spec)
    for k in range(3):
        expected = filter_scalar(spec, k, t_diag)[:, None] * v
        got = block[:, k * 5 : (k + 1) * 5]
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
    assert np.max(np.abs(block - expected)) <= 1e-11


def test_moment_block_is_linear_in_the_polynomial(rng):
    a = diag_matrix(rng.uniform(-0.9, 0.9, size=25))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=40, m=2)
    v = rng.standard_normal((25, 3))
    summed_spec = FilterSpec(
        d=spec.d,
        m=1,
        basis=spec.basis,
        rho=spec.rho,
        coeffs=spec.coeffs.sum(axis=0, keepdims=True),
    )
    combined = build_moment_block(op, v, summed_spec)
    separate = build_moment_block(op, v, spec)
    total = separate[:, :3] + separate[:, 3:]
    assert np.max(np.abs(combined - total)) <= 1e-13 * max(1.0, np.max(np.abs(total)))


@pytest.mark.parametrize("d", [0, 1, 2, 25])
def test_moment_block_mv_accounting(rng, d):
    a = diag_matrix(rng.uniform(-0.5, 0.5, size=30))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = any_degree_spec(d, m=4)
    counter = MVCounter()
    block = build_moment_block(op, rng.standard_normal((30, 6)), spec, counter)
    assert counter.count == d * 6
    assert block.shape == (30, 4 * 6)


def test_recurrence_divergence_is_reported(rng):
    # Spectrum escapes [-1, 1], so Chebyshev iterates overflow.
    a = diag_matrix([5.0, 0.1])
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=400, m=1)
    with pytest.raises(RecurrenceDivergenceError, match="step") as excinfo:
        build_moment_block(op, rng.standard_normal((2, 2)), spec)
    assert 2 <= excinfo.value.step <= 400


def test_finite_growth_outside_the_mapped_range_is_reported(rng):
    # T_60(1.5) ~ 5e24 is finite, so only the growth check can see that the
    # eigenvalue 1.5 lies outside [-1, 1].
    a = diag_matrix([1.5, 0.3, -0.7, 0.9, -0.2])
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=60, m=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RecurrenceDivergenceError, match="step") as excinfo:
            build_moment_block(op, rng.standard_normal((5, 3)), spec)
    assert 2 <= excinfo.value.step <= 60


def _set_batch(monkeypatch, v, rows):
    """Size the iterate ring of build_moment_block to ``rows`` (<= BATCH_MAX) for ``v``."""
    monkeypatch.setattr(filters, "BATCH_BYTES", rows * v.nbytes)


@pytest.mark.parametrize("rows, d", [(3, 59), (3, 60), (7, 60)])
def test_moment_block_batch_edges_match_scalar_filter(rng, monkeypatch, rows, d):
    # (3, 59): the ring of 3 divides the d + 1 iterates; the others end on a
    # partial batch.
    t_diag = rng.uniform(-0.95, 0.95, size=40)
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=d, m=3)
    v = rng.standard_normal((40, 5))
    _set_batch(monkeypatch, v, rows)
    counter = MVCounter()
    block = build_moment_block(op, v, spec, counter)
    assert counter.count == d * 5
    for k in range(3):
        expected = filter_scalar(spec, k, t_diag)[:, None] * v
        assert np.max(np.abs(block[:, k * 5 : (k + 1) * 5] - expected)) <= 1e-13


def test_divergence_in_mid_batch_names_its_own_step(monkeypatch):
    t_diag = np.array([1.5, 0.3, -0.6, 0.9])
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    spec = make_filter_spec(INTERVAL, d=60, m=1)
    v = np.ones((4, 2))
    # ||T_j(D) V||_F from T_j evaluated on the diagonal.
    norms = [
        np.linalg.norm(np.polynomial.chebyshev.chebval(t_diag, [0] * j + [1])[:, None] * v)
        for j in range(61)
    ]
    first = next(j for j, norm in enumerate(norms) if norm > GROWTH_LIMIT * np.linalg.norm(v))
    rows = 4
    assert 0 < first % rows < rows - 1  # strictly inside its batch
    _set_batch(monkeypatch, v, rows)
    with pytest.raises(RecurrenceDivergenceError) as excinfo:
        build_moment_block(op, v, spec)
    assert excinfo.value.step == first


def _first_step_over_the_limit(t_diag, v, steps):
    """First j <= steps with ||T_j(D) V||_F > GROWTH_LIMIT * ||V||_F, T_j evaluated on the diagonal."""
    return next(
        j
        for j in range(steps + 1)
        if np.linalg.norm(np.polynomial.chebyshev.chebval(t_diag, [0] * j + [1])[:, None] * v)
        > GROWTH_LIMIT * np.linalg.norm(v)
    )


def test_moments_divergence_in_mid_fill_names_its_own_step(monkeypatch):
    # The moments keep 2 iterates, so growth is checked at k = 1, 3, 5, ...
    t_diag = np.array([1.8, 0.3, -0.6, 0.9])
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    v = np.ones((4, 2))
    first = _first_step_over_the_limit(t_diag, v, 30)
    assert first > 0 and first % 2 == 0  # strictly inside its fill
    for panels in (1, 2):
        force_panels(monkeypatch, panels)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RecurrenceDivergenceError, match=f"step {first} of 60") as excinfo:
                chebyshev_moments(op, v, 60)
        assert excinfo.value.step == first


@pytest.mark.parametrize("outside", [1.5, 1.8, 5.0])
def test_block_and_moments_name_the_same_divergent_step(monkeypatch, outside):
    t_diag = np.array([outside, 0.3, -0.7, 0.9, -0.2])
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    v = np.random.default_rng(0).integers(0, 2, size=(5, 4)) * 2.0 - 1.0
    _set_batch(monkeypatch, v, 4)
    with pytest.raises(RecurrenceDivergenceError) as block:
        build_moment_block(op, v, make_filter_spec(INTERVAL, d=60, m=2))
    for panels in (1, 2, 3, 4):
        force_panels(monkeypatch, panels)
        with pytest.raises(RecurrenceDivergenceError) as moments:
            chebyshev_moments(op, v, 60)
        assert block.value.step == moments.value.step == _first_step_over_the_limit(t_diag, v, 30)


@pytest.mark.parametrize("outside, d, scales", [
    (1.5, 60, [1e3, 1e-2, 1.0, 1.0]),
    # Near the top of the float range, so the panels' squared norms
    # overflow when they are added up after the join.
    (5.0, 2000, [1.1e152, 1.0, 2.7e134, 2.7e134]),
])
def test_moments_name_the_whole_block_step_on_any_panel_count(monkeypatch, outside, d, scales):
    # Columns 0 and 1 have no weight on the escaping eigenvalue, so their
    # panel runs to the end while the others stop; a limit per panel would
    # name a much earlier step, since column 0 sets most of ||V||_F.
    t_diag = np.array([outside, 0.3, -0.6, 0.9, -0.2])
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    pattern = np.array([[0, 0, 1, -1], [1, -1, 1, 1], [-1, 1, -1, 1], [1, 1, 1, -1], [1, -1, -1, -1]])
    v = pattern * np.array(scales)
    with np.errstate(invalid="ignore", over="ignore"):  # T_j(5) overflows in the oracle
        first = _first_step_over_the_limit(t_diag, v, (d + 1) // 2)
    for panels in (1, 2, 3, 4):
        force_panels(monkeypatch, panels)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RecurrenceDivergenceError, match=f"step {first} of {d}:") as excinfo:
                chebyshev_moments(op, v, d)
        assert excinfo.value.step == first


class _NoReads:
    """Stands in for ``a._csr``; any attribute read fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"read a._csr.{name}")


@pytest.mark.parametrize("ell", [1, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 300, 301])
def test_chebyshev_moments_match_dense_eigendecomposition_oracle(rng, d, ell):
    # A non-trivial transform, so the scale and shift of 2 A_t are exercised;
    # then the path graph's adjacency, which stores no diagonal, with a shift
    # of exactly 0 and with one that gives 2 A_t a diagonal.
    n = 60
    random = random_spectrum_matrix(rng.uniform(0.1, 3.9, size=n), rng)
    path = np.eye(n, k=1) + np.eye(n, k=-1)
    for dense, tr in [(random, exact_transform(0.0, 4.0)),
                      (path, exact_transform(-2.0, 2.0)), (path, exact_transform(-2.0, 3.0))]:
        a = SparseSymmetric.from_dense(dense)
        op = MappedOperator(a, tr)
        csr, a._csr = a._csr, _NoReads()
        doubled = op.doubled()
        a._csr = csr
        assert np.array_equal(doubled.toarray(), 2.0 * (tr.scale * dense + tr.shift * np.eye(n)))
        v = rng.standard_normal((n, ell))
        counter = MVCounter()
        mu = chebyshev_moments(op, v, d, counter)

        w, x = np.linalg.eigh(dense)
        theta = np.arccos(np.clip(tr.scale * w + tr.shift, -1.0, 1.0))
        weights = (x.T @ v) ** 2  # (n, ell): squared components of each column
        expected = np.cos(np.outer(np.arange(d + 1), theta)) @ weights
        assert mu.shape == (d + 1, ell)
        assert np.all(np.abs(mu - expected) <= 1e-12 * np.sum(v**2, axis=0))
        assert counter.count == math.ceil(d / 2) * ell


def _dense_operator(rng, n):
    """A dense-pattern matrix with spectrum in (0.1, 3.9), mapped by [0, 4]."""
    dense = random_spectrum_matrix(rng.uniform(0.1, 3.9, size=n), rng)
    return MappedOperator(SparseSymmetric.from_dense(dense), exact_transform(0.0, 4.0))


def _spy_threads(monkeypatch, fail_on=None):
    """Record the threads that apply the matrix; raise in those whose name ``fail_on`` accepts.

    Thread objects, not idents: a helper that has ended may hand its ident
    to the next one.
    """
    threads, lock = set(), threading.Lock()
    product = filters.matvec

    def spy(a, x, counter=None):
        thread = threading.current_thread()
        with lock:
            threads.add(thread)
        if fail_on is not None and fail_on(thread.name):
            raise ValueError("panel product failed")
        return product(a, x, counter)

    monkeypatch.setattr(filters, "matvec", spy)
    return threads


def _on_caller_thread(f, *args):
    """``f(*args)`` on a thread named "caller" that must end within 60 s; its result or error."""
    out = {}

    def run():
        try:
            out["value"] = f(*args)
        except BaseException as exc:  # handed to the test thread, which raises it
            out["error"] = exc

    caller = threading.Thread(target=run, name="caller", daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "the panels did not end"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.parametrize("panels, ell", [(2, 2), (2, 7), (3, 3), (3, 7), (4, 4), (4, 9)])
def test_moments_on_panels_equal_the_whole_block_bit_for_bit(rng, monkeypatch, panels, ell):
    # ell == panels gives one-column panels; 7 and 9 give panels of unequal width.
    op = _dense_operator(rng, 60)
    v = rng.standard_normal((60, ell))
    d = 41
    force_panels(monkeypatch, 1)
    whole = chebyshev_moments(op, v, d)
    threads = _spy_threads(monkeypatch)
    force_panels(monkeypatch, panels)
    counter = MVCounter()
    split = _on_caller_thread(chebyshev_moments, op, v, d, counter)
    assert len(threads) == panels
    assert np.array_equal(split, whole)
    assert counter.count == math.ceil(d / 2) * ell


def test_panels_under_fast_thread_switches_lose_no_update(rng, monkeypatch):
    # Eight panel threads on any machine, switched every microsecond: a lost
    # update to a panel's moments or step norms, or to the product tally,
    # would show here.
    op = _dense_operator(rng, 50)
    v = rng.standard_normal((50, 16))
    force_panels(monkeypatch, 1)
    whole = chebyshev_moments(op, v, 61)
    force_panels(monkeypatch, 8)
    counter = MVCounter()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = _on_caller_thread(chebyshev_moments, op, v, 61, counter)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(split, whole)
    assert counter.count == 31 * 16


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_panel_reaches_the_caller_and_leaves_no_thread(rng, monkeypatch, failing):
    op = _dense_operator(rng, 40)
    v = rng.standard_normal((40, 6))
    _spy_threads(monkeypatch, fail_on=lambda name: (name == "caller") == (failing == "caller"))
    force_panels(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^panel product failed$"):
        _on_caller_thread(chebyshev_moments, op, v, 40)
    assert threading.active_count() == before


def test_every_panel_failing_raises_the_first_panels_error(rng, monkeypatch):
    # The caller's thread runs panel 0 and fails last, after the helpers.
    op = _dense_operator(rng, 40)
    v = rng.standard_normal((40, 6))

    def spy(a, x, counter=None):
        name = threading.current_thread().name
        if name == "caller":
            time.sleep(0.05)
        raise ValueError(f"product failed on {name}")

    monkeypatch.setattr(filters, "matvec", spy)
    force_panels(monkeypatch, 3)
    for _ in range(3):
        with pytest.raises(ValueError, match="^product failed on caller$"):
            _on_caller_thread(chebyshev_moments, op, v, 40)


def test_a_helper_that_cannot_start_is_raised_once_the_started_one_ends(rng, monkeypatch):
    op = _dense_operator(rng, 40)
    v = rng.standard_normal((40, 6))
    force_panels(monkeypatch, 3)
    start, started = threading.Thread.start, []

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def moments_with_one_helper():
        # Patched only once the caller thread runs, so that only helpers meet it.
        monkeypatch.setattr(threading.Thread, "start", start_once)
        return chebyshev_moments(op, v, 40)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _on_caller_thread(moments_with_one_helper)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("shape, panels", [
    ((10_000, 30), 4), ((10_000, 15), 2), ((10_000, 7), 1), ((1936, 30), 1), ((300, 30), 1),
    ((10**6, 3), 3), ((5, 4), 1),
])
def test_panel_count_is_cpus_ell_and_size_bounded(monkeypatch, shape, panels):
    monkeypatch.setattr(filters, "usable_cpus", lambda: 8)
    bounds = filters._panel_bounds(np.empty(shape))
    assert len(bounds) - 1 == panels
    assert bounds[0] == 0 and bounds[-1] == shape[1]
    assert max(np.diff(bounds)) - min(np.diff(bounds)) <= 1


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= filters.usable_cpus() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert filters.usable_cpus() == (os.cpu_count() or 1)
