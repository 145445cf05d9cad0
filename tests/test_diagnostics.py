"""Tests for filter-quality probes and the convergence-factor bound report."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as npcheb

from eigenspan import (
    BoundUndefinedError,
    HypothesisViolationError,
    MappedOperator,
    SparseSymmetric,
    SpectrumModel,
    build_moment_block,
    cheb_t,
    convergence_factor_bound,
    error_at_eigenvalue_bound,
    exact_transform,
    filter_probe,
    filter_scalar,
    fit_slope,
    jackson_factors,
    kernel_moments,
    kernel_value,
    make_filter_spec,
    make_interval,
    mapped_interval,
    markov_constants,
    probe_csv,
)

PI = np.pi


# ---------------------------------------------------------------------------
# Chebyshev evaluation helper


def test_chebyshev_small_degrees_exact():
    assert cheb_t(0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert cheb_t(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert cheb_t(2, 1.5) == pytest.approx(3.5, rel=1e-14)
    assert cheb_t(5, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert cheb_t(5, -1.0) == pytest.approx(-1.0, abs=1e-14)


def test_chebyshev_matches_coefficient_evaluation():
    for m in (3, 7, 12):
        for x in (-0.99, -0.2, 0.0, 0.77, 1.0):
            ref = npcheb.chebval(x, [0.0] * m + [1.0])
            assert cheb_t(m, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_chebyshev_growth_branch_consistent_at_one():
    # cos- and cosh-based branches must agree where they meet.
    for m in (2, 9, 31):
        lo = cheb_t(m, 1.0 - 1e-13)
        hi = cheb_t(m, 1.0 + 1e-13)
        assert lo == pytest.approx(hi, rel=1e-9, abs=1e-9)


def test_chebyshev_large_degree_outside_is_finite_and_huge():
    val = cheb_t(500, 1.5)
    assert math.isfinite(val)
    assert val > 1e100


def test_chebyshev_rejects_x_below_minus_one():
    with pytest.raises(ValueError):
        cheb_t(3, -1.0000001)


# ---------------------------------------------------------------------------
# Smoothed step kernel


def test_kernel_value_degree_two_closed_form():
    # At phi = pi the cosine series collapses to 1/2 - rho_1 + rho_2.
    assert kernel_value(2, PI) == pytest.approx(0.5 - np.sqrt(2) / 2 + 0.25, abs=1e-13)


def test_kernel_value_at_zero_is_half_plus_factor_sum():
    for d in (2, 7, 40):
        expected = 0.5 + np.sum(jackson_factors(d)[1:])
        assert kernel_value(d, 0.0) == pytest.approx(expected, rel=1e-13)


def test_kernel_value_nonnegative_on_dense_grid():
    phi = np.linspace(-PI, PI, 100_001)
    for d in (2, 10, 100):
        vals = kernel_value(d, phi)
        assert vals.shape == phi.shape
        assert vals.min() >= -1e-12


def test_kernel_value_rejects_degree_below_two():
    with pytest.raises(ValueError):
        kernel_value(1, 0.0)


def test_kernel_moments_zeroth_is_one():
    for d in (2, 5, 10, 50, 200):
        assert kernel_moments(d, 0) == pytest.approx(1.0, abs=1e-10)


def test_kernel_moments_match_closed_forms():
    # Integrating |phi|^k against the cosine series term by term gives
    # closed forms; the quadrature must reproduce them to near machine
    # precision.
    for d in (2, 5, 10, 50, 200, 1000):
        rho = jackson_factors(d)[1:]
        j = np.arange(1, d + 1, dtype=np.float64)
        sgn = (-1.0) ** j
        m1 = PI / 2 + (1 / PI) * np.sum(rho * 2 * (sgn - 1) / j**2)
        m2 = PI**2 / 3 + 4 * np.sum(rho * sgn / j**2)
        m4 = PI**4 / 5 + np.sum(rho * sgn * (8 * PI**2 / j**2 - 48 / j**4))
        assert kernel_moments(d, 1) == pytest.approx(m1, abs=2e-13)
        assert kernel_moments(d, 2) == pytest.approx(m2, abs=2e-13)
        assert kernel_moments(d, 4) == pytest.approx(m4, abs=2e-13)


def test_kernel_moments_obey_decay_bounds_without_slack():
    for d in (2, 5, 10, 50, 200):
        b1 = PI**2 / (2 * (d + 2))
        b2 = PI**4 / (4 * (d + 2) ** 2)
        b4 = (0.25 + (d + 1) * PI**2 / (16 * (d + 2) ** 2)) * PI**6 / (d + 2) ** 3
        assert kernel_moments(d, 1) <= b1
        assert kernel_moments(d, 2) <= b2
        assert kernel_moments(d, 4) <= b4
        # the detailed fourth-moment bound is itself below the simple one
        assert b4 <= PI**6 / (2 * (d + 2) ** 3)


def test_kernel_fourth_moment_below_asymptotic_envelope():
    for d in (50, 200, 1000):
        assert kernel_moments(d, 4) <= PI**6 / (4 * (d + 2) ** 3)


def test_kernel_moments_reject_unsupported_order():
    with pytest.raises(ValueError):
        kernel_moments(10, 3)
    with pytest.raises(ValueError):
        kernel_moments(1, 2)


# ---------------------------------------------------------------------------
# Pointwise filter probe


@pytest.fixture(scope="module")
def probe_interval():
    return mapped_interval(-0.2, 0.4)


@pytest.fixture(scope="module")
def probe_degrees():
    return np.unique(np.logspace(2, 4, 25).astype(int))


def test_probe_decay_rates(probe_interval, probe_degrees):
    # Outside points (or constant polynomials) decay cubically; inside
    # points decay quadratically through the derivative term; endpoint
    # evaluation is only first order.
    cases = ((0, -0.6, -3.0), (1, 0.1, -2.0), (1, -0.2, -1.0))
    for p_degree, t, want in cases:
        rows = filter_probe(probe_interval, p_degree, [t], probe_degrees)
        slope = fit_slope([r.d for r in rows], [r.error for r in rows])
        assert slope == pytest.approx(want, abs=0.3)


def test_probe_errors_never_exceed_bounds(probe_interval, probe_degrees):
    for p_degree in (0, 1, 2):
        rows = filter_probe(probe_interval, p_degree, [-0.6, 0.1, -0.2], probe_degrees)
        for r in rows:
            assert r.error <= r.bound + 1e-12


def test_probe_classifies_points(probe_interval):
    rows = filter_probe(probe_interval, 1, [-0.6, 0.7, 0.1, -0.2, 0.4], [100])
    kinds = {r.t: r.bound_kind for r in rows}
    assert kinds[-0.6] == "outside"
    assert kinds[0.7] == "outside"
    assert kinds[0.1] == "inside"
    assert kinds[-0.2] == "endpoint"
    assert kinds[0.4] == "endpoint"


def test_probe_rejects_points_outside_the_mapped_range(probe_interval):
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        filter_probe(probe_interval, 1, [0.1, 1.5], [100])
    with pytest.raises(ValueError, match=r"^points must lie in \[-1, 1\], got nan$"):
        filter_probe(probe_interval, 1, [np.nan, 0.1], [100])
    rows = filter_probe(probe_interval, 1, [1.0 + 1e-13], [100])
    assert rows[0].bound_kind == "outside"


def test_probe_csv_header_and_roundtrip(probe_interval):
    rows = filter_probe(probe_interval, 2, [-0.6, -0.2], [100, 200])
    text = probe_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "d,t,p_degree,error,bound_kind,bound"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert int(first[0]) == rows[0].d
    assert float(first[1]) == rows[0].t
    assert int(first[2]) == 2
    assert float(first[3]) == rows[0].error
    assert first[4] == rows[0].bound_kind
    assert float(first[5]) == rows[0].bound
    assert text.endswith("\n")


def test_fit_slope_requires_positive_errors_in_window():
    with pytest.raises(ValueError):
        fit_slope([100, 1000], [0.0, 0.0])
    with pytest.raises(ValueError):
        fit_slope([1000], [1.0])


# ---------------------------------------------------------------------------
# Spectrum models for the eigenvalue-level bounds


@pytest.fixture(scope="module")
def band_model():
    iv = mapped_interval(-0.3, 0.5)
    inside = np.linspace(-0.2, 0.4, 12)
    below = np.linspace(-0.95, -0.4, 9)
    above = np.linspace(0.6, 0.93, 9)
    ev = np.sort(np.concatenate([below, inside, above]))
    return {"iv": iv, "ev": ev, "inside": inside, "below": below, "above": above}


def _model(band, i, ell=3, m=4, extra=()):
    ev = np.sort(np.concatenate([band["ev"], np.asarray(extra, dtype=float)]))
    return SpectrumModel(eigenvalues=ev, interval=band["iv"], i=i, ell=ell, m=m)


def test_spectrum_model_validates_input(band_model):
    with pytest.raises(ValueError):
        SpectrumModel(
            eigenvalues=np.array([0.2, 0.1]), interval=band_model["iv"], i=1, ell=1, m=2
        )
    with pytest.raises(ValueError):
        SpectrumModel(
            eigenvalues=np.array([-1.5, 0.0]), interval=band_model["iv"], i=1, ell=1, m=2
        )


@pytest.mark.parametrize("ev, message", [
    ([-0.5, 0.1, np.nan], "ascending"),
    ([np.nan], r"\[-1, 1\]"),
], ids=["nan-last", "nan-alone"])
def test_spectrum_model_refuses_a_nan_eigenvalue(band_model, ev, message):
    # A NaN would otherwise drop out of inside_descending unseen.
    with pytest.raises(ValueError, match=message):
        SpectrumModel(np.array(ev), band_model["iv"], 1, 2, 1)


def test_spectrum_model_orders_inside_eigenvalues_downward(band_model):
    sm = _model(band_model, i=2)
    desc = sm.inside_descending
    np.testing.assert_allclose(desc, band_model["inside"][::-1])


# ---------------------------------------------------------------------------
# Pointwise error bound at an eigenvalue


def test_pointwise_bound_outside_closed_form(band_model):
    sm = _model(band_model, i=2)
    iv, d = band_model["iv"], 300
    gaps = [
        abs(iv.alpha - np.arccos(band_model["inside"].min())),
        abs(iv.beta - np.arccos(band_model["inside"].max())),
        abs(iv.alpha - np.arccos(band_model["below"].max())),
        abs(iv.beta - np.arccos(band_model["above"].min())),
    ]
    dmin = min(gaps)
    want = PI**6 / (dmin**4 * (d + 2) ** 3)
    assert error_at_eigenvalue_bound(sm, -0.6, 1, d) == pytest.approx(want, rel=1e-12)


def test_pointwise_bound_single_moment_has_no_interior_penalty(band_model):
    # With one basis polynomial the derivative terms vanish, so inside and
    # outside evaluations share the same bound.
    sm = _model(band_model, i=2)
    assert error_at_eigenvalue_bound(sm, 0.1, 1, 300) == error_at_eigenvalue_bound(
        sm, -0.6, 1, 300
    )


def test_pointwise_bound_interior_and_end_penalties(band_model):
    sm = _model(band_model, i=2)
    iv, d, m = band_model["iv"], 300, 4
    w = iv.width_t
    base = error_at_eigenvalue_bound(sm, -0.6, m, d)
    inside = error_at_eigenvalue_bound(sm, 0.1, m, d)
    at_end = error_at_eigenvalue_bound(sm, iv.a_t, m, d)
    assert inside - base == pytest.approx(
        PI**4 * (m - 1) ** 4 / (2 * w**2 * (d + 2) ** 2), rel=1e-12
    )
    assert at_end - base == pytest.approx(
        PI**2 * (m - 1) ** 2 / (2 * w * (d + 2)), rel=1e-12
    )


def test_pointwise_bound_scales_with_sup_ratio(band_model):
    sm = _model(band_model, i=2)
    one = error_at_eigenvalue_bound(sm, 0.1, 4, 300)
    three = error_at_eigenvalue_bound(sm, 0.1, 4, 300, p_sup_ratio=3.0)
    assert three == pytest.approx(3.0 * one, rel=1e-14)


def test_pointwise_bound_rejects_bad_parameters(band_model):
    sm = _model(band_model, i=2)
    with pytest.raises(ValueError):
        error_at_eigenvalue_bound(sm, 0.1, 0, 300)
    with pytest.raises(ValueError):
        error_at_eigenvalue_bound(sm, 0.1, 4, 1)


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_pointwise_bound_infinite_when_eigenvalue_hits_end(band_model, end):
    iv = band_model["iv"]
    lam = iv.a_t if end == "lower" else iv.b_t
    sm = _model(band_model, i=2, extra=[lam])
    assert error_at_eigenvalue_bound(sm, lam, 1, 300) == math.inf


def test_pointwise_bound_dominates_true_filter_error(band_model):
    # For every model eigenvalue and every Chebyshev basis polynomial the
    # measured filtering error must sit below the reported bound.
    iv, ev = band_model["iv"], band_model["ev"]
    sm = _model(band_model, i=2)
    m, d = 4, 500
    spec = make_filter_spec(iv, d, m, basis="chebyshev")
    u = (2 * ev - iv.a_t - iv.b_t) / (iv.b_t - iv.a_t)
    inside = (ev > iv.a_t) & (ev < iv.b_t)
    for k in range(m):
        filtered = filter_scalar(spec, k, ev)
        target = np.where(inside, np.cos(k * np.arccos(np.clip(u, -1.0, 1.0))), 0.0)
        errs = np.abs(filtered - target)
        for lam, err in zip(ev, errs):
            assert err <= error_at_eigenvalue_bound(sm, float(lam), m, d) + 1e-12


# ---------------------------------------------------------------------------
# Convergence-factor bound


def test_convergence_factor_constants_match_definitions(band_model):
    sm = _model(band_model, i=2)
    iv, d = band_model["iv"], 2000
    rep = convergence_factor_bound(sm, d)
    desc = sm.inside_descending
    lam_top, lam_i, lam_shift = desc[0], desc[1], desc[4]
    a_t, b_t = iv.a_t, iv.b_t
    w = iv.width_t

    sigma = 1.0 + 2.0 * (lam_i - lam_shift) / (lam_shift - a_t)
    kappa = max(abs(a_t - lam_top), abs(b_t - lam_top)) / abs(lam_i - lam_top)
    eps = kappa / cheb_t(2, sigma)
    tau = eps * cheb_t(2, 1.0 + 2.0 * (b_t - lam_shift) / (lam_shift - a_t))
    assert rep.sigma_i == pytest.approx(sigma, rel=1e-12)
    assert rep.kappa_i == pytest.approx(kappa, rel=1e-12)
    assert rep.epsilon_i == pytest.approx(eps, rel=1e-12)
    assert rep.tau_i == pytest.approx(tau, rel=1e-12)

    gamma = PI**6 * tau / (rep.delta_min**4 * (d + 2) ** 3)
    lin = PI**2 * (sm.m - 1) ** 2 / (w * (d + 2))
    delta = lin**2 * tau / 2.0
    eta = lin * tau / 2.0
    mu = gamma + max(eps + delta, eps / 2.0 + eta)
    nu = 1.0 - gamma - delta
    assert rep.gamma_hat == pytest.approx(gamma, rel=1e-12)
    assert rep.delta_hat == pytest.approx(delta, rel=1e-12)
    assert rep.eta_hat == pytest.approx(eta, rel=1e-12)
    assert rep.mu_i == pytest.approx(mu, rel=1e-12)
    assert rep.nu_i == pytest.approx(nu, rel=1e-12)
    assert rep.bound_active
    assert rep.ratio == pytest.approx(mu / nu, rel=1e-12)


def test_convergence_factor_trailing_block_case(band_model):
    # When the target sits within the last block-width of labels there is
    # no shift gap to exploit: the separation factor drops out.
    iv = band_model["iv"]
    inside4 = np.array([-0.1, 0.05, 0.2, 0.35])
    ev = np.sort(np.concatenate([band_model["below"], inside4, band_model["above"]]))
    sm = SpectrumModel(eigenvalues=ev, interval=iv, i=2, ell=3, m=4)
    rep = convergence_factor_bound(sm, 2000)
    assert rep.epsilon_i == 0.0
    assert rep.sigma_i == 1.0
    assert rep.tau_i == rep.kappa_i
    assert rep.bound_active


def test_convergence_factor_limits_at_huge_degree(band_model):
    # As the filter degree grows the bound collapses onto the
    # polynomial-approximation floor: mu -> eps and nu -> 1.
    sm = _model(band_model, i=2)
    rep = convergence_factor_bound(sm, 10**6)
    assert abs(rep.mu_i - rep.epsilon_i) <= 1e-3
    assert abs(rep.nu_i - 1.0) <= 1e-3


def test_convergence_factor_inactive_at_low_degree(band_model):
    sm = _model(band_model, i=2)
    rep = convergence_factor_bound(sm, 2)
    assert not rep.bound_active
    assert rep.nu_i <= 0.0
    assert rep.ratio == math.inf


def test_convergence_factor_index_out_of_range(band_model):
    for bad_i in (0, 13):
        sm = _model(band_model, i=bad_i)
        with pytest.raises(HypothesisViolationError, match="index"):
            convergence_factor_bound(sm, 2000)


def test_convergence_factor_requires_distinct_target(band_model):
    top = band_model["inside"].max()
    sm = _model(band_model, i=2, extra=[top])  # lambda_1 == lambda_2
    with pytest.raises(HypothesisViolationError, match="distinct"):
        convergence_factor_bound(sm, 2000)


def test_convergence_factor_rejects_multiplicity_beyond_block(band_model):
    mid = 0.1
    sm = _model(band_model, i=1, ell=2, extra=[mid, mid, mid])
    with pytest.raises(HypothesisViolationError, match="multiplicit"):
        convergence_factor_bound(sm, 2000)


def test_convergence_factor_rejects_too_many_upper_eigenvalues(band_model):
    # i = 5 needs four distinct separating roots but only three basis
    # polynomials beyond the first are available at m = 4.
    sm = _model(band_model, i=5)
    with pytest.raises(HypothesisViolationError, match="basis"):
        convergence_factor_bound(sm, 2000)


def test_convergence_factor_undefined_when_eigenvalue_on_end(band_model):
    sm = _model(band_model, i=2, extra=[band_model["iv"].b_t])
    with pytest.raises(BoundUndefinedError):
        convergence_factor_bound(sm, 2000)


def test_convergence_factor_dominates_sampled_polynomials(band_model):
    # The reported ratio bounds the min-max filtered-magnitude ratio over
    # cubic polynomials.  Sampling candidates (including the structured
    # separating polynomial behind the proof) must stay at or below it.
    iv, ev = band_model["iv"], band_model["ev"]
    sm = _model(band_model, i=2)
    d = 2000
    rep = convergence_factor_bound(sm, d)
    desc = sm.inside_descending
    lam_i, lam_shift = desc[1], desc[4]
    spec = make_filter_spec(iv, d, 4, basis="monomial")
    fk = np.vstack([filter_scalar(spec, k, ev) for k in range(4)])
    drop = np.isin(ev, desc[1:4])
    i_pos = int(np.flatnonzero(ev == lam_i)[0])

    def ratio_of(coeffs):
        vals = coeffs @ fk
        return np.max(np.abs(vals[~drop])) / abs(vals[i_pos])

    root = Polynomial.fromroots([desc[0]])
    lhat = Polynomial(
        [1.0 - 2.0 * lam_shift / (lam_shift - iv.a_t), 2.0 / (lam_shift - iv.a_t)]
    )
    grown = Polynomial(npcheb.cheb2poly([0.0, 0.0, 1.0]))(lhat)
    structured = root * grown
    coeffs = np.zeros(4)
    coeffs[: structured.coef.size] = structured.coef

    rng = np.random.default_rng(42)
    candidates = [coeffs] + [rng.standard_normal(4) for _ in range(40)]
    best = min(ratio_of(c) for c in candidates)
    assert rep.bound_active
    assert best <= rep.ratio * (1 + 1e-10)


def test_convergence_factor_bounds_subspace_angle(band_model):
    # End to end on a diagonal operator: the angle between the moment-block
    # span and the target eigenvector obeys ratio * angle(initial guess).
    iv, ev = band_model["iv"], band_model["ev"]
    sm = _model(band_model, i=2)
    d = 2000
    rep = convergence_factor_bound(sm, d)

    tr = exact_transform(-1.0, 1.0)
    a = SparseSymmetric.from_dense(np.diag(ev))
    ivt = make_interval(tr, iv.a_t, iv.b_t)
    spec = make_filter_spec(ivt, d, 4, basis="chebyshev")
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal((ev.size, 3))
    s = build_moment_block(MappedOperator(a, tr), v0, spec)
    q = np.linalg.qr(s, mode="reduced")[0]

    desc = sm.inside_descending
    pos = [int(np.flatnonzero(ev == lam)[0]) for lam in desc[1:4]]
    x_block = np.zeros((ev.size, 3))
    x_block[pos, range(3)] = 1.0
    v_i = v0 @ np.linalg.solve(x_block.T @ v0, np.eye(3)[:, 0])

    x = x_block[:, 0]
    tan_span = np.linalg.norm(x - q @ (q.T @ x)) / np.linalg.norm(q.T @ x)
    unit = v_i / np.linalg.norm(v_i)
    cos_guess = abs(unit @ x)
    tan_guess = np.sqrt(max(0.0, 1.0 - cos_guess**2)) / cos_guess
    assert tan_span <= rep.ratio * tan_guess * (1 + 1e-8) + 1e-12


# ---------------------------------------------------------------------------
# Derivative growth constants


def test_derivative_growth_reference_values():
    assert markov_constants(2, 1) == pytest.approx(1.0)
    assert markov_constants(3, 1) == pytest.approx(4.0)
    assert markov_constants(3, 2) == pytest.approx(4.0)
    assert markov_constants(4, 1) == pytest.approx(9.0)
    assert markov_constants(4, 2) == pytest.approx(24.0)


def test_derivative_growth_product_formula():
    for m in (2, 5, 9):
        for k in range(1, m):
            num = 1.0
            for j in range(k):
                num *= (m - 1) ** 2 - j**2
            den = float(np.prod(np.arange(1, 2 * k, 2)))
            assert markov_constants(m, k) == pytest.approx(num / den, rel=1e-13)


def test_derivative_growth_rejects_bad_order():
    with pytest.raises(ValueError):
        markov_constants(4, 0)
    with pytest.raises(ValueError):
        markov_constants(4, 4)


def test_derivative_growth_bounds_polynomials_on_interval():
    iv = mapped_interval(-0.3, 0.5)
    w = iv.width_t
    grid = np.linspace(iv.a_t, iv.b_t, 4001)
    rng = np.random.default_rng(3)
    for m in range(2, 9):
        for _ in range(5):
            p = Polynomial(rng.standard_normal(m))
            sup = np.max(np.abs(p(grid)))
            d1 = np.max(np.abs(p.deriv(1)(grid)))
            assert d1 <= markov_constants(m, 1) * (2 / w) * sup * (1 + 1e-9)
            if m >= 3:
                d2 = np.max(np.abs(p.deriv(2)(grid)))
                assert d1 + d2 <= 4 * (m - 1) ** 4 / w**2 * sup * (1 + 1e-9)
