"""Degree-selection rules and the stochastic in-interval eigenvalue count."""

import math
import warnings

import numpy as np
import pytest

from eigenspan import (
    BoundUndefinedError,
    MappedOperator,
    RecurrenceDivergenceError,
    SparseSymmetric,
    build_moment_block,
    estimate_count,
    exact_transform,
    filter_scalar,
    make_filter_spec,
    make_interval,
    mapped_interval,
    recommended_block_size,
    select_degree,
    theoretical_degree_bound,
)
from eigenspan.filters import GROWTH_LIMIT
from helpers import diag_matrix, force_panels, laplacian_2d, random_spectrum_matrix

IDENTITY_TRANSFORM = exact_transform(-1.0, 1.0)
NARROW_WIDTH = 0.100008  # mapped width of a [1.9, 2.1] band in a [-1.696e-3, 3.998] range


@pytest.mark.parametrize(
    "m, expected, k_factor",
    [(1, 211, 10.0), (2, 212, 10.0), (4, 220, 10.0), (8, 259, 10.0), (16, 433, 10.0),
     (2, 310, 1.0)],
    ids=["1-211", "2-212", "4-220", "8-259", "16-433", "2-310-k1"],
)
def test_select_degree_reference_values(m, expected, k_factor):
    assert select_degree(NARROW_WIDTH, m, k_factor=k_factor).d == expected


def test_select_degree_echoes_inputs():
    choice = select_degree(0.25, 4, d_factor=2.0, k_factor=5.0)
    assert choice.width == 0.25
    assert choice.m == 4
    assert choice.d_factor == 2.0
    assert choice.k_factor == 5.0
    assert choice.d >= 2


def test_select_degree_clamps_to_two():
    assert select_degree(2.0, 1).d == 2


def test_select_degree_monotonicity():
    widths = [1.0, 0.5, 0.2, 0.1, 0.05]
    by_width = [select_degree(w, 4).d for w in widths]
    assert all(lo <= hi for lo, hi in zip(by_width, by_width[1:]))

    by_m = [select_degree(0.2, m).d for m in (1, 2, 4, 8, 16)]
    assert all(lo <= hi for lo, hi in zip(by_m, by_m[1:]))

    by_d_factor = [select_degree(0.2, 4, d_factor=f).d for f in (1.0, 2.0, 4.0, 8.0)]
    assert all(lo <= hi for lo, hi in zip(by_d_factor, by_d_factor[1:]))

    by_k_factor = [select_degree(0.2, 4, k_factor=k).d for k in (10.0, 5.0, 2.0, 1.0)]
    assert all(lo <= hi for lo, hi in zip(by_k_factor, by_k_factor[1:]))


def test_select_degree_validation():
    with pytest.raises(ValueError):
        select_degree(0.0, 1)
    with pytest.raises(ValueError):
        select_degree(2.5, 1)
    with pytest.raises(ValueError):
        select_degree(0.2, 0)
    with pytest.raises(ValueError):
        select_degree(0.2, 1, d_factor=0.5)
    with pytest.raises(ValueError):
        select_degree(0.2, 1, k_factor=12.0)


def test_theoretical_bound_single_basis_example():
    iv = mapped_interval(-0.25, 0.25)
    bound = theoretical_degree_bound(iv, m=1, n_ev=1, ell=1, zeta=1.0)
    assert 29.0 < bound < 30.0
    assert math.ceil(bound) == 30


def test_theoretical_bound_single_basis_closed_form():
    iv = mapped_interval(-0.1, 0.3)
    for n_ev, zeta in [(1, 1.0), (5, 0.5), (20, 2.0)]:
        delta = iv.width_t / n_ev
        expected = math.pi**2 / delta ** (4.0 / 3.0) * ((1 + zeta) / zeta) ** (1.0 / 3.0) - 2.0
        got = theoretical_degree_bound(iv, m=1, n_ev=n_ev, ell=3, zeta=zeta)
        assert got == pytest.approx(expected, rel=1e-14)


def test_theoretical_bound_refuses_a_nan_zeta():
    with pytest.raises(ValueError, match="^zeta must be positive, got nan$"):
        theoretical_degree_bound(mapped_interval(-0.1, 0.3), m=1, n_ev=5, ell=3, zeta=math.nan)


def test_theoretical_bound_undefined_without_separation_gap():
    iv = mapped_interval(-0.1, 0.1)
    with pytest.raises(BoundUndefinedError):
        theoretical_degree_bound(iv, m=4, n_ev=5, ell=5)


def test_theoretical_bound_dominates_practical_rule():
    for width in (0.1, 0.2, 0.5):
        iv = mapped_interval(-width / 2, width / 2)
        for m in (1, 2, 4, 8, 16):
            for n_ev in (20, 100):
                ell = recommended_block_size(n_ev, m)
                if m >= 2 and n_ev - 1 - ell <= 0:
                    continue
                bound = theoretical_degree_bound(iv, m=m, n_ev=n_ev, ell=ell)
                assert bound >= select_degree(width, m).d


def test_theoretical_bound_validation():
    iv = mapped_interval(-0.1, 0.1)
    with pytest.raises(ValueError):
        theoretical_degree_bound(iv, m=0, n_ev=5, ell=2)
    with pytest.raises(ValueError):
        theoretical_degree_bound(iv, m=1, n_ev=5, ell=2, zeta=0.0)


def test_count_estimate_is_deterministic():
    a = diag_matrix(np.linspace(-0.9, 0.9, 50))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.2, 0.2)
    first = estimate_count(op, iv, d=200, samples=10, seed=42)
    second = estimate_count(op, iv, d=200, samples=10, seed=42)
    assert first.n_ev_tilde == second.n_ev_tilde
    np.testing.assert_array_equal(first.per_sample, second.per_sample)
    assert first.samples == 10
    assert first.seed == 42
    assert first.d == 200


def test_count_estimate_seven_inside(rng):
    inside = np.linspace(-0.06, 0.06, 7)
    outside = np.concatenate([np.linspace(-0.95, -0.25, 147), np.linspace(0.25, 0.95, 146)])
    a = diag_matrix(np.concatenate([inside, outside]))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.1, 0.1)
    hits = 0
    for seed in range(20):
        est = estimate_count(op, iv, d=2000, samples=200, seed=seed)
        if 6.0 <= est.n_ev_tilde <= 8.5:
            hits += 1
        assert est.per_sample.min() >= -0.5
        assert est.per_sample.max() <= a.n + 0.5
    assert hits >= 19


def test_count_estimate_whole_spectrum(rng):
    n = 100
    a = diag_matrix(rng.uniform(-0.5, 0.5, size=n))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.8, 0.8)
    est = estimate_count(op, iv, d=1500, samples=10, seed=0)
    assert est.n_ev_tilde == pytest.approx(n + 1, rel=0.02)


def test_count_estimate_empty_gap(rng):
    values = np.concatenate([rng.uniform(-0.9, -0.3, 60), rng.uniform(0.3, 0.9, 60)])
    a = diag_matrix(values)
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.1, 0.1)
    est = estimate_count(op, iv, d=2000, samples=30, seed=1)
    assert 0.5 <= est.n_ev_tilde <= 1.5


def test_count_estimate_mean_matches_dense_trace(rng):
    n = 80
    eigenvalues = rng.uniform(-0.9, 0.9, size=n)
    a = SparseSymmetric.from_dense(random_spectrum_matrix(eigenvalues, rng))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.2, 0.3)
    d = 400

    spec = make_filter_spec(iv, d=d, m=1)
    oracle = filter_scalar(spec, 0, eigenvalues).sum() + 1.0

    estimates = np.array(
        [estimate_count(op, iv, d=d, samples=8, seed=seed).n_ev_tilde for seed in range(100)]
    )
    standard_error = estimates.std(ddof=1) / math.sqrt(estimates.size)
    assert abs(estimates.mean() - oracle) <= 3.0 * standard_error


@pytest.mark.parametrize("d", [300, 1384])
def test_count_matches_the_moment_block_quadratic_form(d):
    # The estimate before the doubling identities: v_i^T F_d(A_t) v_i from
    # the full filtered block of the same sign probes.
    a = laplacian_2d(44)
    tr = exact_transform(0.0, 8.0)
    op = MappedOperator(a, tr)
    iv = make_interval(tr, 0.5, 0.6)
    samples, seed = 10, 3
    est = estimate_count(op, iv, d=d, samples=samples, seed=seed)

    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2, size=(a.n, samples)).astype(np.float64) * 2.0 - 1.0
    spec = make_filter_spec(iv, d=d, m=1)
    reference = np.einsum("ij,ij->j", v, build_moment_block(op, v, spec))
    np.testing.assert_allclose(est.per_sample, reference, rtol=1e-12, atol=0.0)
    assert est.mv_exact == math.ceil(d / 2) * samples


@pytest.mark.parametrize("panels", [2, 3])
def test_count_on_panels_equals_the_whole_block(monkeypatch, panels):
    op = MappedOperator(laplacian_2d(20), exact_transform(0.0, 8.0))
    iv = make_interval(op.transform, 0.5, 1.0)
    force_panels(monkeypatch, 1)
    whole = estimate_count(op, iv, d=301, samples=7, seed=2)
    force_panels(monkeypatch, panels)
    split = estimate_count(op, iv, d=301, samples=7, seed=2)
    assert np.array_equal(split.per_sample, whole.per_sample)
    assert split.n_ev_tilde == whole.n_ev_tilde
    assert split.mv_exact == whole.mv_exact == 151 * 7


@pytest.mark.parametrize("outside, d", [(5.0, 2000), (1.5, 60), (1.0005, 1384)])
def test_count_stops_at_the_first_step_a_missed_eigenvalue_outgrows(monkeypatch, outside, d):
    # A mapped eigenvalue past 1 makes T_k grow like cosh(k arccosh(t)): within
    # a few steps at t = 5, after about 135 at t = 1.0005.  Growth is checked
    # each time the 2-iterate ring fills and at k = ceil(d / 2); since T_k
    # only grows past 1, the count still names the first k with
    # ||T_k(D) V||_F > GROWTH_LIMIT * ||V||_F, without a RuntimeWarning, on
    # any number of column panels.
    t_diag = np.array([outside, 0.3, -0.7, 0.9, -0.2])
    op = MappedOperator(diag_matrix(t_diag), IDENTITY_TRANSFORM)
    samples, seed = 4, 0
    v = np.random.default_rng(seed).integers(0, 2, size=(5, samples)) * 2.0 - 1.0
    first = next(
        k
        for k in range(1, math.ceil(d / 2) + 1)
        if np.linalg.norm(np.polynomial.chebyshev.chebval(t_diag, [0] * k + [1])[:, None] * v)
        > GROWTH_LIMIT * np.linalg.norm(v)
    )
    for panels in (1, 2, 3, 4):
        force_panels(monkeypatch, panels)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RecurrenceDivergenceError, match=f"step {first} of {d}") as excinfo:
                estimate_count(op, mapped_interval(-0.2, 0.2), d=d, samples=samples, seed=seed)
        assert excinfo.value.step == first


def test_count_estimate_validation():
    a = diag_matrix(np.linspace(-0.5, 0.5, 10))
    op = MappedOperator(a, IDENTITY_TRANSFORM)
    iv = mapped_interval(-0.2, 0.2)
    with pytest.raises(ValueError):
        estimate_count(op, iv, d=200, samples=0)
    with pytest.raises(ValueError):
        estimate_count(op, iv, d=1, samples=5)


def test_recommended_block_size():
    assert recommended_block_size(200.0, 4) == 75
    assert recommended_block_size(36.0, 4) == 14
    assert recommended_block_size(0.3, 8) == 1
    with pytest.raises(ValueError):
        recommended_block_size(10.0, 0)
