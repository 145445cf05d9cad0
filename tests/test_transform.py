"""Spectral-range estimation and the affine map onto [-1, 1]."""

import math

import numpy as np
import pytest

from eigenspan import (
    FilterSpec,
    IntervalError,
    MappedOperator,
    MVCounter,
    SparseSymmetric,
    build_moment_block,
    estimate_spectral_range,
    exact_transform,
    make_interval,
    mapped_interval,
)
from eigenspan import parse_matrix_market
from helpers import diag_matrix, laplacian_1d, laplacian_eigs, random_symmetric


def test_full_lanczos_recovers_extremes_of_diagonal():
    n = 40
    values = np.linspace(-1.0, 1.0, n)
    tr = estimate_spectral_range(diag_matrix(values), steps=n, seed=0)
    assert tr.lambda_min_est <= -1.0 <= 1.0 <= tr.lambda_max_est
    assert abs(tr.lambda_min_est - (-1.0)) <= 1e-8
    assert abs(tr.lambda_max_est - 1.0) <= 1e-8


def test_identity_matrix_breaks_down_but_encloses():
    tr = estimate_spectral_range(diag_matrix(np.ones(20)), steps=10, seed=3)
    assert tr.lambda_min_est <= 1.0 <= tr.lambda_max_est
    assert tr.lambda_min_est < tr.lambda_max_est


def test_laplacian_range_encloses_analytic_spectrum():
    n = 2000
    tr = estimate_spectral_range(laplacian_1d(n), steps=50, seed=0)
    eigs = laplacian_eigs(n)
    assert tr.lambda_min_est <= eigs[0]
    assert tr.lambda_max_est >= eigs[-1]


def test_short_run_encloses_in_most_seeds(rng):
    hits = 0
    seeds = range(20)
    dense = random_symmetric(120, rng)
    a = SparseSymmetric.from_dense(dense)
    true_eigs = np.linalg.eigvalsh(dense)
    for seed in seeds:
        tr = estimate_spectral_range(a, steps=30, seed=seed)
        if tr.lambda_min_est <= true_eigs[0] and tr.lambda_max_est >= true_eigs[-1]:
            hits += 1
    assert hits >= 19


def test_estimate_rejects_bad_step_counts():
    a = diag_matrix(np.arange(5.0))
    with pytest.raises(ValueError):
        estimate_spectral_range(a, steps=1)
    with pytest.raises(ValueError):
        estimate_spectral_range(a, steps=6)


def test_map_sends_estimated_ends_to_unit_interval():
    tr = exact_transform(-3.0, 7.0)
    assert tr.map(-3.0) == pytest.approx(-1.0, abs=1e-14)
    assert tr.map(7.0) == pytest.approx(1.0, abs=1e-14)
    t = np.linspace(-3.0, 7.0, 11)
    np.testing.assert_allclose(tr.unmap(tr.map(t)), t, atol=1e-14)


def test_map_is_affine_with_published_scale_and_shift():
    tr = exact_transform(-0.3, 2.9)
    t = np.linspace(-0.8, 3.4, 7)
    np.testing.assert_array_equal(tr.map(t), tr.scale * t + tr.shift)


def test_map_is_strictly_increasing():
    tr = exact_transform(-2.0, 5.0)
    t = np.linspace(-2.0, 5.0, 100)
    assert np.all(np.diff(tr.map(t)) > 0)


def test_make_interval_identity_transform():
    iv = make_interval(exact_transform(-1.0, 1.0), -0.2, 0.4)
    assert iv.a_t == pytest.approx(-0.2, abs=1e-15)
    assert iv.b_t == pytest.approx(0.4, abs=1e-15)
    assert iv.alpha == pytest.approx(np.arccos(-0.2), abs=1e-15)
    assert iv.beta == pytest.approx(np.arccos(0.4), abs=1e-15)


def test_make_interval_affine_arithmetic():
    iv = make_interval(exact_transform(0.0, 4.0), 1.9, 2.1)
    assert iv.a_t == pytest.approx(-0.05, abs=1e-15)
    assert iv.b_t == pytest.approx(0.05, abs=1e-15)


def test_make_interval_narrow_band_width():
    iv = make_interval(exact_transform(-1.696e-3, 3.998), 1.9, 2.1)
    assert iv.width_t == pytest.approx(0.4 / 3.999696, rel=1e-12)
    assert iv.width_t == pytest.approx(0.10001, abs=5e-6)


def test_make_interval_angle_ordering():
    tr = exact_transform(-1.0, 1.0)
    narrow = make_interval(tr, -0.1, 0.1)
    wide = make_interval(tr, -0.5, 0.5)
    assert 0 <= narrow.beta < narrow.alpha <= np.pi
    assert wide.alpha > narrow.alpha
    assert wide.beta < narrow.beta


def test_make_interval_rejects_bad_intervals():
    tr = exact_transform(0.0, 4.0)
    with pytest.raises(IntervalError):
        make_interval(tr, 2.0, 2.0)
    with pytest.raises(IntervalError):
        make_interval(tr, -0.5, 1.0)
    with pytest.raises(IntervalError):
        make_interval(tr, 3.0, 4.5)


@pytest.mark.parametrize("a, b", [(float("nan"), 0.4), (1.9, float("nan"))])
def test_make_interval_names_a_nan_end(a, b):
    with pytest.raises(IntervalError) as exc:
        make_interval(exact_transform(0.0, 4.0), a, b)
    assert str(exc.value) == f"interval ends must be numbers, got [{a}, {b}]"


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 8.0), (8.0, 0.0)])
def test_exact_transform_refuses_non_finite_or_unordered_bounds(lo, hi):
    with pytest.raises(ValueError) as excinfo:
        exact_transform(lo, hi)
    assert str(excinfo.value) == f"need finite lambda_min < lambda_max, got [{lo}, {hi}]"


def test_mapped_interval_convenience():
    iv = mapped_interval(-0.2, 0.4)
    assert iv.a_t == -0.2
    assert iv.b_t == 0.4
    with pytest.raises(IntervalError):
        mapped_interval(0.4, -0.2)
    with pytest.raises(IntervalError):
        mapped_interval(-1.5, 0.2)


@pytest.mark.parametrize("a_t, b_t", [(-0.2, 0.4), (1e-20, 0.4)])
def test_mapped_interval_is_make_interval_on_the_identity_range(a_t, b_t):
    assert mapped_interval(a_t, b_t) == make_interval(exact_transform(-1.0, 1.0), a_t, b_t)


def test_identity_map_is_exact():
    tr = exact_transform(-1.0, 1.0)
    assert (tr.scale, tr.shift) == (1.0, 0.0)
    iv = make_interval(tr, -0.2, 0.4)
    assert (iv.a_t, iv.b_t) == (-0.2, 0.4)


def test_make_interval_over_the_whole_range_has_finite_angles():
    # Unclipped, scale * 0.7 + shift rounds to 1 + 2^-52 and arccos gives nan.
    iv = make_interval(exact_transform(0.1, 0.7), 0.1, 0.7)
    assert (iv.b_t, iv.beta) == (1.0, 0.0)
    assert np.isfinite(iv.alpha)


def test_make_interval_rejects_endpoints_that_collapse_when_mapped():
    with pytest.raises(IntervalError, match="collapses"):
        make_interval(exact_transform(0.0, 3.0), 1.5, np.nextafter(1.5, 2.0))


def test_interval_contains_is_closed():
    iv = make_interval(exact_transform(0.0, 4.0), 1.0, 3.0)
    inside = iv.contains(np.array([1.0, 2.0, 3.0]))
    outside = iv.contains(np.array([0.999999, 3.000001]))
    assert inside.all()
    assert not outside.any()
    mapped = iv.contains(np.array([iv.a_t, 0.0, iv.b_t, 0.9]), mapped=True)
    np.testing.assert_array_equal(mapped, [True, True, True, False])


def test_mapped_operator_matches_dense_affine(rng):
    # At d = 1 with rho = [1, 1] and coeffs = [[0, 1]] the moment block is
    # T_1(A_t) V = A_t V, so this checks the one application of A_t.
    dense = random_symmetric(30, rng)
    a = SparseSymmetric.from_dense(dense)
    lo, hi = -4.0, 6.0
    op = MappedOperator(a, exact_transform(lo, hi))
    spec = FilterSpec(d=1, m=1, basis="chebyshev", rho=np.ones(2), coeffs=np.array([[0.0, 1.0]]))
    x = rng.standard_normal((30, 4))
    counter = MVCounter()
    block = build_moment_block(op, x, spec, counter)
    expected = (2.0 * dense @ x - (hi + lo) * x) / (hi - lo)
    np.testing.assert_allclose(block, expected, atol=1e-14)
    assert counter.count == 4


def test_mapped_operator_counts_columns(rng):
    # T_1(A_t) V costs one product with A per column of V, so a one-column
    # and a four-column start block charge 5 to a shared counter.
    a = diag_matrix(np.arange(6.0))
    op = MappedOperator(a, exact_transform(0.0, 5.0))
    spec = FilterSpec(d=1, m=1, basis="chebyshev", rho=np.ones(2), coeffs=np.array([[0.0, 1.0]]))
    counter = MVCounter()
    build_moment_block(op, rng.standard_normal((6, 1)), spec, counter)
    build_moment_block(op, rng.standard_normal((6, 4)), spec, counter)
    assert counter.count == 5


def test_doubled_equals_scipys_sparse_sum():
    # 2 l(A) = A - 2 I under this map.  Row 2 lacks its diagonal (entries on
    # both sides of it), row 5 is empty, (1, 1) = 2 cancels to exactly 0, and
    # the explicit zeros at (1, 3) and (3, 1) come out 0: all three zeros go.
    import scipy.sparse as sp

    a = parse_matrix_market(
        "%%MatrixMarket matrix coordinate real symmetric\n5 5 6\n"
        "1 1 2.0\n2 1 1.0\n3 1 0.0\n4 2 3.0\n3 3 5.0\n4 4 2.5\n"
    )
    tr = exact_transform(0.0, 4.0)
    doubled = MappedOperator(a, tr).doubled()
    expected = (
        sp.csr_matrix((2.0 * tr.scale * a.values, a.col_idx, a.row_ptr), shape=a.shape)
        + 2.0 * tr.shift * sp.identity(a.n, format="csr")
    )
    for got, want in zip((doubled.row_ptr, doubled.col_idx, doubled.values),
                         (expected.indptr, expected.indices, expected.data)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert doubled.nnz == a.nnz - 3 + 2
