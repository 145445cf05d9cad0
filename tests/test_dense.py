"""Dense kernels: SVD orthonormalization and rank, symmetric eigensolver."""

import numpy as np
import pytest

from eigenspan import (
    condition_number,
    dense_sym_eig,
    numerical_rank,
)
from eigenspan.dense import orthonormal_range
from eigenspan.engine import orthonormalize_block
from helpers import random_symmetric


def test_orthonormal_range_keeps_orthonormal_input_span(rng):
    q0, _ = np.linalg.qr(rng.standard_normal((30, 6)))
    u, rank = orthonormal_range(q0)
    assert rank == 6
    np.testing.assert_allclose(u @ u.T, q0 @ q0.T, atol=1e-12)


def test_orthonormal_range_keeps_near_dependent_columns():
    s = np.zeros((3, 2))
    s[0, 0] = 1.0
    s[:, 1] = [1.0, 1e-3, 0.0]
    u, rank = orthonormal_range(s)
    assert rank == 2
    assert np.linalg.norm(s - u @ (u.T @ s)) <= 1e-14


def test_orthonormal_range_reconstruction_and_orthonormality(rng):
    s = rng.standard_normal((100, 8))
    u, rank = orthonormal_range(s)
    assert rank == 8
    assert np.linalg.norm(s - u @ (u.T @ s)) <= 1e-13 * np.linalg.norm(s)
    assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12


def test_orthonormal_range_wide_input_keeps_row_space_dimension(rng):
    u, rank = orthonormal_range(rng.standard_normal((2, 3)))
    assert rank == 2
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-12


def test_orthonormalize_block_duplicated_column_reports_rank(rng):
    s = rng.standard_normal((30, 5))
    s[:, 3] = s[:, 1]
    u, rank = orthonormalize_block(s)
    assert rank == 4
    assert u.shape == (30, 4)


def test_orthonormalize_block_zero_column_reports_rank(rng):
    s = rng.standard_normal((20, 4))
    s[:, 2] = 0.0
    u, rank = orthonormalize_block(s)
    assert rank == u.shape[1] == 3


def test_orthonormalize_block_full_rank_reports_no_rank(rng):
    u, rank = orthonormalize_block(rng.standard_normal((40, 6)))
    assert rank is None
    assert u.shape == (40, 6)


def test_dense_sym_eig_diagonal_permutation():
    res = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(res.values, [1.0, 2.0, 3.0], atol=1e-14)
    # Eigenvectors of a diagonal matrix are signed identity columns.
    np.testing.assert_allclose(np.abs(res.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_dense_sym_eig_two_by_two_exchange():
    res = dense_sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(res.values, [-1.0, 1.0], atol=1e-14)


def test_dense_sym_eig_residuals_and_trace(rng):
    b = random_symmetric(40, rng)
    res = dense_sym_eig(b)
    norm_b = np.linalg.norm(b, 2)
    for theta, q in zip(res.values, res.vectors.T):
        assert np.linalg.norm(b @ q - theta * q) <= 1e-10 * norm_b
    assert abs(np.trace(b) - res.values.sum()) <= 1e-11 * max(1.0, abs(np.trace(b)))
    assert np.all(np.diff(res.values) >= 0)


def test_dense_sym_eig_orthonormal_vectors(rng):
    b = random_symmetric(60, rng)
    res = dense_sym_eig(b)
    assert np.max(np.abs(res.vectors.T @ res.vectors - np.eye(60))) <= 1e-12


@pytest.mark.parametrize("n", [5, 50, 200])
def test_dense_sym_eig_spectral_reconstruction(n, rng):
    b = random_symmetric(n, rng)
    res = dense_sym_eig(b)
    recon = (res.vectors * res.values) @ res.vectors.T
    assert np.linalg.norm(recon - b) <= 1e-10 * np.linalg.norm(b)


def test_dense_sym_eig_rejects_asymmetric(rng):
    g = rng.standard_normal((6, 6))
    with pytest.raises(ValueError):
        dense_sym_eig(g + 0.5)


def test_condition_number_orthonormal_is_one(rng):
    q, _ = np.linalg.qr(rng.standard_normal((40, 7)))
    assert condition_number(q) == pytest.approx(1.0, abs=1e-10)


def test_condition_number_diagonal_ratio():
    s = np.zeros((5, 2))
    s[0, 0] = 10.0
    s[1, 1] = 0.1
    assert condition_number(s) == pytest.approx(100.0, rel=1e-12)


def test_condition_number_singular_block(rng):
    s = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert condition_number(s) == np.inf
    # near-dependent: sigma_min is roundoff, so a finite ratio would be noise
    s = rng.standard_normal((20, 3))
    s[:, 2] = s[:, 1] * (1.0 + 1e-15)
    assert numerical_rank(s) == 2
    assert condition_number(s) == np.inf


def test_numerical_rank_full(rng):
    s = rng.standard_normal((50, 10))
    assert numerical_rank(s) == 10


def test_numerical_rank_duplicated_column(rng):
    s = rng.standard_normal((50, 10))
    s[:, 7] = s[:, 2]
    assert numerical_rank(s) == 9


def test_orthonormal_range_spans_input(rng):
    s = rng.standard_normal((60, 8))
    s[:, 5] = s[:, 1]  # make it rank 7
    u, rank = orthonormal_range(s)
    assert rank == 7
    assert u.shape == (60, 7)
    assert np.max(np.abs(u.T @ u - np.eye(7))) <= 1e-12
    # The kept basis reproduces the original block.
    assert np.linalg.norm(s - u @ (u.T @ s)) <= 1e-10 * np.linalg.norm(s)
