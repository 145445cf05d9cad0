"""The interval-solve policy, called as a library rather than through the CLI.

``solve_interval`` and its steps own the target, the block size, the start
block and the spectral bounds; these tests pin each rule on small Laplacian
and diagonal matrices with known spectra.
"""

import json
import math

import numpy as np
import pytest

import report_diff
from eigenspan import (
    count_interval,
    estimate_spectral_range,
    plan_interval,
    save_matrix_market,
    select_degree,
    solve_interval,
)
from eigenspan.cli import _solve_report_json, main
from helpers import diag_matrix, laplacian_1d

# 200 equispaced eigenvalues, 10 of them in [-0.0503, 0.0503].
DIAG_EV = np.linspace(-1.0, 1.0, 200)


def test_target_is_at_least_one_on_an_empty_interval():
    # No eigenvalue within 0.4 of [-0.1, 0.1]: the trace mean rounds to 0.
    a = diag_matrix(np.concatenate([np.linspace(-1.0, -0.5, 50), np.linspace(0.5, 1.0, 50)]))
    plan, est = plan_interval(a, -0.1, 0.1, bounds=(-1.0, 1.0), count_degree=300, seed=2)
    assert round(est.n_ev_tilde - 1.0) == 0
    assert plan.n_ev_target == 1
    assert plan.ell == max(1, math.ceil(1.5 * est.n_ev_tilde / 4))


def test_target_rounds_the_plain_trace_mean():
    a = diag_matrix(DIAG_EV)
    plan, est = plan_interval(a, -0.0503, 0.0503, bounds=(-1.0, 1.0), seed=1)
    assert plan.n_ev_target == round(est.n_ev_tilde - 1.0) == 10


@pytest.mark.parametrize("method", ["cj", "contour"])
def test_auto_ell_is_capped_at_n(method):
    # All 12 eigenvalues lie inside: the m = 1 rule ceil(1.5 * n_ev_tilde) asks for 19.
    rep, est, plan = solve_interval(
        laplacian_1d(12), 0.01, 3.99, method=method, bounds=(0.0, 4.0), m=1
    )
    assert 1.5 * est.n_ev_tilde > 12
    assert plan.ell == 12
    assert rep.converged
    assert len(rep.ritz.values) == 12


@pytest.mark.parametrize("ell", ["auto", 5])
def test_start_block_is_drawn_from_the_seed(ell):
    a = laplacian_1d(200)
    plan, est = plan_interval(a, 1.9, 2.1, ell=ell, seed=3, count_degree=300)
    expected_ell = min(math.ceil(1.5 * est.n_ev_tilde / 4), 200) if ell == "auto" else ell
    assert plan.ell == expected_ell
    np.testing.assert_array_equal(
        plan.v0, np.random.default_rng(3).standard_normal((200, expected_ell))
    )


@pytest.mark.parametrize("n, steps", [(200, 50), (12, 12)], ids=["lanczos", "lanczos-capped-at-n"])
def test_given_bounds_against_lanczos_bounds(n, steps):
    a = laplacian_1d(n)
    given, _, _, _ = count_interval(a, 1.9, 2.1, bounds=(0.0, 4.0), count_degree=40, seed=4)
    auto, _, _, _ = count_interval(a, 1.9, 2.1, count_degree=40, seed=4)
    assert (given.lambda_min_est, given.lambda_max_est) == (0.0, 4.0)
    lanczos = estimate_spectral_range(a, steps=steps, seed=4)
    assert (auto.lambda_min_est, auto.lambda_max_est) == (
        lanczos.lambda_min_est, lanczos.lambda_max_est
    )


def test_count_degree_auto_is_the_filter_degree():
    a = laplacian_1d(200)
    _, iv, degree, est = count_interval(a, 1.9, 2.1, bounds=(0.0, 4.0), m=4, d_factor=2.0)
    assert est.d == degree == select_degree(iv.width_t, 4, d_factor=2.0).d
    plan, _ = plan_interval(a, 1.9, 2.1, bounds=(0.0, 4.0), d_factor=2.0, count_degree=40)
    assert plan.degree == degree


def test_unknown_method_is_rejected_before_the_count(monkeypatch):
    import eigenspan.policy

    def no_count(*args, **kwargs):
        raise AssertionError("the count pass ran")

    monkeypatch.setattr(eigenspan.policy, "estimate_count", no_count)
    with pytest.raises(ValueError, match="unknown method 'feast'"):
        solve_interval(laplacian_1d(12), 1.9, 2.1, method="feast")


def test_cli_solve_writes_the_library_report(tmp_path):
    path, out = str(tmp_path / "lap1d.mtx"), tmp_path / "solve.json"
    a = laplacian_1d(200)
    save_matrix_market(a, path)
    assert main(["solve", "--matrix-path", path, "--a", "1.9", "--b", "2.1", "--seed", "1",
                 "--report-path", str(out)]) == 0
    rep, est, plan = solve_interval(a, 1.9, 2.1, seed=1)
    config = {
        "matrix_path": path, "a": 1.9, "b": 2.1, "samples": 30, "seed": 1,
        "spectral_bounds": "auto", "lanczos_steps": 50, "count_degree": est.d, "m": 4,
        "tol": 1e-10, "max_restarts": 30, "ell": plan.ell, "n_ev_target": plan.n_ev_target,
        "degree": plan.degree, "basis": "chebyshev",
    }
    expected = _solve_report_json(rep, "solve", config, plan.transform, est, 0.0)
    assert rep.converged
    assert list(report_diff.diff(json.loads(json.dumps(expected)), json.loads(out.read_text()))) == []
