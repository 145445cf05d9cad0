"""Rayleigh-Ritz projection, convergence test, and the restarted solver."""

import numpy as np
import pytest

from eigenspan import (
    MVCounter,
    RitzSet,
    check_convergence,
    exact_transform,
    make_filter_spec,
    make_interval,
    mv_accounting,
    rayleigh_ritz,
    run_baseline,
    run_cjssrr,
)
from helpers import diag_matrix, laplacian_1d, laplacian_eigs, random_symmetric
from eigenspan import SparseSymmetric


def interval_count(values, a, b):
    values = np.asarray(values)
    return int(np.count_nonzero((values >= a) & (values <= b)))


@pytest.fixture(scope="module")
def solver_runs():
    """Shared restarted-solver runs over the small model suite."""
    rng = np.random.default_rng(7)
    runs = {}

    # Diagonal model: 400 equispaced eigenvalues, band around zero.
    diag_values = np.linspace(-1.0, 1.0, 400)
    a = diag_matrix(diag_values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.1, 0.1)
    n_ev = interval_count(diag_values, -0.1, 0.1)
    spec = make_filter_spec(iv, d=87, m=4)
    v0 = rng.standard_normal((400, 15))
    runs["diag"] = (
        run_cjssrr(a, tr, iv, spec, v0, tol=1e-10, n_ev_target=n_ev),
        diag_values,
        n_ev,
        iv,
    )

    # Tridiagonal model with analytic spectrum, interior band.
    n = 500
    lap = laplacian_1d(n)
    eigs = laplacian_eigs(n)
    a_edge = 0.5 * (eigs[244] + eigs[245])
    b_edge = 0.5 * (eigs[255] + eigs[256])
    tr_lap = exact_transform(eigs[0], eigs[-1])
    iv_lap = make_interval(tr_lap, a_edge, b_edge)
    n_ev_lap = interval_count(eigs, a_edge, b_edge)
    from eigenspan import select_degree

    d_lap = select_degree(iv_lap.width_t, 4).d
    spec_lap = make_filter_spec(iv_lap, d=d_lap, m=4)
    v0_lap = rng.standard_normal((n, 5))
    runs["laplacian"] = (
        run_cjssrr(lap, tr_lap, iv_lap, spec_lap, v0_lap, tol=1e-10, n_ev_target=n_ev_lap),
        eigs,
        n_ev_lap,
        iv_lap,
    )

    # Narrow band, many basis polynomials: degree tuned for m=16 vs the
    # single-basis degree on the same problem.  The low degree converges far
    # more slowly per restart, so the two are compared at a tolerance both
    # can reach.
    diag2000 = np.linspace(-1.0, 1.0, 2000)
    a2 = diag_matrix(diag2000)
    iv2 = make_interval(tr, -0.05, 0.05)
    n_ev2 = interval_count(diag2000, -0.05, 0.05)
    v0_2 = rng.standard_normal((2000, 10))
    for label, degree in (("m16_tuned", 433), ("m16_low", 211)):
        spec2 = make_filter_spec(iv2, d=degree, m=16)
        runs[label] = (
            run_cjssrr(
                a2, tr, iv2, spec2, v0_2, tol=1e-4, max_restarts=15,
                n_ev_target=n_ev2,
            ),
            diag2000,
            n_ev2,
            iv2,
        )
    return runs


def test_rayleigh_ritz_exact_invariant_subspace():
    a = diag_matrix(np.arange(10.0))
    tr = exact_transform(0.0, 9.0)
    iv = make_interval(tr, 1.5, 4.5)
    u = np.zeros((10, 3))
    for col, idx in enumerate((2, 3, 4)):
        u[idx, col] = 1.0
    rs = rayleigh_ritz(a, u, iv, tr.operator_norm)
    np.testing.assert_allclose(rs.values, [2.0, 3.0, 4.0], atol=1e-12)
    assert rs.residual_norms.max() <= 1e-12
    assert rs.in_interval.all()


def test_rayleigh_ritz_random_subspace_bounds(rng):
    dense = random_symmetric(50, rng)
    a = SparseSymmetric.from_dense(dense)
    eigs = np.linalg.eigvalsh(dense)
    tr = exact_transform(eigs[0], eigs[-1])
    iv = make_interval(tr, eigs[0], eigs[-1])
    u, _ = np.linalg.qr(rng.standard_normal((50, 6)))
    rs = rayleigh_ritz(a, u, iv, tr.operator_norm)
    assert np.all(rs.residual_norms >= 0)
    assert rs.residual_norms.max() <= 2.0
    assert rs.values.min() >= eigs[0] - 1e-9
    assert rs.values.max() <= eigs[-1] + 1e-9


def test_rayleigh_ritz_galerkin_condition(rng):
    dense = random_symmetric(60, rng)
    a = SparseSymmetric.from_dense(dense)
    eigs = np.linalg.eigvalsh(dense)
    tr = exact_transform(eigs[0], eigs[-1])
    iv = make_interval(tr, eigs[0], eigs[-1])
    u, _ = np.linalg.qr(rng.standard_normal((60, 8)))
    rs = rayleigh_ritz(a, u, iv, tr.operator_norm)
    residual = dense @ rs.vectors - rs.vectors * rs.values
    assert np.max(np.abs(u.T @ residual)) <= 1e-10 * tr.operator_norm


def test_rayleigh_ritz_charges_one_product_per_column(rng):
    a = diag_matrix(np.linspace(-1.0, 1.0, 30))
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.5, 0.5)
    u, _ = np.linalg.qr(rng.standard_normal((30, 7)))
    counter = MVCounter()
    rayleigh_ritz(a, u, iv, tr.operator_norm, counter)
    assert counter.count == 7


def test_rayleigh_ritz_rejects_skewed_basis(rng):
    a = diag_matrix(np.linspace(-1.0, 1.0, 20))
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.5, 0.5)
    with pytest.raises(ValueError):
        rayleigh_ritz(a, rng.standard_normal((20, 4)), iv, tr.operator_norm)


def test_rayleigh_ritz_after_one_filtered_pass(rng):
    from eigenspan import MappedOperator, build_moment_block
    from eigenspan.engine import orthonormalize_block

    values = np.linspace(-1.0, 1.0, 200)
    a = diag_matrix(values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.1, 0.1)
    truth = values[(values >= -0.1) & (values <= 0.1)]
    spec = make_filter_spec(iv, d=220, m=4)
    block = build_moment_block(MappedOperator(a, tr), rng.standard_normal((200, 8)), spec)
    u, _ = orthonormalize_block(block)
    rs = rayleigh_ritz(a, u, iv, tr.operator_norm)
    # The basis has more directions than there are eigenvalues in the band,
    # so a few ghost pairs (large residual) can land inside the interval.
    # The claim is about the wanted pairs: the best-residual in-interval
    # values reproduce the band to one-pass accuracy.
    inside = np.flatnonzero(rs.in_interval)
    assert inside.size >= truth.size
    best = inside[np.argsort(rs.residual_norms[inside])[: truth.size]]
    np.testing.assert_allclose(np.sort(rs.values[best]), truth, atol=1e-6)


def test_check_convergence_counts_and_strictness():
    rs = RitzSet(
        values=np.array([0.0, 0.05, 0.2]),
        vectors=np.eye(3),
        residual_norms=np.array([0.0, 1e-10, 0.0]),
        in_interval=np.array([True, True, False]),
    )
    done, count = check_convergence(rs, tol=1e-10, n_ev_target=2)
    assert not done  # the 1e-10 residual equals tol, so it does not count
    assert count == 1
    done, count = check_convergence(rs, tol=1e-9, n_ev_target=2)
    assert done
    assert count == 2


def test_solver_finds_all_band_eigenvalues(solver_runs):
    report, diag_values, n_ev, _ = solver_runs["diag"]
    truth = diag_values[(diag_values >= -0.1) & (diag_values <= 0.1)]
    assert report.converged
    assert report.ritz.values.size == n_ev
    np.testing.assert_allclose(np.sort(report.ritz.values), truth, atol=1e-10)
    assert report.max_residual < 1e-10
    assert report.restarts <= 10


def test_solver_on_tridiagonal_model(solver_runs):
    report, eigs, n_ev, iv = solver_runs["laplacian"]
    truth = eigs[(eigs >= iv.a) & (eigs <= iv.b)]
    assert report.converged
    assert report.restarts <= 10
    assert report.ritz.values.size == n_ev
    np.testing.assert_allclose(np.sort(report.ritz.values), truth, atol=1e-10 * eigs[-1])


def test_tuned_degree_needs_fewer_restarts(solver_runs):
    tuned = solver_runs["m16_tuned"][0]
    low = solver_runs["m16_low"][0]
    assert tuned.converged and low.converged
    assert tuned.restarts < low.restarts


def test_residual_history_mostly_decreases(solver_runs):
    drops = 0
    transitions = 0
    for report, *_ in solver_runs.values():
        history = [h for h in report.residual_history if np.isfinite(h)]
        for lo, hi in zip(history, history[1:]):
            transitions += 1
            drops += hi < lo
    assert transitions > 0
    assert drops / transitions >= 0.9


def test_mv_ledger_matches_model(solver_runs):
    for report, *_ in solver_runs.values():
        if report.degraded_ranks:
            continue
        per_iter, equivalent = mv_accounting(
            report.degree_used, report.m, report.ell, 1, 1
        )
        assert report.mv_exact == report.restarts * per_iter


def test_one_iteration_on_exact_invariant_start():
    values = np.linspace(-1.0, 1.0, 100)
    a = diag_matrix(values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.1, 0.1)
    inside = np.flatnonzero((values >= -0.1) & (values <= 0.1))
    v0 = np.zeros((100, inside.size))
    for col, idx in enumerate(inside):
        v0[idx, col] = 1.0
    spec = make_filter_spec(iv, d=10, m=1)
    report = run_cjssrr(a, tr, iv, spec, v0, tol=1e-10, n_ev_target=inside.size)
    assert report.converged
    assert report.restarts == 1


def test_mv_accounting_examples():
    per_iter, _ = mv_accounting(100, 4, 10, 1000, 5000)
    assert per_iter == 1040
    _, equivalent = mv_accounting(10, 1, 2, 500, 500)
    assert equivalent == 40.0
    per_iter, equivalent = mv_accounting(433, 16, 22, 12546, 140034)
    total = 5 * (per_iter + equivalent)
    assert total == pytest.approx(119872.4, rel=0.05)


def test_rank_deficient_block_degrades(rng):
    values = np.linspace(-1.0, 1.0, 60)
    a = diag_matrix(values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    n_ev = interval_count(values, -0.2, 0.2)
    v0 = rng.standard_normal((60, 8))
    v0[:, 5] = v0[:, 3]  # deliberately defeat full rank
    spec = make_filter_spec(iv, d=60, m=2)
    report = run_cjssrr(a, tr, iv, spec, v0, tol=1e-10, n_ev_target=n_ev)
    assert report.degraded_ranks
    assert all(rank < 16 for rank in report.degraded_ranks)
    assert report.converged


def test_degraded_ranks_are_the_projected_basis_widths(monkeypatch):
    # The low-degree m = 16 run of the shared fixture sheds rank over restarts.
    # Each degraded_ranks entry must be the width of the basis that restart
    # projected onto, recorded exactly when that width is below m * ell.
    import eigenspan.engine as engine

    widths = []
    project = engine.rayleigh_ritz

    def recording_projection(a, u, *args):
        widths.append(u.shape[1])
        return project(a, u, *args)

    monkeypatch.setattr(engine, "rayleigh_ritz", recording_projection)
    values = np.linspace(-1.0, 1.0, 2000)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.05, 0.05)
    spec = make_filter_spec(iv, d=211, m=16)
    v0 = np.random.default_rng(7).standard_normal((2000, 10))
    report = run_cjssrr(
        diag_matrix(values), tr, iv, spec, v0, tol=1e-4, max_restarts=15,
        n_ev_target=interval_count(values, -0.05, 0.05),
    )
    assert report.degraded_ranks
    assert report.degraded_ranks == [w for w in widths if w < 16 * 10]


def test_solver_requires_target_count(rng):
    values = np.linspace(-1.0, 1.0, 30)
    a = diag_matrix(values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    spec = make_filter_spec(iv, d=20, m=2)
    with pytest.raises(ValueError):
        run_cjssrr(a, tr, iv, spec, rng.standard_normal((30, 4)))


@pytest.mark.parametrize("cols, max_restarts", [(4, 0), (0, 5)])
def test_solver_rejects_no_restarts_and_empty_start_block(rng, cols, max_restarts):
    a = diag_matrix(np.linspace(-1.0, 1.0, 30))
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    spec = make_filter_spec(iv, d=20, m=2)
    with pytest.raises(ValueError):
        run_cjssrr(
            a, tr, iv, spec, rng.standard_normal((30, cols)),
            max_restarts=max_restarts, n_ev_target=5,
        )


@pytest.mark.parametrize("method", ["filter", "contour"])
def test_solvers_reject_a_start_block_wider_than_the_matrix(rng, method):
    # The restart block, QR of the moment block's first ell columns, would have only n.
    a = laplacian_1d(12)
    tr = exact_transform(0.0, 4.0)
    iv = make_interval(tr, 1.9, 2.1)
    v0 = rng.standard_normal((12, 15))
    message = "start block has 15 columns, more than the matrix's 12 rows"
    with pytest.raises(ValueError, match=message):
        if method == "filter":
            run_cjssrr(a, tr, iv, make_filter_spec(iv, d=20, m=2), v0, n_ev_target=1)
        else:
            run_baseline(a, tr, iv, 2, 15, v0, n_ev_target=1)


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_solver_rejects_nonpositive_tolerance(rng, tol):
    a = diag_matrix(np.linspace(-1.0, 1.0, 30))
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    spec = make_filter_spec(iv, d=20, m=2)
    with pytest.raises(ValueError, match="tol > 0"):
        run_cjssrr(a, tr, iv, spec, rng.standard_normal((30, 4)), tol=tol, n_ev_target=5)


@pytest.mark.parametrize("n_ev", [0, -2])
@pytest.mark.parametrize("method", ["filter", "contour"])
def test_solvers_reject_a_target_count_below_one(rng, method, n_ev):
    # Without the check, 0 fails indexing the residual history and -2
    # reports converged with no pairs.
    a = diag_matrix(np.linspace(-1.0, 1.0, 30))
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    v0 = rng.standard_normal((30, 4))
    with pytest.raises(ValueError, match=f"n_ev_target >= 1, got {n_ev}"):
        if method == "filter":
            run_cjssrr(a, tr, iv, make_filter_spec(iv, d=20, m=2), v0, n_ev_target=n_ev)
        else:
            run_baseline(a, tr, iv, 2, 4, v0, n_ev_target=n_ev)


def test_unreachable_tolerance_reports_best_effort(rng):
    values = np.linspace(-1.0, 1.0, 80)
    a = diag_matrix(values)
    tr = exact_transform(-1.0, 1.0)
    iv = make_interval(tr, -0.2, 0.2)
    n_ev = interval_count(values, -0.2, 0.2)
    spec = make_filter_spec(iv, d=40, m=2)
    report = run_cjssrr(
        a, tr, iv, spec, rng.standard_normal((80, 9)), tol=1e-30,
        max_restarts=3, n_ev_target=n_ev,
    )
    assert not report.converged
    assert report.restarts == 3
    assert report.ritz.values.size > 0  # best-effort in-interval pairs
