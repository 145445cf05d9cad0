"""Tests for the contour-integral moment baseline."""

import numpy as np
import pytest

from eigenspan import (
    MVCounter,
    SparseSymmetric,
    exact_transform,
    make_filter_spec,
    make_interval,
    rational_filter_value,
    run_baseline,
    run_cjssrr,
    select_degree,
    shifted_krylov_solve,
    trapezoid_rule,
)

from helpers import ColumnSpy, laplacian_1d, random_symmetric


# ---------------------------------------------------------------------------
# Quadrature rule


@pytest.fixture(scope="module")
def diag_problem():
    """Diagonal fixture with ten eigenvalues in an interior interval."""
    tr = exact_transform(-1.0, 1.0)
    ev = np.linspace(-1.0, 1.0, 200)
    a_edge = (ev[94] + ev[95]) / 2
    b_edge = (ev[104] + ev[105]) / 2
    iv = make_interval(tr, a_edge, b_edge)
    a = SparseSymmetric.from_dense(np.diag(ev))
    rng = np.random.default_rng(11)
    v0 = rng.standard_normal((200, 4))
    truth = ev[(ev >= iv.a) & (ev <= iv.b)]
    return {"tr": tr, "iv": iv, "a": a, "ev": ev, "v0": v0, "truth": truth}


@pytest.fixture(scope="module")
def rule(diag_problem):
    return trapezoid_rule(diag_problem["iv"], 16)


def test_quadrature_nodes_on_circle(rule):
    dev = np.abs(np.abs(rule.nodes - rule.center) - rule.radius)
    assert dev.max() <= 1e-14


def test_quadrature_node_phases_are_midpoints(rule):
    theta = (2.0 * np.arange(1, 17) - 1.0) * np.pi / 16
    expected = rule.center + rule.radius * np.exp(1j * theta)
    np.testing.assert_allclose(rule.nodes, expected, atol=1e-15)
    assert np.abs(rule.nodes.imag).min() > 0.0


def test_quadrature_closed_under_conjugation(rule):
    # Every conjugated node must coincide with some node of the rule.
    dist = np.abs(np.conj(rule.nodes)[:, None] - rule.nodes[None, :])
    assert dist.min(axis=1).max() <= 1e-14


def test_quadrature_weights(rule):
    np.testing.assert_allclose(rule.weights, (rule.nodes - rule.center) / 16, atol=1e-16)


def test_quadrature_upper_half_indices(rule):
    upper = rule.upper_half
    assert upper.size == 8
    assert np.all(rule.nodes[upper].imag > 0.0)


def test_quadrature_rejects_bad_node_counts(diag_problem):
    with pytest.raises(ValueError):
        trapezoid_rule(diag_problem["iv"], 15)
    with pytest.raises(ValueError):
        trapezoid_rule(diag_problem["iv"], 2)
    assert trapezoid_rule(diag_problem["iv"], 4).q == 4


def test_rational_filter_matches_closed_form(rule):
    # For midpoint nodes the filter sum collapses to 1 / (s^q + 1) with
    # s the position relative to the circle, covering the pole-at-center,
    # deep-inside, and far-outside cases in one oracle.
    for s in (0.0, 0.3 + 0.2j, 0.9, 1.5, -2.0):
        t = rule.center + rule.radius * np.asarray(s)
        direct = rational_filter_value(rule, t)
        closed = 1.0 / (np.asarray(s) ** 16 + 1.0)
        assert direct == pytest.approx(closed, rel=1e-12, abs=1e-15)


def test_rational_filter_pole_at_center_is_one(rule):
    assert rational_filter_value(rule, rule.center) == pytest.approx(1.0, abs=1e-15)


def test_first_moment_reproduces_the_pole_location(rule):
    t = rule.center + 0.4 * rule.radius
    moment = np.sum(rule.weights * rule.nodes / (rule.nodes - t))
    s = 0.4
    assert moment == pytest.approx(t / (s**16 + 1.0), rel=1e-12)
    assert abs(moment - t) <= abs(t) * s**16 / (1 - s**16) + 1e-15


# ---------------------------------------------------------------------------
# Shifted short-recurrence solver


def test_shifted_solve_identity_one_iteration():
    a = SparseSymmetric.from_dense(np.eye(8))
    b = np.random.default_rng(0).standard_normal((8, 3))
    x, stats = shifted_krylov_solve(a, 2.0 + 1.0j, b)
    np.testing.assert_allclose(x, b / (1.0 + 1.0j), atol=1e-14)
    assert len(stats) == 3
    for col in stats:
        assert col.iterations == 1
        assert col.converged
        assert col.final_relres <= 1e-12


def test_shifted_solve_matches_dense_solve(rng):
    dense = random_symmetric(100, rng)
    a = SparseSymmetric.from_dense(dense)
    b = rng.standard_normal((100, 2))
    z = 0.3 + 0.7j
    tol = 1e-12
    x, stats = shifted_krylov_solve(a, z, b, tol=tol)
    reference = np.linalg.solve(z * np.eye(100) - dense, b)
    assert all(col.converged for col in stats)
    assert max(col.final_relres for col in stats) <= tol
    assert np.abs(x - reference).max() <= 10 * tol * np.abs(reference).max()


def test_shifted_solve_interior_shift_is_harder(rng):
    # A shift whose real part falls inside the spectrum makes the system
    # indefinite and costs strictly more iterations than an edge shift.
    a = SparseSymmetric.from_dense(np.diag(np.linspace(-1, 1, 200)))
    b = rng.standard_normal((200, 1))
    _, (interior,) = shifted_krylov_solve(a, 0.0 + 0.1j, b, tol=1e-12)
    _, (edge,) = shifted_krylov_solve(a, 1.0 + 0.1j, b, tol=1e-12)
    assert interior.converged and edge.converged
    assert interior.iterations > edge.iterations


def test_shifted_solve_reports_nonconvergence_at_maxit(rng):
    a = SparseSymmetric.from_dense(np.diag(np.linspace(-1, 1, 200)))
    b = rng.standard_normal((200, 1))
    _, (stats,) = shifted_krylov_solve(a, 0.0 + 0.001j, b, tol=1e-14, maxit=5)
    assert not stats.converged
    assert stats.iterations == 5
    assert stats.mv_count == 5
    assert stats.final_relres > 1e-14


def test_shifted_solve_rejects_real_shift():
    a = SparseSymmetric.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        shifted_krylov_solve(a, complex(2.0, 0.0), np.ones((4, 1)))


def test_shifted_solve_rejects_nonpositive_tolerance():
    a = SparseSymmetric.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match="tol must be > 0"):
        shifted_krylov_solve(a, 0.5 + 0.5j, np.ones((4, 1)), tol=0.0)


def test_shifted_solve_counts_applications(rng):
    # A column is billed one matrix application per iteration.
    a = SparseSymmetric.from_dense(np.diag(np.linspace(-1, 1, 40)))
    b = rng.standard_normal((40, 2))
    _, stats = shifted_krylov_solve(a, 0.1 + 0.4j, b)
    for col in stats:
        assert col.iterations > 0
        assert col.mv_count == col.iterations


def test_scalar_shift_equals_one_equal_shift_per_column(rng):
    a = laplacian_1d(60)
    b = rng.standard_normal((60, 3))
    z = 1.0 + 0.3j
    x_scalar, stats_scalar = shifted_krylov_solve(a, z, b)
    x_cols, stats_cols = shifted_krylov_solve(a, np.full(3, z), b)
    assert np.array_equal(x_scalar, x_cols)
    assert stats_scalar == stats_cols


def _cocg_one_column(a, z, rhs, tol, maxit):
    """One-column COCG in its textbook form: the reference.

    The next step's product is formed only when another step may follow, so
    a column is billed one product per iteration.
    """
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(rhs.shape, dtype=np.complex128), 0, 0.0, True, 0
    x = np.zeros(rhs.shape, dtype=np.complex128)
    r = rhs.astype(np.complex128)
    ar = z * r - a._csr @ r
    mvs = 1
    rar = r @ ar
    p, ap = r.copy(), ar.copy()
    iters, relres, converged = 0, 1.0, False
    for iters in range(1, maxit + 1):
        denom = ap @ ap
        if denom == 0.0 or rar == 0.0:
            break
        alpha = rar / denom
        x += alpha * p
        r -= alpha * ap
        relres = np.linalg.norm(r) / bnorm
        if relres <= tol:
            converged = True
            break
        if iters == maxit:
            break
        ar = z * r - a._csr @ r
        mvs += 1
        rar_next = r @ ar
        beta = rar_next / rar
        rar = rar_next
        p = r + beta * p
        ap = ar + beta * ap
    return x, iters, relres, converged, mvs


def test_blocked_solve_matches_one_column_cocg_per_column(rng):
    n = 120
    a = laplacian_1d(n)
    eigvec = np.sin(3 * np.pi * np.arange(1, n + 1) / (n + 1))
    b = rng.standard_normal((n, 6))
    b[:, 2] = 0.0  # no work, no matrix application
    b[:, 3] = eigvec  # one step: (z I - A) v = (z - lambda) v
    # Column 4's shift sits inside the spectrum [0, 4] next to the real axis:
    # it needs more than maxit steps, every other nonzero column fewer.
    shifts = np.array([-1.0 + 0.5j, 4.5 + 0.7j, 1.0 + 1.0j, 2.0 + 0.5j, 2.0 + 0.01j, 5.0 + 1.0j])
    tol, maxit = 1e-12, 80
    spy = ColumnSpy(a._csr)
    a._csr = spy
    counter = MVCounter()
    x, stats = shifted_krylov_solve(a, shifts, b, tol=tol, maxit=maxit, counter=counter)
    a._csr = spy.csr

    assert len(stats) == 6
    assert spy.columns == sum(s.mv_count for s in stats)
    assert counter.count == spy.columns
    for col, z in enumerate(shifts):
        xc, iters, relres, converged, mvs = _cocg_one_column(a, z, b[:, col], tol, maxit)
        got = stats[col]
        assert (got.iterations, got.converged, got.mv_count) == (iters, converged, mvs), col
        assert got.mv_count == got.iterations, col
        assert got.final_relres == pytest.approx(relres, rel=1e-6, abs=1e-15)
        assert np.linalg.norm(x[:, col] - xc) <= 1e-12 * max(np.linalg.norm(xc), 1e-300), col
    assert stats[2].iterations == 0 and stats[2].mv_count == 0 and np.all(x[:, 2] == 0)
    assert stats[3].iterations == 1 and stats[3].converged
    assert stats[4].iterations == maxit and not stats[4].converged
    assert stats[4].mv_count == maxit
    assert sum(s.converged for s in stats) == 5


# ---------------------------------------------------------------------------
# Half-solve conjugation and rational-filter consistency


def test_moment_assembly_half_equals_full(diag_problem, rule):
    # Assembling from the upper-half solves plus conjugate folding must
    # equal the full-contour sum (real part) to solver accuracy.
    a, v0 = diag_problem["a"], diag_problem["v0"]
    full = np.zeros((200, 8), dtype=np.complex128)
    half = np.zeros((200, 8))
    for j, (z, w) in enumerate(zip(rule.nodes, rule.weights)):
        x, stats = shifted_krylov_solve(a, z, v0, tol=1e-13)
        assert all(col.converged for col in stats)
        for k in range(2):
            coeff = w * z**k
            full[:, 4 * k : 4 * (k + 1)] += coeff * x
            if z.imag > 0.0:
                half[:, 4 * k : 4 * (k + 1)] += 2.0 * (
                    coeff.real * x.real - coeff.imag * x.imag
                )
    assert np.abs(full.imag).max() <= 1e-10
    np.testing.assert_allclose(half, full.real, atol=1e-10)


def test_zeroth_moment_is_rational_filter_on_diagonal(diag_problem, rule):
    # On a diagonal matrix each shifted solve is exact row scaling, so the
    # zeroth moment block is the rational filter applied entrywise.
    ev, v0 = diag_problem["ev"], diag_problem["v0"]
    s0 = np.zeros((200, 4))
    for z, w in zip(rule.nodes, rule.weights):
        x = v0 / (z - ev)[:, None]
        s0 += (w * x).real
    expected = rational_filter_value(rule, ev).real[:, None] * v0
    np.testing.assert_allclose(s0, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# Restarted baseline solver


@pytest.fixture(scope="module")
def baseline_run(diag_problem):
    p = diag_problem
    return run_baseline(
        p["a"], p["tr"], p["iv"], 4, 4, p["v0"],
        q=16, krylov_tol=1e-12, tol=1e-10, n_ev_target=10,
    )


@pytest.fixture(scope="module")
def filter_run(diag_problem):
    p = diag_problem
    d = select_degree(p["iv"].width_t, 4).d
    spec = make_filter_spec(p["iv"], d, 4)
    return run_cjssrr(p["a"], p["tr"], p["iv"], spec, p["v0"], tol=1e-10, n_ev_target=10)


def test_baseline_converges_to_the_band(diag_problem, baseline_run):
    rep = baseline_run
    assert rep.converged
    assert rep.ritz.values.size == diag_problem["truth"].size
    np.testing.assert_allclose(np.sort(rep.ritz.values), diag_problem["truth"], atol=1e-9)
    assert rep.ritz.residual_norms.max() < 1e-10


def test_baseline_agrees_with_filter_solver(baseline_run, filter_run):
    assert baseline_run.converged and filter_run.converged
    np.testing.assert_allclose(
        np.sort(baseline_run.ritz.values), np.sort(filter_run.ritz.values), atol=1e-9
    )


def test_baseline_needs_more_matrix_applications(baseline_run, filter_run):
    # Interior intervals make the shifted systems indefinite and slow; the
    # polynomial filter wins by at least 2x in true applications.
    assert baseline_run.mv_exact / filter_run.mv_exact >= 2.0


def test_baseline_reports_per_shift_stats(baseline_run):
    rep = baseline_run
    assert len(rep.shift_stats) == rep.restarts * 8
    for entry in rep.shift_stats:
        assert entry["node"].imag > 0.0
        assert entry["stats"].converged
        assert entry["stats"].final_relres <= 1e-12
    solve_mvs = sum(e["stats"].mv_count for e in rep.shift_stats)
    assert solve_mvs < rep.mv_exact <= solve_mvs + rep.restarts * 16
    assert rep.degree_used == 0


def test_baseline_more_moments_cost_fewer_applications(diag_problem):
    # Extra moment blocks reuse the same shifted solves, so a larger
    # subspace converges in fewer restarts and fewer total applications.
    p = diag_problem
    rng = np.random.default_rng(23)
    v0 = rng.standard_normal((200, 3))
    narrow = run_baseline(
        p["a"], p["tr"], p["iv"], 4, 3, v0,
        q=16, krylov_tol=1e-12, tol=1e-10, n_ev_target=10,
    )
    wide = run_baseline(
        p["a"], p["tr"], p["iv"], 8, 3, v0,
        q=16, krylov_tol=1e-12, tol=1e-10, n_ev_target=10,
    )
    assert narrow.converged and wide.converged
    assert wide.mv_exact < narrow.mv_exact
    assert wide.restarts <= narrow.restarts


def test_baseline_validates_inputs(diag_problem):
    p = diag_problem
    with pytest.raises(ValueError):
        run_baseline(p["a"], p["tr"], p["iv"], 4, 4, p["v0"], n_ev_target=None)
    with pytest.raises(ValueError):
        run_baseline(p["a"], p["tr"], p["iv"], 4, 5, p["v0"], n_ev_target=10)
