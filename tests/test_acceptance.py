"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance and runtime budget.

Every test finishes by printing ``CRITERION n: PASS`` (visible under
``pytest -s``); a failure raises before the line is printed, so the verdict
per criterion is always unambiguous.  Criteria 5 and 8 stash their runs in a
module-level ledger that criterion 9 audits against independently
instrumented matrix-application counters.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from eigenspan import (
    MappedOperator,
    SparseSymmetric,
    build_moment_block,
    condition_number,
    estimate_count,
    estimate_spectral_range,
    filter_probe,
    filter_scalar,
    fit_slope,
    kernel_moments,
    make_filter_spec,
    make_interval,
    mapped_interval,
    mv_accounting,
    numerical_rank,
    run_baseline,
    run_cjssrr,
    select_degree,
)

from helpers import laplacian_1d, laplacian_eigs, random_spectrum_matrix, random_symmetric

PI = np.pi

# runs recorded by criteria 5 and 8, audited by criterion 9:
# (label, mv_exact, spy_columns, full_iteration_product or None)
_MV_LEDGER = []


class _SpyCSR:
    """Counts block columns pushed through the wrapped CSR matrix.

    Lives underneath the library's own tally, so the two counts are
    independent measurements of the same applications.
    """

    def __init__(self, csr):
        self.csr = csr
        self.columns = 0

    def __matmul__(self, x):
        self.columns += 1 if np.ndim(x) == 1 else x.shape[1]
        return self.csr @ x

    def diagonal(self):
        return self.csr.diagonal()


def _spy(a):
    spy = _SpyCSR(a._csr)
    a._csr = spy
    return spy


def _diag_matrix(values):
    return SparseSymmetric.from_scipy(sp.diags(np.asarray(values, dtype=np.float64)).tocsr())


# ---------------------------------------------------------------------------


def test_criterion_1_pointwise_decay_orders():
    start = time.perf_counter()
    iv = mapped_interval(-0.2, 0.4)
    degrees = np.unique(np.logspace(2, 4, 25).astype(int))
    cases = [
        (0, -0.6, -3.0),
        (1, -0.6, -3.0),
        (0, 0.1, -3.0),
        (1, 0.1, -2.0),
        (1, -0.2, -1.0),
    ]
    for p_degree, t, expected in cases:
        rows = filter_probe(iv, p_degree, [t], degrees)
        slope = fit_slope([r.d for r in rows], [r.error for r in rows])
        assert abs(slope - expected) <= 0.3, (p_degree, t, slope)
        assert all(r.error <= r.bound for r in rows), (p_degree, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"CRITERION 1: PASS — five decay slopes within ±0.3, bounds never crossed ({elapsed:.1f}s)")


def test_criterion_2_degree_formula_table():
    width = 0.100008
    table = {1: 211, 2: 212, 4: 220, 8: 259, 16: 433}
    for m, expected in table.items():
        assert select_degree(width, m).d == expected, m
    print("CRITERION 2: PASS — degree rule reproduces 211/212/220/259/433 exactly")


def test_criterion_3_kernel_moment_invariants():
    start = time.perf_counter()
    for d in (2, 5, 10, 50, 200):
        assert kernel_moments(d, 0) == pytest.approx(1.0, abs=1e-10)
        assert kernel_moments(d, 1) <= PI**2 / (2 * (d + 2))
        assert kernel_moments(d, 2) <= PI**4 / (4 * (d + 2) ** 2)
        detailed = (0.25 + (d + 1) * PI**2 / (16 * (d + 2) ** 2)) * PI**6 / (d + 2) ** 3
        assert kernel_moments(d, 4) <= detailed
        assert detailed <= PI**6 / (2 * (d + 2) ** 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"CRITERION 3: PASS — kernel moments obey every decay bound, zeroth = 1 ({elapsed:.1f}s)")


def test_criterion_4_block_matches_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    dense = random_symmetric(200, rng)
    a = SparseSymmetric.from_dense(dense)
    tr = estimate_spectral_range(a, steps=50, seed=0)
    iv = make_interval(tr, -0.3, 0.4)
    m, d = 8, 500
    spec = make_filter_spec(iv, d, m)
    v = rng.standard_normal((200, 3))
    block = build_moment_block(MappedOperator(a, tr), v, spec)

    lam, x = np.linalg.eigh(dense)
    lam_t = tr.map(lam)
    oracle = np.hstack(
        [x @ (filter_scalar(spec, k, lam_t)[:, None] * (x.T @ v)) for k in range(m)]
    )
    rel = np.linalg.norm(block - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"CRITERION 4: PASS — moment block matches the dense filter oracle to {rel:.1e} ({elapsed:.1f}s)")


def test_criterion_5_end_to_end_interior_intervals():
    start = time.perf_counter()
    m = 4
    fixtures = []

    ev = np.linspace(-1.0, 1.0, 2000)
    fixtures.append(("diag2000", _diag_matrix(ev), ev,
                     (ev[989] + ev[990]) / 2, (ev[1009] + ev[1010]) / 2))
    lev = laplacian_eigs(1000)
    fixtures.append(("lap1000", laplacian_1d(1000), lev, 1.9, 2.1))

    for label, a, evs, lo, hi in fixtures:
        truth = evs[(evs >= lo) & (evs <= hi)]
        n_ev = truth.size
        spy = _spy(a)
        tr = estimate_spectral_range(a, steps=50, seed=0)
        iv = make_interval(tr, lo, hi)
        ell = int(np.ceil(1.5 * n_ev / m))
        degree = select_degree(iv.width_t, m).d
        spec = make_filter_spec(iv, degree, m)
        v0 = np.random.default_rng(5).standard_normal((a.n, ell))
        before = spy.columns
        rep = run_cjssrr(a, tr, iv, spec, v0, n_ev_target=n_ev)

        assert rep.converged, label
        assert rep.restarts <= 10, (label, rep.restarts)
        values = np.sort(rep.ritz.values)
        assert values.size == n_ev, (label, values.size, n_ev)
        assert np.all(rep.ritz.residual_norms < 1e-10), label
        np.testing.assert_allclose(values, truth, atol=1e-10, err_msg=label)

        per_iter, _ = mv_accounting(degree, m, ell, a.n, a.nnz)
        _MV_LEDGER.append((label, rep.mv_exact, spy.columns - before, per_iter * rep.restarts))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"CRITERION 5: PASS — both fixtures: exactly n_ev pairs, residuals < 1e-10, "
          f"values to 1e-10, ≤ 10 restarts ({elapsed:.1f}s)")


def test_criterion_6_moment_basis_conditioning():
    start = time.perf_counter()
    a = _diag_matrix(np.linspace(-1.0, 1.0, 200))
    tr = estimate_spectral_range(a, steps=50, seed=0)
    iv = make_interval(tr, -0.2, 0.2)
    a_t = MappedOperator(a, tr)
    ell = 2
    v0 = np.random.default_rng(0).standard_normal((200, ell))

    def grid(m, basis):
        degree = select_degree(iv.width_t, m).d
        return build_moment_block(a_t, v0, make_filter_spec(iv, degree, m, basis=basis))

    kappa_cheb_8 = condition_number(grid(8, "chebyshev"))
    kappa_mono_8 = condition_number(grid(8, "monomial"))
    assert kappa_mono_8 >= 1e4 * kappa_cheb_8

    rank_cheb_16 = numerical_rank(grid(16, "chebyshev"))
    rank_mono_16 = numerical_rank(grid(16, "monomial"))
    assert rank_cheb_16 == 16 * ell
    assert rank_mono_16 < 16 * ell
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"CRITERION 6: PASS — power-basis block {kappa_mono_8 / kappa_cheb_8:.1e}x worse "
          f"conditioned at 8 moments and rank-deficient at 16 ({elapsed:.1f}s)")


def test_criterion_7_count_estimator_accuracy():
    start = time.perf_counter()
    spectrum = np.concatenate([
        np.linspace(-2.0, -0.8, 16),
        np.linspace(-0.35, 0.35, 7),
        np.linspace(0.8, 2.0, 17),
    ])
    a = SparseSymmetric.from_dense(random_spectrum_matrix(spectrum, np.random.default_rng(99)))
    tr = estimate_spectral_range(a, steps=40, seed=0)
    iv = make_interval(tr, -0.5, 0.5)
    a_t = MappedOperator(a, tr)
    hits = sum(
        abs(estimate_count(a_t, iv, d=2000, samples=200, seed=seed).n_ev_tilde - 7.0) <= 1.5
        for seed in range(20)
    )
    assert hits >= 19, hits
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"CRITERION 7: PASS — count within ±1.5 of 7 in {hits}/20 seeds ({elapsed:.1f}s)")


def test_criterion_8_interior_interval_speedup():
    start = time.perf_counter()
    ev = np.linspace(-1.0, 1.0, 200)
    a = _diag_matrix(ev)
    lo, hi = (ev[94] + ev[95]) / 2, (ev[104] + ev[105]) / 2
    spy = _spy(a)
    tr = estimate_spectral_range(a, steps=50, seed=0)
    iv = make_interval(tr, lo, hi)
    m, ell = 4, 4
    v0 = np.random.default_rng(11).standard_normal((200, ell))

    degree = select_degree(iv.width_t, m).d
    spec = make_filter_spec(iv, degree, m)
    before = spy.columns
    rep_cj = run_cjssrr(a, tr, iv, spec, v0, n_ev_target=10)
    cj_columns = spy.columns - before
    per_iter, _ = mv_accounting(degree, m, ell, a.n, a.nnz)
    _MV_LEDGER.append(("bench-cj", rep_cj.mv_exact, cj_columns, per_iter * rep_cj.restarts))

    before = spy.columns
    rep_base = run_baseline(a, tr, iv, m, ell, v0, q=16, krylov_tol=1e-12, n_ev_target=10)
    _MV_LEDGER.append(("bench-baseline", rep_base.mv_exact, spy.columns - before, None))

    assert rep_cj.converged and rep_base.converged
    speedup = rep_base.mv_exact / rep_cj.mv_exact
    assert speedup >= 2.0, speedup
    cj_values = np.sort(rep_cj.ritz.values)
    base_values = np.sort(rep_base.ritz.values)
    assert cj_values.size == base_values.size == 10
    np.testing.assert_allclose(cj_values, base_values, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"CRITERION 8: PASS — MV speedup {speedup:.2f} ≥ 2, eigenvalues agree to 1e-9 ({elapsed:.1f}s)")


def test_criterion_9_mv_ledger_audit():
    assert len(_MV_LEDGER) >= 4, "criteria 5 and 8 must record their runs first"
    for label, reported, counted, full_product in _MV_LEDGER:
        assert reported == counted, (label, reported, counted)
        if full_product is not None:
            assert reported == full_product, (label, reported, full_product)
    print(f"CRITERION 9: PASS — {len(_MV_LEDGER)} recorded runs match the independent "
          f"application counters; per-iteration cost formula exact on full iterations")
