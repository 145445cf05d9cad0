"""The four benchmark workloads: their inputs, the op each runs, and its gate.

Every matrix is a Dirichlet Laplacian, so the exact spectrum is known:
2 - 2 cos(k pi / (n + 1)) in 1-D and sums of two such values on a grid.  The
program sees only the generated matrix file, the interval and the seeded start
blocks; the analytic spectrum stays here, in the gate.

Why each workload exists is written down in NOTES.md next to this file.
"""

import json
import math

import numpy as np

TOL = 1e-10  # residual tolerance of every solve
EIG_ATOL = 1e-10  # returned eigenvalues against the analytic spectrum
AGREE_ATOL = 1e-9  # filter solver against the contour baseline
LANCZOS_STEPS = 50
COUNT_SAMPLES = 30

WORKLOADS = {
    "solve-lap2d-narrow": {
        "kind": "solve", "inputs": 3, "grid": 44, "a": 0.5, "b": 0.6, "m": 4,
        "bounds": [0.0, 8.0],  # Gershgorin: diagonal 4, off-diagonal row sums 4
    },
    "bench-lap1d-contour": {
        # n = 300 and ell = 6, not 1000 and 12: see "Known defects" and
        # "Noise" in NOTES.md.
        "kind": "bench", "inputs": 4, "n": 300, "a": 1.9, "b": 2.1, "m": 4, "ell": 6,
        "q": 16, "krylov_tol": 1e-12,
    },
    "count-lap2d-10k-cli": {
        "kind": "count", "inputs": 1, "grid": 100, "a": 0.5, "b": 1.0, "count_degree": 300,
    },
    "probe-coeffs": {
        "kind": "probe", "inputs": 4, "p_degrees": [0, 1, 2, 3], "d_min": 100, "d_max": 10000,
        "n_degrees": 25, "n_points": 8,
    },
}


# ---------------------------------------------------------------------------
# Inputs (benchmark side)


def lap1d_eigs(n):
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(k * math.pi / (n + 1))


def analytic_spectrum(w):
    if "n" in w:
        return np.sort(lap1d_eigs(w["n"]))
    mu = lap1d_eigs(w["grid"])
    return np.sort((mu[:, None] + mu[None, :]).ravel())


def analytic_in_interval(w):
    ev = analytic_spectrum(w)
    return ev[(ev >= w["a"]) & (ev <= w["b"])]


def laplacian_mtx(w):
    """Matrix Market text of the workload's Laplacian, lower triangle stored."""
    if "n" in w:
        n = w["n"]
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[1:]])
        cols = np.concatenate([idx, idx[:-1]])
        vals = np.concatenate([np.full(n, 2), np.full(n - 1, -1)])
    else:
        k = w["grid"]
        n = k * k
        p = np.arange(n)
        west = p[p % k > 0]
        north = p[p >= k]
        rows = np.concatenate([p, west, north])
        cols = np.concatenate([p, west - 1, north - k])
        vals = np.concatenate([np.full(n, 4), np.full(west.size + north.size, -1)])
    body = "\n".join(f"{r + 1} {c + 1} {v}" for r, c, v in zip(rows, cols, vals))
    return f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {rows.size}\n{body}\n"


# ---------------------------------------------------------------------------
# Ops (run inside the op process, after eigenspan is imported)


def run_op(es, cli, w, a, seed, k, report_path):
    """Run input ``k`` (made from ``seed``) once; return the raw outcome as plain data."""
    kind = w["kind"]
    if kind == "probe":
        return _probe(es, w, seed, k)
    if kind == "count":
        argv = [
            "count", "--matrix-path", w["matrix_path"], "--a", repr(w["a"]), "--b", repr(w["b"]),
            "--count-degree", str(w["count_degree"]), "--samples", str(COUNT_SAMPLES),
            "--seed", str(seed), "--report-path", report_path,
        ]
        return {"exit_code": cli.main(argv)}

    # solve and bench follow cmd_solve / cmd_bench, with the analytic pair
    # count passed in as n_ev_target.  Solve passes the Gershgorin bounds, as
    # --spectral-bounds does, instead of the Lanczos estimate (see "Known
    # defects" in NOTES.md).
    n_true = int(w["n_true"])
    if "bounds" in w:
        tr = es.exact_transform(*w["bounds"])
    else:
        tr = es.estimate_spectral_range(a, steps=min(LANCZOS_STEPS, a.n), seed=seed)
    iv = es.make_interval(tr, w["a"], w["b"])
    degree = es.select_degree(iv.width_t, w["m"]).d
    est = es.estimate_count(es.MappedOperator(a, tr), iv, d=degree, samples=COUNT_SAMPLES, seed=seed)
    ell = w.get("ell") or es.recommended_block_size(est.n_ev_tilde, w["m"])
    spec = es.make_filter_spec(iv, degree, w["m"])
    v0 = np.random.default_rng(seed).standard_normal((a.n, ell))
    out = {"n_ev_tilde": est.n_ev_tilde, "ell": int(ell), "degree": int(degree)}
    out["cj"] = es.run_cjssrr(a, tr, iv, spec, v0, tol=TOL, n_ev_target=n_true)
    if kind == "bench":
        out["base"] = es.run_baseline(
            a, tr, iv, w["m"], ell, v0, q=w["q"], krylov_tol=w["krylov_tol"], tol=TOL,
            n_ev_target=n_true,
        )
    return out


def _probe(es, w, seed, k):
    """filter_probe for p-degree k on one seeded random interval."""
    rng = np.random.default_rng(seed)
    degrees = np.unique(
        np.logspace(math.log10(w["d_min"]), math.log10(w["d_max"]), w["n_degrees"]).astype(int)
    )
    width = rng.uniform(0.05, 0.4)
    lo = rng.uniform(-0.9, 0.9 - width)
    iv = es.mapped_interval(lo, lo + width)
    points = np.concatenate([[iv.a_t, iv.b_t], rng.uniform(-1.0, 1.0, w["n_points"] - 2)])
    return {"rows": es.filter_probe(iv, w["p_degrees"][k], points, degrees)}


def summarize(w, raw, report_path):
    """Reduce an op's raw outcome to the JSON-safe fields the gate reads."""
    kind = w["kind"]
    if kind == "probe":
        err = np.array([r.error for r in raw["rows"]])
        bound = np.array([r.bound for r in raw["rows"]])
        finite = np.isfinite(err) & np.isfinite(bound)
        return {
            "rows": int(err.size),
            "finite": int(finite.sum()),
            "within": int((finite & (err <= bound)).sum()),
        }
    if kind == "count":
        out = {"exit_code": int(raw["exit_code"]), "n_ev_tilde": None}
        if raw["exit_code"] == 0:
            with open(report_path) as fh:
                out["n_ev_tilde"] = json.load(fh)["count_estimate"]["n_ev_tilde"]
        return out
    out = {k: raw[k] for k in ("n_ev_tilde", "ell", "degree")}
    for key in ("cj", "base"):
        if key in raw:
            out[key] = _report(raw[key])
    return out


def _report(rep):
    stats = [e["stats"] for e in rep.shift_stats]
    return {
        "converged": bool(rep.converged),
        "values": [float(v) for v in rep.ritz.values],
        "residuals": [float(r) for r in rep.ritz.residual_norms],
        "mv_exact": int(rep.mv_exact),
        "restarts": int(rep.restarts),
        "m": int(rep.m),
        "ell": int(rep.ell),
        "krylov_iters": int(sum(s.iterations for s in stats)),
        "shifts": len(stats),
        "shifts_converged": int(sum(bool(s.converged) for s in stats)),
    }


# ---------------------------------------------------------------------------
# Correctness gate (benchmark side)


def gate(w, res):
    """Reasons the op's result is wrong; an empty list means it passed."""
    kind = w["kind"]
    if kind == "probe":
        bad = []
        if res["finite"] != res["rows"]:
            bad.append(f"{res['rows'] - res['finite']} probe rows not finite")
        if res["within"] != res["finite"]:
            bad.append(f"{res['finite'] - res['within']} probe rows exceed their bound")
        return bad
    if kind == "count":
        if res["exit_code"] != 0:
            return [f"count CLI exited {res['exit_code']}"]
        if res["n_ev_tilde"] is None or not math.isfinite(res["n_ev_tilde"]):
            return ["count estimate is not finite"]
        return []
    truth = analytic_in_interval(w)
    bad = _check_pairs("filter solver", res["cj"], truth)
    if kind == "bench":
        bad += _check_pairs("baseline", res["base"], truth)
        cj, base = np.sort(res["cj"]["values"]), np.sort(res["base"]["values"])
        if cj.size == base.size and cj.size and np.max(np.abs(cj - base)) > AGREE_ATOL:
            bad.append(f"methods disagree by {np.max(np.abs(cj - base)):.2e}")
    return bad


def _check_pairs(label, rep, truth):
    bad = []
    values = np.sort(rep["values"])
    if not rep["converged"]:
        bad.append(f"{label} did not converge in {rep['restarts']} restarts")
    if values.size != truth.size:
        bad.append(f"{label} returned {values.size} pairs, analytic count is {truth.size}")
    elif values.size and np.max(np.abs(values - truth)) > EIG_ATOL:
        bad.append(f"{label} eigenvalues off by {np.max(np.abs(values - truth)):.2e}")
    if rep["residuals"] and max(rep["residuals"]) >= TOL:
        bad.append(f"{label} residual {max(rep['residuals']):.2e} >= {TOL}")
    return bad


def corrupt(w, res):
    """A copy of a passing result with one deliberate error, for the gate self-check."""
    res = json.loads(json.dumps(res))
    kind = w["kind"]
    if kind == "probe":
        res["within"] -= 1
    elif kind == "count":
        res["n_ev_tilde"] = float("nan")
    else:
        rep = res["base" if kind == "bench" else "cj"]
        rep["values"].pop()
        rep["residuals"].pop()
    return res


# ---------------------------------------------------------------------------
# Figures derived from one op


def describe(res):
    """One-line summary of the work an op did."""
    if "rows" in res:
        return f"{res['rows']} probe rows"
    if "cj" not in res:
        return f"n_ev_tilde {res['n_ev_tilde']}"
    text = f"ell {res['ell']}  restarts {res['cj']['restarts']}  mv {res['cj']['mv_exact']}"
    if "base" in res:
        text += f"  baseline restarts {res['base']['restarts']}  mv {res['base']['mv_exact']}"
    return text


def count_abs_err(w, res):
    """|n_ev_tilde - 1 - analytic count|, or None where no estimate is made."""
    if res.get("n_ev_tilde") is None:
        return None
    return abs(res["n_ev_tilde"] - 1.0 - analytic_in_interval(w).size)


def mv_exact(res):
    return res["cj"]["mv_exact"] if "cj" in res else None


def mv_speedup(res):
    if "base" not in res:
        return None
    return res["base"]["mv_exact"] / res["cj"]["mv_exact"]
