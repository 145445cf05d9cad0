"""Command-line front end: solve, count, probe, baseline, bench, conditioning.

Every JSON report is validated against the schema shipped next to this
module before it is written, and runs are fully deterministic for a fixed
seed (the only varying field is ``wall_time_s``).

Exit codes: 0 success/converged, 1 input or configuration error, 2 the
solve finished without reaching the requested tolerance.
"""

import argparse
import json
import math
import sys
import time
from importlib import resources
from typing import NamedTuple

import numpy as np
import jsonschema

from .contour import run_baseline
from .engine import run_cjssrr
from .errors import EigenspanError
from .estimators import estimate_count, recommended_block_size, select_degree
from .dense import _kappa_rank
from .diagnostics import filter_probe, probe_csv
from .filters import BASES, build_moment_block, make_filter_spec
from .sparse import load_matrix_market
from .transform import (
    MappedOperator,
    estimate_spectral_range,
    exact_transform,
    make_interval,
    mapped_interval,
)

SCHEMA_VERSION = "1"


def _load_schema():
    with resources.files("eigenspan").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _auto_or_int(text):
    if text == "auto":
        return "auto"
    return int(text)


def _float_list(text):
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _int_list(text):
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _add_matrix_args(p):
    p.add_argument("--matrix-path", required=True, help="Matrix Market (.mtx) input")
    p.add_argument("--a", type=float, required=True, help="interval lower end (original units)")
    p.add_argument("--b", type=float, required=True, help="interval upper end (original units)")
    p.add_argument(
        "--spectral-bounds",
        default="auto",
        help='"auto" (Lanczos estimate) or "lmin,lmax"',
    )
    p.add_argument("--lanczos-steps", type=int, default=50, help="steps for the auto bounds")
    p.add_argument("--seed", type=int, default=0, help="seed for V0 and the count estimator")


def _add_estimator_args(p, count_default="auto"):
    p.add_argument(
        "--count-degree",
        type=_auto_or_int,
        default=count_default,
        help=f"indicator degree of the count estimator (default {count_default}; "
        '"auto" reuses the filter degree, 2000 for count)',
    )
    p.add_argument("--samples", type=int, default=30, help="probe vectors for the count estimator")


def _add_solver_args(p):
    p.add_argument("--m", type=int, default=4, help="moment count per block")
    p.add_argument("--ell", type=_auto_or_int, default="auto", help='block size or "auto"')
    p.add_argument("--tol", type=float, default=1e-10, help="relative residual tolerance")
    p.add_argument("--max-restarts", type=int, default=30)
    p.add_argument("--report-path", default="-", help='output path, "-" for stdout')


def _add_filter_args(p):
    p.add_argument("--degree", type=_auto_or_int, default="auto", help='filter degree or "auto"')
    p.add_argument("--d", type=float, default=1.0, help="degree-formula accuracy constant")
    p.add_argument("--k", type=float, default=10.0, help="degree-formula width constant")
    p.add_argument("--basis", choices=BASES, default="chebyshev")


def _add_baseline_args(p):
    p.add_argument("--quad-nodes", type=int, default=16, help="contour quadrature node count")
    p.add_argument("--krylov-tol", type=float, default=1e-12, help="shifted-solve tolerance")


def build_parser():
    parser = _Parser(prog="eigenspan", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="find all eigenpairs in [a, b] by the filtered moment method")
    _add_matrix_args(p)
    _add_estimator_args(p)
    _add_solver_args(p)
    _add_filter_args(p)

    p = sub.add_parser("count", help="stochastic estimate of the eigenvalue count in [a, b]")
    _add_matrix_args(p)
    _add_estimator_args(p, count_default=2000)
    p.add_argument("--report-path", default="-")
    p.set_defaults(degree=2000)  # what --count-degree auto means here

    p = sub.add_parser("probe", help="pointwise filter errors and bounds as CSV")
    p.add_argument("--a", type=float, required=True, help="interval lower end (normalized units)")
    p.add_argument("--b", type=float, required=True, help="interval upper end (normalized units)")
    p.add_argument("--p-degree", type=int, required=True, help="degree of the filtered polynomial")
    p.add_argument("--points", type=_float_list, required=True, help="comma-separated t values")
    p.add_argument("--d-min", type=int, default=100)
    p.add_argument("--d-max", type=int, default=10000)
    p.add_argument("--n-degrees", type=int, default=25, help="log-spaced degree count")
    p.add_argument("--out", default="-", help='CSV path, "-" for stdout')

    p = sub.add_parser("baseline", help="contour-integral baseline solve")
    _add_matrix_args(p)
    _add_estimator_args(p)
    _add_solver_args(p)
    _add_baseline_args(p)
    # No polynomial filter runs here; --count-degree auto takes the degree
    # the filtered solver would pick at the default D and K, for comparable
    # estimates.
    p.set_defaults(degree="auto", d=1.0, k=10.0)

    p = sub.add_parser("bench", help="both methods on one V0, with the MV speedup")
    _add_matrix_args(p)
    _add_estimator_args(p)
    _add_solver_args(p)
    _add_filter_args(p)
    _add_baseline_args(p)

    p = sub.add_parser("conditioning", help="basis-by-moment-count conditioning grid as CSV")
    _add_matrix_args(p)
    p.add_argument("--ell", type=int, default=8, help="block size of the probed moment blocks")
    p.add_argument("--m-grid", type=_int_list, default=[2, 4, 8, 16], help="comma-separated moment counts")
    p.add_argument("--degree", type=_auto_or_int, default="auto", help='filter degree or "auto" (per row)')
    p.add_argument("--out", default="-", help='CSV path, "-" for stdout')

    return parser


# ---------------------------------------------------------------------------
# Shared resolution steps


def _resolve_problem(args):
    """Load the matrix, fix the spectral transform, and map the interval."""
    a = load_matrix_market(args.matrix_path)
    if args.spectral_bounds == "auto":
        steps = max(2, min(args.lanczos_steps, a.n))
        tr = estimate_spectral_range(a, steps=steps, seed=args.seed)
    else:
        bounds = _float_list(args.spectral_bounds)
        if len(bounds) != 2:
            raise EigenspanError(
                f"--spectral-bounds expects 'auto' or 'lmin,lmax', got {args.spectral_bounds!r}"
            )
        tr = exact_transform(bounds[0], bounds[1])
    iv = make_interval(tr, args.a, args.b)
    return a, tr, iv


class _Prepared(NamedTuple):
    """What every solve-type command shares before its method runs."""

    a: object
    tr: object
    iv: object
    est: object
    n_ev_target: int
    config: dict
    v0: np.ndarray


def _filter_degree(args, iv):
    """Filter degree: --degree, or the width rule with --d and --k."""
    if args.degree == "auto":
        return select_degree(iv.width_t, args.m, d_factor=args.d, k_factor=args.k).d
    return args.degree


#: Options every count and solve report echoes as given.
_COUNT_ECHO = ("matrix_path", "a", "b", "samples", "seed", "spectral_bounds", "lanczos_steps")


def _count(args):
    """Problem, count estimate and count config echo: the step every counting verb shares.

    --count-degree "auto" means the filter degree of the verb's parser
    (``count`` and ``baseline`` fix theirs with ``set_defaults``).
    """
    a, tr, iv = _resolve_problem(args)
    degree = _filter_degree(args, iv) if args.count_degree == "auto" else args.count_degree
    est = estimate_count(MappedOperator(a, tr), iv, d=degree, samples=args.samples, seed=args.seed)
    config = {key: getattr(args, key) for key in _COUNT_ECHO}
    config["count_degree"] = int(degree)
    return a, tr, iv, est, config


def _prepare(args):
    """The count step plus block size, solver config echo and start block V0.

    ``n_ev_tilde`` carries a +1 head-room term meant for sizing the search
    space, so the block size uses it as-is while the convergence target
    uses the plain trace mean (``n_ev_tilde - 1``), the unbiased estimate of
    the actual count.
    """
    a, tr, iv, est, config = _count(args)
    n_ev_target = max(1, int(round(est.n_ev_tilde - 1.0)))
    ell = recommended_block_size(est.n_ev_tilde, args.m) if args.ell == "auto" else args.ell
    config.update(
        m=args.m, ell=int(ell), tol=args.tol, max_restarts=args.max_restarts,
        n_ev_target=int(n_ev_target),
    )
    v0 = np.random.default_rng(args.seed).standard_normal((a.n, ell))
    return _Prepared(a, tr, iv, est, n_ev_target, config, v0)


def _run_filter(args, p):
    """The filtered moment solve: (report, config echo, seconds of the solve)."""
    degree = _filter_degree(args, p.iv)
    spec = make_filter_spec(p.iv, degree, args.m, basis=args.basis)
    start = time.perf_counter()
    rep = run_cjssrr(
        p.a, p.tr, p.iv, spec, p.v0,
        tol=args.tol, max_restarts=args.max_restarts, n_ev_target=p.n_ev_target,
    )
    config = dict(p.config, degree=int(degree), basis=args.basis)
    return rep, config, time.perf_counter() - start


def _run_contour(args, p):
    """The contour baseline: (report, config echo, seconds of the solve)."""
    start = time.perf_counter()
    rep = run_baseline(
        p.a, p.tr, p.iv, args.m, p.v0.shape[1], p.v0,
        q=args.quad_nodes, krylov_tol=args.krylov_tol, tol=args.tol,
        max_restarts=args.max_restarts, n_ev_target=p.n_ev_target,
    )
    config = dict(p.config, quad_nodes=args.quad_nodes, krylov_tol=args.krylov_tol)
    return rep, config, time.perf_counter() - start


def _count_estimate_json(est):
    return {
        "n_ev_tilde": float(est.n_ev_tilde),
        "samples": int(est.samples),
        "per_sample": [float(x) for x in est.per_sample],
        "seed": int(est.seed),
        "d": int(est.d),
    }


def _solve_report_json(rep, command, config_echo, tr, est, wall_time):
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": config_echo,
        "spectral_range": [float(tr.lambda_min_est), float(tr.lambda_max_est)],
        "degree": int(rep.degree_used),
        "restarts": int(rep.restarts),
        "ritz": [
            {"value": float(v), "residual": float(r)}
            for v, r in zip(rep.ritz.values, rep.ritz.residual_norms)
        ],
        "mv_exact": int(rep.mv_exact),
        "converged": bool(rep.converged),
        "max_residual": _finite_or_none(rep.max_residual),
        "residual_history": [_finite_or_none(h) for h in rep.residual_history],
        "degraded_ranks": [int(r) for r in rep.degraded_ranks],
        "n_ev_target": int(rep.n_ev_target),
        "wall_time_s": wall_time,
    }
    if est is not None:
        body["count_estimate"] = _count_estimate_json(est)
    if rep.shift_stats:
        body["shift_stats"] = [
            {
                "restart": int(e["restart"]),
                "node": [float(e["node"].real), float(e["node"].imag)],
                "mv_count": int(e["stats"].mv_count),
                "iterations": int(e["stats"].iterations),
                "final_relres": float(e["stats"].final_relres),
                "converged": bool(e["stats"].converged),
            }
            for e in rep.shift_stats
        ]
    return body


def _emit_json(report, path):
    jsonschema.validate(report, _load_schema())
    _emit_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def _emit_text(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands


def _solve_one(args, command, run):
    """Prepare, run one method, and emit its report; exit 2 if unconverged."""
    start = time.perf_counter()
    p = _prepare(args)
    rep, config, _ = run(args, p)
    report = _solve_report_json(rep, command, config, p.tr, p.est, time.perf_counter() - start)
    _emit_json(report, args.report_path)
    return 0 if rep.converged else 2


def cmd_count(args):
    start = time.perf_counter()
    _, tr, _, est, config = _count(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "count",
        "config_echo": config,
        "spectral_range": [float(tr.lambda_min_est), float(tr.lambda_max_est)],
        "count_estimate": _count_estimate_json(est),
        "wall_time_s": time.perf_counter() - start,
    }
    _emit_json(report, args.report_path)
    return 0


def cmd_probe(args):
    if not args.points:
        raise ValueError("--points must list at least one t value")
    if args.n_degrees < 1:
        raise ValueError(f"--n-degrees must be >= 1, got {args.n_degrees}")
    if args.d_min < 2:
        raise ValueError(f"--d-min must be >= 2, got {args.d_min}")
    if args.d_max < args.d_min:
        raise ValueError(f"--d-max must be >= --d-min = {args.d_min}, got {args.d_max}")
    iv = mapped_interval(args.a, args.b)
    degrees = np.unique(
        np.logspace(np.log10(args.d_min), np.log10(args.d_max), args.n_degrees).astype(int)
    )
    rows = filter_probe(iv, args.p_degree, args.points, degrees)
    _emit_text(probe_csv(rows), args.out)
    return 0


def cmd_bench(args):
    start = time.perf_counter()
    p = _prepare(args)
    rep_cj, cj_config, cj_time = _run_filter(args, p)
    rep_base, base_config, base_time = _run_contour(args, p)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "config_echo": p.config,
        "cj": _solve_report_json(rep_cj, "solve", cj_config, p.tr, p.est, cj_time),
        "baseline": _solve_report_json(rep_base, "baseline", base_config, p.tr, p.est, base_time),
        "speedup_mv": float(rep_base.mv_exact) / float(rep_cj.mv_exact),
        "wall_time_s": time.perf_counter() - start,
    }
    _emit_json(report, args.report_path)
    return 0 if (rep_cj.converged and rep_base.converged) else 2


def cmd_conditioning(args):
    if args.ell < 1:
        raise ValueError(f"--ell must be >= 1, got {args.ell}")
    if not args.m_grid:
        raise ValueError("--m-grid must list at least one moment count")
    a, tr, iv = _resolve_problem(args)
    rng = np.random.default_rng(args.seed)
    v0 = rng.standard_normal((a.n, args.ell))
    a_t = MappedOperator(a, tr)
    lines = ["basis,M,ell,kappa,rank"]
    for basis in BASES:
        for m in args.m_grid:
            if args.degree == "auto":
                degree = select_degree(iv.width_t, m).d
            else:
                degree = args.degree
            spec = make_filter_spec(iv, degree, m, basis=basis)
            kappa, rank = _kappa_rank(build_moment_block(a_t, v0, spec))
            lines.append(f"{basis},{m},{args.ell},{kappa:.17g},{rank}")
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


COMMANDS = {
    "solve": lambda args: _solve_one(args, "solve", _run_filter),
    "count": cmd_count,
    "probe": cmd_probe,
    "baseline": lambda args: _solve_one(args, "baseline", _run_contour),
    "bench": cmd_bench,
    "conditioning": cmd_conditioning,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (EigenspanError, OSError, ValueError) as exc:
        print(f"eigenspan {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
