"""Command-line front end: solve, count, probe, baseline, bench, conditioning.

The CLI parses arguments and emits reports, and nothing else: the checks,
count, block size, target and start block of a solve are the library's
(``eigenspan.policy``), which the verbs call with their flags.  Every JSON
report is validated against the schema shipped next to this module before
it is written, and runs are fully deterministic for a fixed seed (the only
varying field is ``wall_time_s``).

Exit codes: 0 success/converged, 1 input or configuration error, 2 the
solve finished without reaching the requested tolerance.
"""

import argparse
import functools
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from .dense import _kappa_rank
from .diagnostics import filter_probe, probe_csv
from .engine import check_block_width
from .errors import EigenspanError
from .filters import BASES, build_moment_block, make_filter_spec
from .policy import (
    count_interval,
    filter_degree,
    locate_interval,
    plan_interval,
    run_plan,
    solve_interval,
    start_block,
)
from .sparse import load_matrix_market
from .transform import MappedOperator, mapped_interval

SCHEMA_VERSION = "1"

#: Every keyword of the interval-solve policy with its default: the solve
#: flags are named after these keywords and take their defaults from here.
_POLICY = {**count_interval.__kwdefaults__, **plan_interval.__kwdefaults__}


@functools.cache
def _report_validator():
    # jsonschema is imported here, with the first report: probe and
    # conditioning write none and never load it.
    from jsonschema import Draft202012Validator

    with resources.files("eigenspan").joinpath("report_schema.json").open() as fh:
        return Draft202012Validator(json.load(fh))


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
    p.add_argument("--spectral-bounds", default=_POLICY["bounds"],
                   help='"auto" (Lanczos estimate) or "lmin,lmax"')
    p.add_argument("--lanczos-steps", type=int, default=_POLICY["lanczos_steps"],
                   help="steps for the auto bounds")
    p.add_argument("--seed", type=int, default=_POLICY["seed"],
                   help="seed for V0 and the count estimator")


def _add_estimator_args(p):
    p.add_argument("--count-degree", type=_auto_or_int, default=_POLICY["count_degree"],
                   help='indicator degree of the count estimator (default "auto": the filter '
                   'degree, 2000 for count)')
    p.add_argument("--samples", type=int, default=_POLICY["samples"],
                   help="probe vectors for the count estimator")


def _add_solver_args(p):
    p.add_argument("--m", type=int, default=_POLICY["m"], help="moment count per block")
    p.add_argument("--ell", type=_auto_or_int, default=_POLICY["ell"], help='block size or "auto"')
    p.add_argument("--tol", type=float, default=_POLICY["tol"], help="relative residual tolerance")
    p.add_argument("--max-restarts", type=int, default=_POLICY["max_restarts"])
    p.add_argument("--report-path", default="-", help='output path, "-" for stdout')


def _add_filter_args(p):
    p.add_argument("--degree", type=_auto_or_int, default=_POLICY["degree"],
                   help='filter degree or "auto"')
    p.add_argument("--d", type=float, default=_POLICY["d_factor"], dest="d_factor", metavar="D",
                   help="degree-formula accuracy constant")
    p.add_argument("--k", type=float, default=_POLICY["k_factor"], dest="k_factor", metavar="K",
                   help="degree-formula width constant")
    p.add_argument("--basis", choices=BASES, default=_POLICY["basis"])


def _add_baseline_args(p):
    p.add_argument("--quad-nodes", type=int, default=_POLICY["quad_nodes"],
                   help="contour quadrature node count")
    p.add_argument("--krylov-tol", type=float, default=_POLICY["krylov_tol"],
                   help="shifted-solve tolerance")


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
    _add_estimator_args(p)
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
    p.add_argument("--degree", type=_auto_or_int, default=_POLICY["degree"],
                   help='filter degree or "auto" (per row)')
    p.add_argument("--out", default="-", help='CSV path, "-" for stdout')

    return parser


# ---------------------------------------------------------------------------
# From flags to the policy's arguments, and back to the config echo


def _load(args):
    """Parse the flags that need no matrix, then load it: (matrix, policy keywords)."""
    if args.lanczos_steps < 2:
        raise ValueError(f"--lanczos-steps must be >= 2, got {args.lanczos_steps}")
    bounds = args.spectral_bounds
    if bounds != "auto":
        try:
            lmin, lmax = _float_list(bounds)  # ValueError unless two numbers
        except ValueError:
            raise EigenspanError(
                f"--spectral-bounds expects 'auto' or 'lmin,lmax', got {args.spectral_bounds!r}"
            ) from None
        bounds = [lmin, lmax]
    options = {key: getattr(args, key) for key in _POLICY if key in args}
    return load_matrix_market(args.matrix_path), dict(options, bounds=bounds)


#: The config echo: the count's flags as given, then the plan of a solve and of its method.
_COUNT_ECHO = ("matrix_path", "a", "b", "samples", "seed", "spectral_bounds", "lanczos_steps")
_PLAN_ECHO = {None: ("m", "ell", "tol", "max_restarts", "n_ev_target"),
              "cj": ("degree", "basis"), "contour": ("quad_nodes", "krylov_tol")}


def _config(args, est, plan=None, method=None):
    config = {key: getattr(args, key) for key in _COUNT_ECHO}
    config["count_degree"] = est.d
    if plan is not None:
        keys = _PLAN_ECHO[None] + _PLAN_ECHO.get(method, ())
        config.update((key, getattr(plan, key)) for key in keys)
    return config


def _count_report_json(command, config_echo, tr, est, wall_time):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_echo": config_echo,
        "spectral_range": [float(tr.lambda_min_est), float(tr.lambda_max_est)],
        "count_estimate": {
            "n_ev_tilde": float(est.n_ev_tilde),
            "samples": int(est.samples),
            "per_sample": [float(x) for x in est.per_sample],
            "seed": int(est.seed),
            "d": int(est.d),
            "mv_exact": int(est.mv_exact),
        },
        "wall_time_s": wall_time,
    }


def _solve_report_json(rep, command, config_echo, tr, est, wall_time):
    body = _count_report_json(command, config_echo, tr, est, wall_time)
    body.update({
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
    })
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
    _report_validator().validate(report)
    _emit_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def _emit_text(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands


def _solve_one(args, method):
    """Solve with one method and emit its report; exit 2 if unconverged."""
    start = time.perf_counter()
    a, options = _load(args)
    rep, est, plan = solve_interval(a, args.a, args.b, method=method, **options)
    report = _solve_report_json(rep, args.command, _config(args, est, plan, method),
                                plan.transform, est, time.perf_counter() - start)
    _emit_json(report, args.report_path)
    return 0 if rep.converged else 2


def cmd_count(args):
    start = time.perf_counter()
    a, options = _load(args)
    tr, _, _, est = count_interval(a, args.a, args.b, **options)
    report = _count_report_json("count", _config(args, est), tr, est, time.perf_counter() - start)
    _emit_json(report, args.report_path)
    return 0


def cmd_probe(args):
    if not args.points:
        raise ValueError("--points must list at least one t value")
    for flag, value, least in (("--p-degree", args.p_degree, 0), ("--n-degrees", args.n_degrees, 1),
                               ("--d-min", args.d_min, 2)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    if args.d_max < args.d_min:
        raise ValueError(f"--d-max must be >= --d-min = {args.d_min}, got {args.d_max}")
    iv = mapped_interval(args.a, args.b)
    # 10**log10(d) can land just below the integer d: round up by 1e-12
    # relative before the floor, so both ends of the range stay in the grid.
    grid = np.logspace(np.log10(args.d_min), np.log10(args.d_max), args.n_degrees)
    degrees = np.unique(np.clip(np.floor(grid * (1 + 1e-12)), args.d_min, args.d_max).astype(int))
    rows = filter_probe(iv, args.p_degree, args.points, degrees)
    _emit_text(probe_csv(rows), args.out)
    return 0


def cmd_bench(args):
    start = time.perf_counter()
    a, options = _load(args)
    plan, est = plan_interval(a, args.a, args.b, **options)
    report = {"schema_version": SCHEMA_VERSION, "command": "bench",
              "config_echo": _config(args, est, plan)}
    for key, method, command in (("cj", "cj", "solve"), ("baseline", "contour", "baseline")):
        run_start = time.perf_counter()
        rep = run_plan(a, plan, method)
        report[key] = _solve_report_json(rep, command, _config(args, est, plan, method),
                                         plan.transform, est, time.perf_counter() - run_start)
    cj, base = report["cj"], report["baseline"]
    report["speedup_mv"] = float(base["mv_exact"]) / float(cj["mv_exact"])
    report["wall_time_s"] = time.perf_counter() - start
    _emit_json(report, args.report_path)
    return 0 if (cj["converged"] and base["converged"]) else 2


def cmd_conditioning(args):
    if args.ell < 1:
        raise ValueError(f"--ell must be >= 1, got {args.ell}")
    if not args.m_grid:
        raise ValueError("--m-grid must list at least one moment count")
    a, options = _load(args)
    tr, iv = locate_interval(a, args.a, args.b, options["bounds"], args.lanczos_steps, args.seed)
    check_block_width(a.n, args.ell)
    v0 = start_block(a.n, args.ell, args.seed)
    a_t = MappedOperator(a, tr)
    lines = ["basis,M,ell,kappa,rank"]
    for basis in BASES:
        for m in args.m_grid:
            spec = make_filter_spec(iv, filter_degree(iv, m, args.degree), m, basis=basis)
            kappa, rank = _kappa_rank(build_moment_block(a_t, v0, spec))
            lines.append(f"{basis},{m},{args.ell},{kappa:.17g},{rank}")
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


COMMANDS = {
    "solve": lambda args: _solve_one(args, "cj"),
    "count": cmd_count,
    "probe": cmd_probe,
    "baseline": lambda args: _solve_one(args, "contour"),
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
