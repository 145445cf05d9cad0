"""Interval-solve benchmark for eigenspan.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 28 --trace 0

Each run times SETUP_REPS fresh processes that import eigenspan and load the
workload's matrix (setup_s), half before the ops and half after.  The ops run
in a closed loop with one client: one op at a time in one worker process
(op.py), with BLAS pinned to one thread and the package's caches cleared
before each op.  Op i runs input i mod k, where the workload's k inputs are
generated from --seed, so each input runs several times across the run.
The machine is shared, and its other load slows the ops for seconds to
minutes at a time, so every op and every set-up is timed next to a fixed
reference kernel (reference.py) and read at reference speed: solution_s and
setup_s are medians of those readings.  Every op goes through the
workload's correctness gate; failed ops are counted, never dropped.  The program sees only the matrix file, the interval and the seeded
start blocks.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 each op runs twice, traced and untraced, and the last line holds
the per-layer metrics, the tracing overhead and the trace checks.  NOTES.md
explains the workloads and which layer metric should move which end-to-end
metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from op import BLAS_THREAD_VARS

# The reference kernel runs in this process too, and every child inherits
# this environment, so BLAS is pinned here before numpy is first imported.
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_COVERAGE = 0.95  # layer self-times must cover this share of op wall time
SETUP_REPS = 8  # fresh processes timed for setup_s in every run
MAX_OPS = 1000  # the time budget ends the worker long before this

END_TO_END = {"solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics on the workloads where they apply;
# the per-layer set carries them too (see NOTES.md).
OP_FIGURES = {"mv_exact": "count", "mv_speedup": "ratio", "count_abs_err": "count"}
PER_LAYER = {
    "sparse.load_s": "s", "sparse.matvec_s": "s", "sparse.matvec_cols": "count",
    "sparse.spmm_gflops": "GFLOP/s", "sparse.spmm_flops_per_byte": "flop/B",
    "transform.range_s": "s", "transform.apply_self_s": "s",
    "filters.moment_block_s": "s", "filters.moment_block_self_s": "s",
    "filters.dense_per_spmm": "ratio", "filters.dense_per_spmm_model": "ratio",
    "filters.coeff_s": "s", "estimators.count_s": "s",
    "dense.orth_s": "s", "dense.rank_loss_events": "count",
    "engine.solve_s": "s", "engine.self_s": "s", "engine.rr_s": "s",
    "engine.restarts": "count", "engine.useful_frac": "ratio",
    "contour.baseline_s": "s", "contour.shifted_s": "s", "contour.self_s": "s",
    "contour.krylov_iters": "count", "contour.shift_converged_frac": "ratio",
    "diagnostics.probe_s": "s", "diagnostics.self_s": "s",
    "cli.main_s": "s", "cli.self_s": "s",
    **OP_FIGURES,
    "trace.coverage": "ratio", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def machine():
    """Processor count and cache sizes of this machine."""
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        proc = subprocess.run(["getconf", level], capture_output=True, text=True)
        caches[level.split("_")[0].lower()] = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches["level2"],
        "l3_bytes": caches["level3"],
    }


def prepare(name):
    """The workload's parameters plus its generated matrix file, if any."""
    w = dict(workloads.WORKLOADS[name])
    if w["kind"] != "probe":
        path = WORK / f"{name}.mtx"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(workloads.laplacian_mtx(w))
        os.replace(tmp, path)
        w["matrix_path"] = str(path)
        w["n_true"] = int(workloads.analytic_in_interval(w).size)
    return w


def child(spec, timeout):
    """Run op.py on ``spec``; returns its JSON records and an error or None."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py")], input=json.dumps(spec),
            capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=ROOT,
        )
        out, err = proc.stdout, None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            err = f"op process exited {proc.returncode}: {tail[0]}"
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the child and waited for it.
        out, err = exc.stdout or "", f"op process timed out after {timeout:.0f} s"
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return records, err


def trace_checks(w, tr):
    bad = []
    if w["kind"] in ("solve", "bench") and not tr["mv_tally"]:
        bad.append("no solver span was traced")
    for t in tr["mv_tally"]:
        if t["traced_cols"] != t["mv_exact"]:
            bad.append(f"{t['span']}: traced matvec columns {t['traced_cols']} != mv_exact {t['mv_exact']}")
    cov = tr["metrics"]["trace.coverage"]
    if cov < MIN_COVERAGE:
        bad.append(f"layer self-times cover {cov:.3f} of op wall time (< {MIN_COVERAGE})")
    return bad


def op_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def tail_text(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            k = min(n - 1, int(np.ceil(p / 100 * n)) - 1)
            return f"p{p} {sorted(values)[k]:.4f} (n={n})"
    return f"no percentile has 10 samples beyond it (n={n})"


def median_or_zero(values):
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def run_ops(w, name, seed, seconds, trace):
    """Set-up processes around the op worker, within --seconds in all.

    Half the set-up processes run before the worker and half after it, so
    setup_s samples the whole run.  Returns the set-up records, every op
    record (gated) and the worker's environment report.
    """
    start = time.perf_counter()
    base = {"src": str(SRC), "workload": w, "report_path": str(WORK / f"{name}-report.json")}
    setups, ops = [], []

    def set_up(reps):
        for _ in range(reps):
            ref_before = reference.seconds()
            recs, err = child(dict(base, setup=True), RUN_LIMIT_S - (time.perf_counter() - start))
            ref_s = (ref_before + reference.seconds()) / 2
            setups.extend(dict(r, ref_s=ref_s) for r in recs)
            if err:
                ops.append({"failures": [f"set-up: {err}"], "traced": False, "index": None})
                return False
        return True

    if not set_up(SETUP_REPS // 2):
        return setups, ops, {}
    elapsed = time.perf_counter() - start
    spec = dict(
        base, trace=trace, env=True, max_ops=MAX_OPS,
        seeds=[op_seed(seed, k) for k in range(w["inputs"])],
        # Keep as long again as the first set-ups took for the last ones.
        budget_s=seconds - 2 * elapsed, limit_s=RUN_LIMIT_S - 2 * elapsed - 10.0,
    )
    recs, err = child(spec, RUN_LIMIT_S - 2 * elapsed)
    env = next((r["env"] for r in recs if "env" in r), {})
    for rec in recs:
        if "error" in rec:
            rec["failures"] = [f"op raised {rec['error']}"]
            ops.append(rec)
        elif "result" in rec:
            rec["failures"] = workloads.gate(w, rec["result"])
            if rec["traced"]:
                rec["failures"] += trace_checks(w, rec["trace"])
            ops.append(rec)
    if err:
        ops.append({"failures": [err], "traced": False, "index": None})
    else:
        set_up(SETUP_REPS - SETUP_REPS // 2)
    return setups, ops, env


def per_layer(name, seed, traced, pairs, figures):
    """Median per-layer metrics of the traced ops; also writes their spans."""
    layer = {k: median_or_zero([r["trace"]["metrics"][k] for r in traced])
             for k in PER_LAYER if k not in OP_FIGURES and not k.startswith("trace.overhead")}
    for key, vals in figures.items():
        layer[key] = median_or_zero(vals)
    layer["trace.overhead_s"] = median_or_zero([t["op_s"] - u["op_s"] for t, u in pairs])
    base = median_or_zero([u["op_s"] for _, u in pairs])
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / base if base else 0.0
    print(f"  per-layer, median of {len(traced)} traced ops "
          f"(tracing overhead {layer['trace.overhead_s']:.4f} s = "
          f"{100 * layer['trace.overhead_frac']:.2f} % of the untraced op):")
    for key, unit in PER_LAYER.items():
        print(f"    {key:<30}{layer[key]:>14.6g} {unit}")
    with open(WORK / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump([{"seed": r["seed"], "op_s": r["op_s"], "layer_self_s": r["trace"]["layer_self_s"],
                    "mv_tally": r["trace"]["mv_tally"], "spans": r["trace"]["spans"]}
                   for r in traced], fh)
    return layer


def at_reference_speed(records, key):
    """``key`` of each record in seconds at reference speed (see reference.py)."""
    return [r[key] * reference.REFERENCE_S / r["ref_s"] for r in records]


def run_workload(name, seed, seconds, trace, mach):
    w = prepare(name)
    setups, ops, env = run_ops(w, name, seed, seconds, trace)
    passed = [r for r in ops if not r["failures"]]
    # Self-check: the gate must reject a passing result with one deliberate error.
    trip = workloads.gate(w, workloads.corrupt(w, passed[0]["result"])) if passed else []
    failed = len(ops) - len(passed)

    print(f"workload {name}  seed {seed}  ops {len(ops)} on {w['inputs']} inputs  failed {failed}")
    for r in ops:
        for f in r["failures"]:
            print(f"  FAILED op seed {r.get('seed')}{' (traced)' if r['traced'] else ''}: {f}")
    if passed:
        print("  gate self-check: " + ("corrupted result rejected: " + trip[0] if trip
                                        else "FAILED, a corrupted result passed the gate"))
    plain = [r for r in ops if not r["traced"] and "op_s" in r]
    for r in plain:
        print(f"  op {r['index']:>3} input {r['input']} seed {r['seed']:>10}: {r['op_s']:.3f} s wall, "
              f"{r['op_cpu_s']:.3f} s cpu  " + workloads.describe(r["result"]))
    verified = [r for r in plain if not r["failures"]]
    op_s = at_reference_speed(verified, "op_s")
    values = {
        "solution_s": median_or_zero(op_s),
        "setup_s": median_or_zero(at_reference_speed(setups, "setup_s")),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in plain], default=0.0),
    }
    figures = {
        "mv_exact": [workloads.mv_exact(r["result"]) for r in plain],
        "mv_speedup": [workloads.mv_speedup(r["result"]) for r in plain],
        "count_abs_err": [workloads.count_abs_err(w, r["result"]) for r in plain],
    }
    ref_ms = 1e3 * median_or_zero([r["ref_s"] for r in verified + setups])
    print(f"  reference kernel: median {ref_ms:.2f} ms in this run, {1e3 * reference.REFERENCE_S:.2f} ms "
          f"at reference speed; timings below are at reference speed, raw wall time in brackets")
    print(f"  {'solution_s':<28}{values['solution_s']:>14.4f} s      median of {len(op_s)} verified ops "
          f"({median_or_zero([r['op_s'] for r in verified]):.4f}); tail: {tail_text(op_s)}")
    print(f"  {'setup_s':<28}{values['setup_s']:>14.4f} s      median of {len(setups)} fresh processes "
          f"({median_or_zero([r['setup_s'] for r in setups]):.4f})")
    print(f"  {'peak_rss_mb':<28}{values['peak_rss_mb']:>14.4f} MB     peak of the op process")
    for key, vals in figures.items():
        if any(v is not None for v in vals):
            print(f"  {key:<28}{median_or_zero(vals):>14.4f} {OP_FIGURES[key]}")
    print(f"  {'failed_frac':<28}{failed / max(1, len(ops)):>14.4f} ratio  ({failed} of {len(ops)} ops)")

    if trace:
        traced = [r for r in ops if r["traced"] and "trace" in r]
        by_index = {}
        for r in ops:
            if "op_s" in r:
                by_index.setdefault(r["index"], {})[r["traced"]] = r
        pairs = [(p[True], p[False]) for p in by_index.values() if len(p) == 2]
        layer = per_layer(name, seed, traced, pairs, figures)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    env = dict(mach, workload=name, seed=seed, seconds=seconds, trace=trace,
               loop="closed, 1 client, one op at a time in one worker process", **env)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and bool(trip),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "eigenspan" / "__init__.py").is_file():
        print(f"bench: no eigenspan sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    mach = machine()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), mach) for n in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
