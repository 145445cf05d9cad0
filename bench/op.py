"""Benchmark worker: runs one workload's ops in a child interpreter.

Reads a spec (JSON, written by run.py) on stdin.  With ``"setup": true`` it
only imports eigenspan and loads the workload's matrix, prints the set-up
times as one JSON line and exits.  Otherwise it runs ops one at a time until
its time budget is spent and prints one JSON line per op as it ends.

BLAS is pinned to one thread before numpy is first imported.  Every
in-process cache of the package (the coefficient ``lru_cache``) is cleared
before each op, so every op pays for its filter coefficients as a CLI user
does.  The reference kernel (reference.py) is timed between ops, and each
op record carries the mean of the kernel times just before and after it.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment():
    """Library versions and BLAS build of this process."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def package_caches():
    """Every ``functools`` cache bound in a loaded eigenspan module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "eigenspan" or name.startswith("eigenspan."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    found[id(val)] = val
    return list(found.values())


def emit(record):
    print(json.dumps(record), flush=True)


def main():
    # numpy is first imported below, with eigenspan, so this pins BLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads(sys.stdin.read())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    t0 = time.perf_counter()
    import eigenspan
    import eigenspan.cli

    import_s = time.perf_counter() - t0
    if not Path(eigenspan.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"eigenspan imported from {eigenspan.__file__}, not from {src}")

    w = spec["workload"]
    a = None
    load_s = 0.0
    if w.get("matrix_path"):
        t1 = time.perf_counter()
        a = eigenspan.load_matrix_market(w["matrix_path"])
        load_s = time.perf_counter() - t1
    if spec.get("setup"):
        emit({"setup_s": import_s + load_s, "import_s": import_s, "load_s": load_s})
        return

    import reference
    import workloads
    from spans import Tracer

    caches = package_caches()
    if spec.get("env"):
        emit({"env": environment()})

    def run_one(seed, k, traced):
        for cache in caches:
            cache.cache_clear()

        def op():
            return workloads.run_op(eigenspan, eigenspan.cli, w, a, seed, k, spec["report_path"])

        cpu0 = time.process_time()
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                raw, op_s = tracer.run(op)
            finally:
                tracer.uninstall()
        else:
            t2 = time.perf_counter()
            raw = op()
            op_s = time.perf_counter() - t2
        out = {
            "seed": seed,
            "traced": traced,
            "op_s": op_s,
            "op_cpu_s": time.process_time() - cpu0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result": workloads.summarize(w, raw, spec["report_path"]),
        }
        if traced:
            out["trace"] = trace_summary(tracer, out, load_s)
        return out

    # Closed loop: the next op starts when the previous one has ended.  Op i
    # runs input i mod len(seeds), so each input is visited again and again
    # across the run.  Every input runs at least once; after that no op
    # starts that would likely end more than half an op past the budget.
    seeds = spec["seeds"]
    start = time.perf_counter()
    ref_before = reference.seconds()
    budget, limit = spec["budget_s"], spec["limit_s"]
    for i in range(spec["max_ops"]):
        elapsed = time.perf_counter() - start
        if i >= len(seeds):
            per_op = elapsed / i
            if elapsed + per_op / 2 > budget or elapsed + per_op > limit:
                break
        # In a traced run each op also runs untraced, in alternating order,
        # so the difference is the tracing overhead.
        modes = ([True, False] if i % 2 == 0 else [False, True]) if spec["trace"] else [False]
        k = i % len(seeds)
        for traced in modes:
            try:
                rec = run_one(seeds[k], k, traced)
            except Exception as exc:  # a failed op is reported, and the run goes on
                rec = {"seed": seeds[k], "traced": traced, "error": f"{type(exc).__name__}: {exc}"}
            ref_after = reference.seconds()
            rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            rec["index"], rec["input"] = i, k
            emit(rec)


def trace_summary(tracer, out, load_s):
    """Per-layer metrics of one traced op, plus the spans and tally checks."""
    incl, self_s, mv = tracer.inclusive, tracer.self_time, tracer.mv
    layer_self = tracer.layer_self()
    res = out["result"]
    cj, base = res.get("cj"), res.get("base")
    metrics = {
        "sparse.load_s": load_s,
        "sparse.matvec_s": mv["seconds"],
        "sparse.matvec_cols": mv["cols"],
        "sparse.spmm_gflops": mv["flops"] / mv["seconds"] / 1e9 if mv["seconds"] else 0.0,
        "sparse.spmm_flops_per_byte": mv["flops"] / mv["bytes"] if mv["bytes"] else 0.0,
        "transform.range_s": incl("transform.range"),
        "transform.apply_self_s": self_s("transform.apply"),
        "filters.moment_block_s": incl("filters.moment_block"),
        "filters.moment_block_self_s": self_s("filters.moment_block"),
        "filters.dense_per_spmm": (
            self_s("filters.moment_block") / tracer.moment_mv_s if tracer.moment_mv_s else 0.0
        ),
        "filters.dense_per_spmm_model": (
            tracer.moment_model / tracer.moment_mv_s if tracer.moment_mv_s else 0.0
        ),
        "filters.coeff_s": incl("filters.coeff"),
        "estimators.count_s": incl("estimators.count"),
        "dense.orth_s": tracer.layer_incl.get("dense", 0.0),
        "dense.rank_loss_events": tracer.rank_losses,
        "engine.solve_s": incl("engine.solve"),
        "engine.self_s": layer_self.get("engine", 0.0),
        "engine.rr_s": incl("engine.rr"),
        "engine.restarts": cj["restarts"] if cj else 0,
        "engine.useful_frac": (
            len(cj["values"]) / (cj["m"] * cj["ell"] * cj["restarts"]) if cj else 0.0
        ),
        "contour.baseline_s": incl("contour.baseline"),
        "contour.shifted_s": incl("contour.shifted"),
        "contour.self_s": layer_self.get("contour", 0.0),
        "contour.krylov_iters": base["krylov_iters"] if base else 0,
        "contour.shift_converged_frac": (
            base["shifts_converged"] / base["shifts"] if base and base["shifts"] else 0.0
        ),
        "diagnostics.probe_s": incl("diagnostics.probe"),
        "diagnostics.self_s": layer_self.get("diagnostics", 0.0),
        "cli.main_s": incl("cli.main"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.coverage": sum(layer_self.values()) / out["op_s"],
    }
    return {
        "metrics": metrics,
        "layer_self_s": layer_self,
        "mv_tally": [
            {"span": name, "traced_cols": cols, "mv_exact": int(rep.mv_exact)}
            for name, cols, rep in tracer.solver_mv_cols
        ],
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    main()
