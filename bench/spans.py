"""Span tracer that times eigenspan's public functions from outside the package.

The package imports its functions by name (``from .sparse import matvec`` in
``transform``, ``engine`` and ``contour``), so patching the defining module
alone would miss most calls.  ``install`` replaces the function object under
every name it is bound to in every loaded ``eigenspan`` module, which catches
each import site, and wraps ``MappedOperator.apply`` on its class.

Each wrapped call is a span.  Spans nest on a stack; a span's self time is its
duration minus that of its direct children.  The per-call leaves
(``sparse.matvec`` and ``transform.apply``) are aggregated rather than logged,
because the contour baseline makes about 3e5 of them per op.
"""

import functools
import sys
import time

import numpy as np

# (defining module, attribute, span name).  The layer is the part of the span
# name before the dot; ``orthonormalize_block`` lives in ``engine`` but is
# the dense orthonormalization step, so it is charged to ``dense``.  Targets
# missing from the installed package are skipped.
TARGETS = (
    ("eigenspan.sparse", "load_matrix_market", "sparse.load"),
    ("eigenspan.sparse", "matvec", "sparse.matvec"),
    ("eigenspan.transform", "estimate_spectral_range", "transform.range"),
    ("eigenspan.transform", "MappedOperator.apply", "transform.apply"),
    ("eigenspan.filters", "build_moment_block", "filters.moment_block"),
    ("eigenspan.filters", "step_coefficients", "filters.coeff"),
    ("eigenspan.filters", "make_filter_spec", "filters.spec"),
    ("eigenspan.estimators", "estimate_count", "estimators.count"),
    ("eigenspan.engine", "orthonormalize_block", "dense.orth"),
    ("eigenspan.dense", "thin_qr", "dense.qr"),
    ("eigenspan.dense", "orthonormal_range", "dense.range"),
    ("eigenspan.engine", "rayleigh_ritz", "engine.rr"),
    ("eigenspan.engine", "run_cjssrr", "engine.solve"),
    ("eigenspan.contour", "run_baseline", "contour.baseline"),
    ("eigenspan.contour", "shifted_krylov_solve", "contour.shifted"),
    ("eigenspan.diagnostics", "filter_probe", "diagnostics.probe"),
    ("eigenspan.cli", "main", "cli.main"),
)
LEAVES = ("sparse.matvec", "transform.apply")
ROOT = "op"


class Tracer:
    """In-memory span stack with per-name and per-layer totals."""

    def __init__(self):
        # Open frames: [start, child seconds, matvec columns, matvec seconds,
        # span id or None for a leaf].  The root op frame is always at the
        # bottom while an op runs.
        self.stack = []
        self.totals = {}  # name -> [calls, inclusive seconds, self seconds]
        self.depth = {}  # layer -> open spans of that layer
        self.layer_incl = {}  # layer -> seconds not nested in the same layer
        self.spans = []  # [id, parent id, name, start, end] of non-leaf spans
        self.mv = {"calls": 0, "cols": 0, "seconds": 0.0, "flops": 0, "bytes": 0}
        self.moment_mv_s = 0.0  # matvec seconds inside build_moment_block
        # Sum over moment blocks of the mv_equivalent model's dense work per
        # product, (m + 1) * n / nnz, weighted by the block's matvec seconds.
        self.moment_model = 0.0
        self.nnz = 0
        self.solver_mv_cols = []  # (span name, matvec columns, returned report)
        self.rank_losses = 0
        self.replaced = []  # (owner, attribute, original) put back by uninstall
        self.observers = {
            "sparse.matvec": self._matvec,
            "filters.moment_block": self._moment_block,
            "engine.solve": self._solver,
            "contour.baseline": self._solver,
            "dense.orth": self._orth,
        }

    def span(self, fn, name):
        """Wrap ``fn`` so each call inside an op is recorded as span ``name``."""
        layer = name.split(".", 1)[0]
        leaf = name in LEAVES
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        self.depth.setdefault(layer, 0)
        self.layer_incl.setdefault(layer, 0.0)
        stack, depth, spans, clock = self.stack, self.depth, self.spans, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an op, e.g. the set-up load
                return fn(*args, **kwargs)
            sid = None
            if not leaf:
                sid = len(spans)
                spans.append([sid, stack[-1][4], name, None, None])
            frame = [0.0, 0.0, 0, 0.0, sid]
            stack.append(frame)
            depth[layer] += 1
            frame[0] = start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if not depth[layer]:
                    self.layer_incl[layer] += dur
                parent = stack[-1]
                parent[1] += dur
                parent[2] += frame[2]
                parent[3] += frame[3]
                if sid is not None:
                    spans[sid][3:] = [start, end]
            if observe is not None:
                observe(frame, dur, args, out)
            return out

        return traced

    def _matvec(self, frame, dur, args, out):
        a, x = args[0], np.asarray(args[1])
        cols = 1 if x.ndim == 1 else x.shape[1]
        # Computed, not measured: 2 flops per stored entry and column (4 for
        # a complex operand); bytes are one pass over a CSR with float64
        # values and int32 indices, plus reading x and writing the product.
        cplx = 2 if x.dtype.kind == "c" else 1
        mv = self.mv
        mv["calls"] += 1
        mv["cols"] += cols
        mv["seconds"] += dur
        mv["flops"] += 2 * cplx * a.nnz * cols
        mv["bytes"] += 12 * a.nnz + 4 * (a.n + 1) + 2 * x.nbytes
        self.nnz = a.nnz
        parent = self.stack[-1]
        parent[2] += cols
        parent[3] += dur

    def _moment_block(self, frame, dur, args, out):
        self.moment_mv_s += frame[3]
        if self.nnz:
            m = getattr(args[2], "m", 0)
            self.moment_model += (m + 1) * np.shape(args[1])[0] / self.nnz * frame[3]

    def _solver(self, frame, dur, args, out):
        self.solver_mv_cols.append((self.spans[frame[4]][2], frame[2], out))

    def _orth(self, frame, dur, args, out):
        if isinstance(out, tuple) and out[1] is not None:
            self.rank_losses += 1

    def install(self):
        """Wrap every target at every module attribute bound to it."""
        modules = [m for k, m in sys.modules.items() if k == "eigenspan" or k.startswith("eigenspan.")]
        for modname, attr, name in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._replace(cls, meth, self.span(vars(cls)[meth], name))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapped = self.span(original, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, key, value):
        self.replaced.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        """Put back every function ``install`` replaced."""
        while self.replaced:
            owner, key, original = self.replaced.pop()
            setattr(owner, key, original)

    def run(self, fn):
        """Call ``fn`` as the root span of one op; return (result, seconds)."""
        frame = [0.0, 0.0, 0, 0.0, len(self.spans)]
        self.spans.append([frame[4], None, ROOT, None, None])
        self.stack.append(frame)
        frame[0] = start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[frame[4]][3:] = [start, end]
        return out, end - start

    def inclusive(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self):
        """Self seconds per layer, summed over the layer's spans."""
        out = {}
        for name, (_, _, sec) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + sec
        return out
