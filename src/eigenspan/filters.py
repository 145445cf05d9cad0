"""Damped Chebyshev approximation of the interval indicator times a polynomial.

For the indicator h of [a_t, b_t] (value 1 inside, 1/2 at the endpoints, 0
outside) and a basis polynomial p_k, the degree-d filtered expansion is

    F_d(p_k)(t) = c_{k,0}/2 + sum_{j=1..d} rho_{j,d} c_{k,j} T_j(t),

where T_j are Chebyshev polynomials of the first kind, rho_{j,d} are the
damping factors that make the underlying kernel nonnegative, and

    c_{k,j} = (2/pi) * integral_{beta}^{alpha} p_k(cos(theta)) cos(j theta) dtheta

with alpha = arccos(a_t), beta = arccos(b_t).  Applying F_d(p_k) to a matrix
uses only the three-term recurrence, d matrix applications per start vector.
The integrand is a trigonometric polynomial of degree d + k, so composite
Gauss-Legendre on panels short against its top frequency computes the
coefficients to roundoff.  All panels of that rule share one half-width, so
the phase e^{i j theta} at a node theta = mid + half x factors into a panel
factor e^{i j mid} and a reference factor e^{i j half x}; the quadrature
builds its phase tables from these products, not from one exponential per
node and frequency.  This module holds the package's one quadrature
rule (``panel_rule``), its one series evaluator (``cosine_series``), its
one basis evaluator (``basis_values``) and its one Chebyshev recurrence
(``_recurrence``), which ``build_moment_block`` and ``chebyshev_moments``
consume: the block maps each product with A onto A_t in a ring of three or
more iterates, and the count multiplies by its prescaled 2 A_t in a ring of
two with no tiles, one product and one subtraction in place per step.

``chebyshev_moments`` splits a start block of n * ell >= 2 * PANEL_ELEMENTS
elements into min(usable CPUs, ell, n * ell // PANEL_ELEMENTS) column
panels, one thread each, the caller's thread included.  Each column's
moments depend only on that column, so the panels share nothing but the
read-only 2 A_t until they join and give the moments of the whole block bit
for bit; the growth rule reads the sum of their step norms after the join.
These threads are the module's own: BLAS stays at its thread setting (one
thread in the benchmark), and ``build_moment_block`` runs whole on the
caller's thread.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import RecurrenceDivergenceError
from .sparse import MVCounter, SparseSymmetric, matvec

BASES = ("chebyshev", "scaled", "monomial")

#: Gauss-Legendre nodes per panel of ``panel_rule``.
PANEL_NODES = 32
#: Largest span, in radians of the integrand's top frequency, of one panel.
PANEL_RADIANS = 24.0
#: Angles per pass of ``cosine_series`` and of the coefficient quadrature,
#: which takes them as ANGLE_CHUNK // PANEL_NODES whole panels and forms
#: the panel factors of its phase tables per pass; at degree 10^4 this keeps
#: each complex phase table near 200 KB and each cosine table near 10 MB.
ANGLE_CHUNK = 128
#: Byte budget of ``build_moment_block``'s ring of iterates; the ring holds
#: as many (n, ell) iterates as fit, at least 3 and at most BATCH_MAX.
BATCH_BYTES = 2**20
#: Most iterates per moment-accumulation GEMM.
BATCH_MAX = 16
#: Largest ||T_j(A_t) V||_F / ||V||_F that the recurrence accepts.
GROWTH_LIMIT = 16.0
#: Start-block elements (n * ell) per column panel of ``chebyshev_moments``.
PANEL_ELEMENTS = 2**16


def jackson_factors(d):
    """Damping factors rho_{j, d}, j = 0..d.

    rho_{j,d} = sin((j+1) a) / ((d+2) sin a) + (1 - (j+1)/(d+2)) cos(j a)
    with a = pi / (d + 2).  rho_0 = 1 analytically; the factors decay to
    ~0 at j = d, which is what suppresses the Gibbs oscillations.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    j = np.arange(d + 1, dtype=np.float64)
    alpha = math.pi / (d + 2)
    rho = np.sin((j + 1) * alpha) / ((d + 2) * math.sin(alpha))
    rho += (1.0 - (j + 1) / (d + 2)) * np.cos(j * alpha)
    return rho


@dataclass(frozen=True)
class PanelRule:
    """Composite Gauss-Legendre panels of one shared half-width.

    Node p * PANEL_NODES + q is ``mids[p] + half * x[q]`` with weight
    ``half * w[q]``, where ``x`` and ``w`` are the reference rule on [-1, 1].
    ``nodes`` and ``weights`` give the flat rule.
    """

    mids: np.ndarray
    half: float
    x: np.ndarray
    w: np.ndarray

    @property
    def nodes(self):
        return (self.mids[:, None] + self.half * self.x).ravel()

    @property
    def weights(self):
        return np.tile(self.half * self.w, self.mids.size)


def panel_rule(lo, hi, frequency):
    """Composite Gauss-Legendre on [lo, hi], as a ``PanelRule``.

    Equal PANEL_NODES-node panels, each at most PANEL_RADIANS of
    ``frequency`` wide, integrate a trigonometric polynomial of that degree
    (times a low-degree polynomial) to roundoff.
    """
    panels = max(1, math.ceil((hi - lo) * frequency / PANEL_RADIANS))
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return PanelRule(mids, 0.5 * (edges[1] - edges[0]), x, w)


def cosine_series(theta, rows):
    """w_0/2 + sum_{j>=1} w_j cos(j theta) for each weight row w, one column per row.

    Rows may differ in length: each chunk of ANGLE_CHUNK angles builds one
    cosine table for the longest row, and every row reads a prefix of it.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    rows = [np.asarray(w, dtype=np.float64) for w in rows]
    j = np.arange(1, max((w.size for w in rows), default=1), dtype=np.float64)
    out = np.empty((theta.size, len(rows)))
    for start in range(0, theta.size, ANGLE_CHUNK):
        sl = slice(start, start + ANGLE_CHUNK)
        table = np.cos(np.outer(theta[sl], j))
        for col, w in enumerate(rows):
            out[sl, col] = 0.5 * w[0] + table[:, : w.size - 1] @ w[1:]
    return out


def basis_values(basis, ks, t, a_t, b_t):
    """Basis polynomials p_k(t), one row per k in ``ks`` (mapped units)."""
    ks = np.asarray(ks)[:, None]
    if basis == "monomial":
        return t**ks
    u = (2.0 * t - a_t - b_t) / (b_t - a_t)
    if basis == "scaled":
        return u**ks
    # u can stray past [-1, 1] by roundoff at the interval ends.
    return np.cos(ks * np.arccos(np.clip(u, -1.0, 1.0)))


def _coefficient_rows(iv, basis, ks, d):
    """Coefficients c_{k, 0..d} for every k in ``ks``, shape (len(ks), d + 1).

    Composite Gauss-Legendre over theta in [beta, alpha], each panel at most
    PANEL_RADIANS of the top frequency d + max(ks).  Writing j = W b + r
    with W = isqrt(d) + 1, angle addition gives
    cos(j theta) = Re(e^{i W b theta} e^{i r theta}), so each chunk of
    ANGLE_CHUNK // PANEL_NODES panels needs a coarse (j = W b) and a fine
    (j = r) phase table and one matrix product per row for all d + 1
    columns.  A node is theta = mid + half x, so each table is the
    broadcast product of its panel factors e^{i j mid}, formed per chunk,
    and its reference factors e^{i j half x}, formed once per call on the
    PANEL_NODES reference nodes.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    ks = np.asarray(ks)
    rule = panel_rule(iv.beta, iv.alpha, d + int(ks.max()))
    g = 2.0 / math.pi * rule.weights * basis_values(basis, ks, np.cos(rule.nodes), iv.a_t, iv.b_t)

    width = math.isqrt(d) + 1
    blocks = d // width + 1
    coarse_j = width * np.arange(blocks)
    fine_j = np.arange(width)
    coarse_ref = np.exp(1j * np.outer(coarse_j, rule.half * rule.x))  # (blocks, PANEL_NODES)
    fine_ref = np.exp(1j * np.outer(rule.half * rule.x, fine_j))  # (PANEL_NODES, width)
    per = ANGLE_CHUNK // PANEL_NODES  # panels per chunk
    out = np.zeros((ks.size, blocks, width))
    for p in range(0, rule.mids.size, per):
        mids = rule.mids[p : p + per]
        coarse = np.exp(1j * np.outer(coarse_j, mids))[:, :, None] * coarse_ref[:, None, :]
        fine = np.exp(1j * np.outer(mids, fine_j))[:, None, :] * fine_ref
        coarse, fine = coarse.reshape(blocks, -1), fine.reshape(-1, width)
        for row, g_row in zip(out, g[:, p * PANEL_NODES : (p + per) * PANEL_NODES]):
            row += ((coarse * g_row) @ fine).real
    return out.reshape(ks.size, -1)[:, : d + 1]


def step_coefficients(iv, basis, k, d):
    """Expansion coefficients c_{k, j}, j = 0..d, for basis polynomial k.

    Parameters
    ----------
    iv : TargetInterval
    basis : {'chebyshev', 'scaled', 'monomial'}
        Polynomial family on the mapped interval: Chebyshev of the first
        kind in the interval-normalized variable (default elsewhere),
        plain powers of that variable, or raw powers of t.
    k : int
        Basis index (polynomial degree), k >= 0.
    d : int
        Expansion degree, d >= 0.

    Returns
    -------
    ndarray, shape (d + 1,)
    """
    if k < 0:
        raise ValueError(f"basis index must be >= 0, got {k}")
    return _coefficient_rows(iv, basis, [k], d)[0]


@dataclass(frozen=True)
class FilterSpec:
    """Damping factors and per-basis coefficients of one filter.

    The interval enters only through the coefficients, so the spec does not
    keep it.

    Attributes
    ----------
    d : int
        Expansion degree.
    m : int
        Number of basis polynomials (degrees 0 .. m-1).
    basis : str
    rho : ndarray, shape (d + 1,)
    coeffs : ndarray, shape (m, d + 1)
        Row k holds c_{k, 0..d}.
    """

    d: int
    m: int
    basis: str
    rho: np.ndarray
    coeffs: np.ndarray

    @property
    def weights(self):
        """Series weights rho_j * c_{k,j}, shape (m, d + 1); column 0 is halved (c_{k,0}/2)."""
        w = self.rho * self.coeffs
        w[:, 0] *= 0.5  # halving is exact
        return w


def check_degree(d):
    """Reject a filter degree below 2, where the damped kernel is not yet nonnegative."""
    if d < 2:
        raise ValueError(f"need degree >= 2, got {d}")


def make_filter_spec(iv, d, m, basis="chebyshev"):
    """Build the FilterSpec for m moment blocks at expansion degree d >= 2."""
    if m < 1:
        raise ValueError(f"need at least one basis polynomial, got m = {m}")
    check_degree(d)
    rho = jackson_factors(d)
    coeffs = _coefficient_rows(iv, basis, np.arange(m), d)
    return FilterSpec(d=d, m=m, basis=basis, rho=rho, coeffs=coeffs)


def filter_scalar(spec, k, t):
    """Evaluate F_d(p_k) pointwise on mapped values t in [-1, 1].

    Vectorized over t; used by diagnostics and by the dense-oracle tests.
    Values outside [-1, 1] (beyond 1e-12 roundoff) are rejected, since the
    Chebyshev cos-form is only defined there.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("filter evaluation points must lie in [-1, 1]")
    theta = np.arccos(np.clip(t, -1.0, 1.0))
    out = cosine_series(theta, [spec.rho * spec.coeffs[k]])[:, 0]
    return out if out.size > 1 else float(out[0])


def build_moment_block(a_t, v, spec, counter=None):
    """Apply all m filters to a start block with one shared recurrence.

    Computes S_k = F_d(p_k)(A_t) V for k = 0..m-1 from the iterates
    T_j(A_t) V, j = 0..d, of one three-term Chebyshev recurrence on the
    mapped operator: exactly d * ell products with the original matrix for
    an n-by-ell start block, independent of m.  Each full ring of iterates
    (see BATCH_BYTES) goes into all m moments with one GEMM.

    Parameters
    ----------
    a_t : MappedOperator
    v : ndarray, shape (n, ell)
    spec : FilterSpec
    counter : MVCounter, optional

    Returns
    -------
    ndarray, shape (n, m * ell)
        The stacked block S = [S_0 | ... | S_{m-1}]; columns
        k*ell .. (k+1)*ell - 1 hold S_k.  ``counter`` is charged the
        d * ell applications.

    Raises
    ------
    RecurrenceDivergenceError
        If an iterate's Frobenius norm exceeds GROWTH_LIMIT * ||V||_F or is
        not finite (``_check_growth``).  Checked on the newest iterate each
        time the ring fills and at j = d; names the fill's first step over
        the limit.
    """
    v, limit = _start_block(v)
    w = spec.weights
    batch = max(3, min(BATCH_MAX, BATCH_BYTES // max(1, 8 * v.size)))  # float64 iterates
    s = np.zeros((spec.m, v.size))

    def add(j, t, prev, fill):
        nonlocal s
        if fill is not None:
            first = j + 1 - len(fill)
            s += w[:, first : j + 1] @ fill
            if not math.sqrt(fill[-1] @ fill[-1]) <= limit:  # the newest iterate first
                _check_growth([row @ row for row in fill], limit, first, spec.d)

    _recurrence(a_t, v, spec.d, batch, add, counter)
    n, ell = v.shape
    return s.reshape(spec.m, n, ell).transpose(1, 0, 2).reshape(n, spec.m * ell)


def _start_block(v):
    """``v`` as a float64 (n, ell) array, and GROWTH_LIMIT * ||V||_F: the growth rule's limit."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"start block must be 2-D, got shape {v.shape}")
    flat = v.ravel(order="K")
    return v, GROWTH_LIMIT * math.sqrt(flat @ flat)


def _check_growth(squares, limit, first, d):
    """The growth rule: raise naming the first j, "of d", where ||T_j(A_t) V||_F is over ``limit``.

    ``squares[i]`` is ||T_j(A_t) V||_F^2 for j = first + i; a norm that is
    not finite is over.  Inside [-1, 1], |T_j| <= 1 bounds every iterate by
    ||V||_F, so growth means the spectral transform misses part of the
    spectrum; past it, |T_j| = cosh(j arccosh|t|) only grows.
    """
    for step, square in enumerate(squares, first):
        if not math.sqrt(square) <= limit:
            raise RecurrenceDivergenceError(
                f"recurrence diverged at step {step} of {d}: the iterate "
                f"outgrew {GROWTH_LIMIT:g} times the start block, so the "
                "spectral transform does not enclose the spectrum",
                step,
            )


def usable_cpus():
    """CPUs this process may run on: its affinity mask, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _panel_bounds(v):
    """Column bounds of max(1, min(usable CPUs, ell, n * ell // PANEL_ELEMENTS)) panels of ``v``.

    Panel widths differ by at most one.
    """
    n, ell = v.shape
    panels = max(1, min(usable_cpus(), ell, n * ell // PANEL_ELEMENTS))
    return [ell * p // panels for p in range(panels + 1)]


def chebyshev_moments(a_t, v, d, counter=None):
    """Chebyshev moments mu_{j,i} = v_i^T T_j(A_t) v_i, j = 0..d, of each start column.

    Runs the three-term recurrence only to K = ceil(d / 2) and gets two
    moments per product from the doubling identities of the kernel
    polynomial method (Weisse, Wellein, Alvermann & Fehske, Rev. Mod. Phys.
    78, 275 (2006), Sec. II.D):

        mu_{2k}     = 2 <T_k v, T_k v>     - mu_0,
        mu_{2k - 1} = 2 <T_k v, T_{k-1} v> - mu_1,

    with mu_0 = <v, v> and mu_1 = <T_1 v, v>.  No filtered block is
    accumulated.  The recurrence multiplies by 2 A_t = ``a_t.doubled()``,
    built once per call, and keeps a ring of two iterates, each written in
    place over T_{k-2} (``_recurrence``).

    Each column's moments depend only on that column, so an n-by-ell block
    runs as min(usable CPUs, ell, n * ell // PANEL_ELEMENTS) column panels
    (``usable_cpus``) that share only 2 A_t until they join: the caller's
    thread runs the first panel and one helper thread each runs the others.
    The moments equal those of the block run whole, bit for bit; below
    2 * PANEL_ELEMENTS elements, or on one CPU, the block runs whole on the
    caller's thread.  The threads leave BLAS's own thread count as it is.

    Parameters
    ----------
    a_t : MappedOperator
    v : ndarray, shape (n, ell)
    d : int
        Highest moment, d >= 0.
    counter : MVCounter, optional
        Charged the K * ell products with 2 A_t, from the caller's thread.

    Returns
    -------
    ndarray, shape (d + 1, ell)

    Raises
    ------
    RecurrenceDivergenceError
        If ||T_k(A_t) V||_F, k <= K, exceeds GROWTH_LIMIT * ||V||_F or is
        not finite (``_check_growth``), at any step; named "of d".  A panel
        stops at the first step where its own norm is over the limit (so is
        the block's); after the join, the panels' squared norms are added in
        panel order over the steps all ran, so any panel count names the
        same step.  Otherwise the first failing panel's error is raised.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    v, limit = _start_block(v)
    bounds = _panel_bounds(v)
    counters = [MVCounter() for _ in bounds[1:]]
    doubled = a_t.doubled()
    mu, squares = zip(*_run_panels([
        functools.partial(_moments, doubled, v[:, lo:hi], d, limit, c, v.shape[1] > 1)
        for lo, hi, c in zip(bounds, bounds[1:], counters)
    ]))
    if counter is not None:
        counter.add(sum(c.count for c in counters))
    steps = min(map(len, squares))  # a panel that stopped did so at a step over the limit
    with np.errstate(over="ignore"):
        _check_growth(sum(sq[:steps] for sq in squares), limit, 0, d)
    return np.concatenate(mu, axis=1)


def _moments(doubled, v, d, limit, counter, wide):
    """``v``'s moments and squared norm at each step, to the first over ``limit``; on this thread.

    ``wide`` says that ``v``'s columns belong to a block of two or more.
    """
    mu, squares = [], []  # mu[j] for j = 0..2K and squares[k] for k = 0..K, appended in order

    def dots(x, y):
        # einsum adds up two or more columns row by row but a lone column in
        # vector partial sums; a one-column panel of a wider block takes the
        # running sum, which adds row by row, to match its column of the block.
        if not wide or x.shape[1] > 1:
            return np.einsum("ij,ij->j", x, y)
        return np.cumsum(x[:, 0] * y[:, 0])[-1:]

    def add(k, t, prev, fill):
        square = dots(t, t)
        squares.append(square.sum())
        if k == 0:
            mu.append(square)
        else:
            cross = dots(t, prev)
            mu.append(cross if k == 1 else 2.0 * cross - mu[1])
            mu.append(2.0 * square - mu[0])
        return not math.sqrt(squares[-1]) <= limit

    _recurrence(doubled, v, (d + 1) // 2, 2, add, counter)
    return np.stack(mu)[: d + 1], np.array(squares)


def _run_panels(jobs):
    """Call each job: the first on this thread, each other on a helper thread.

    Returns the jobs' results once every helper has ended, or raises the
    error of the first job that failed.
    """
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def run(p):
        try:
            results[p] = jobs[p]()
        except BaseException as exc:  # raised again on the caller's thread below
            errors[p] = exc

    helpers = [threading.Thread(target=run, args=(p,)) for p in range(1, len(jobs))]
    try:
        for thread in helpers:
            thread.start()
        run(0)
    finally:
        for thread in helpers:
            if thread.is_alive():
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _step(c, transform, y, before, old, new):
    """One mapped step: new = c A_t T_{j-1} - T_{j-2}, with A_t x = scale (A x) + shift x.

    ``y`` holds A T_{j-1} and is scaled in place; ``before`` is T_{j-1} and
    ``old`` T_{j-2} (None at j = 1).  ``new`` is written before ``old`` is
    read, so the mapped step needs a ring of three or more.
    """
    y *= c * transform.scale
    np.multiply(before, c * transform.shift, out=new)
    new += y
    if old is not None:
        new -= old


def _recurrence(op, v, last, length, consume, counter):
    """Run T_j = T_j(A_t) V for j = 0..last, V from ``_start_block``; ``consume`` after each step.

    T_1 = A_t T_0 and T_j = 2 A_t T_{j-1} - T_{j-2}, T_j in row j % length
    of a ring of ``length`` iterates.  A MappedOperator ``op`` is applied as
    A and mapped by ``_step`` (the 2 folded into scale and shift, exact) in
    a ring of three or more.  The prescaled 2 A_t (``MappedOperator.doubled``)
    gives T_1 = (2 A_t) T_0 / 2 and T_j = (2 A_t) T_{j-1} - T_{j-2}, the
    subtraction written in place over T_{j-2}, so a ring of two needs no
    scratch.  ``consume(j, t, prev, fill)`` gets T_j, T_{j-1} (None at
    j = 0) and, when the ring is full or j = last, the ring's rows so far as
    a (rows, n * ell) view (else None); a true result ends the run after
    step j.  Floating-point warnings are suppressed only while the steps and
    ``consume`` run.
    """
    ring = np.empty((length,) + v.shape)
    ring[0] = v
    flat = ring.reshape(length, v.size)
    prescaled = isinstance(op, SparseSymmetric)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(last + 1):
            t, prev = ring[j % length], (ring[(j - 1) % length] if j else None)
            if j:
                old = ring[(j - 2) % length] if j > 1 else None
                y = matvec(op if prescaled else op.a, prev, counter)
                if not prescaled:
                    _step(1.0 if j == 1 else 2.0, op.transform, y, prev, old, t)
                elif old is None:
                    np.multiply(y, 0.5, out=t)
                else:
                    np.subtract(y, old, out=t)
                del y  # before the next product allocates its own
            rows = j % length + 1
            fill = flat[:rows] if rows == length or j == last else None
            if consume(j, t, prev, fill):
                return
