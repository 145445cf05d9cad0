"""Reference kernel that tracks how fast a shared machine is running.

Other tenants of the host slow every op, and the set-up, by up to 2x (once
3.8x) for seconds to minutes at a time ("Noise" in NOTES.md).  The benchmark
times this fixed kernel in the same process right before and after each op
and each set-up, and reads the timing at reference speed:

    wall seconds * REFERENCE_S / (mean of the two kernel times)

that is, in seconds of a machine that runs the kernel in REFERENCE_S.  The
kernel never calls eigenspan, so no change to the program moves it.  Like
the ops it mixes interpreted Python with sparse products and array
arithmetic, so a slow phase slows it about as much as it slows an op.
"""

import time

import numpy as np
import scipy.sparse

# The kernel's time on the idle machine described in NOTES.md ("Noise").
REFERENCE_S = 0.032

_N = 1936
_RNG = np.random.default_rng(0)
_ROWS = np.repeat(np.arange(_N), 5)
_A = scipy.sparse.csr_matrix(
    (_RNG.standard_normal(_ROWS.size), (_ROWS, _RNG.integers(0, _N, _ROWS.size))), shape=(_N, _N)
)
_X = _RNG.standard_normal((_N, 6))


def kernel():
    acc = 0.0
    table = {}
    for i in range(100_000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    x, y = _X, np.zeros_like(_X)
    for _ in range(300):
        z = 2.0 * (_A @ x) - y
        y, x = x, z / np.linalg.norm(z)
    return acc + float(x[0, 0])


def seconds():
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
