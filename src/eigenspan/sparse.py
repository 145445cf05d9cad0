"""Sparse symmetric matrices in CSR form and Matrix Market I/O.

Only real symmetric matrices are supported.  Symmetric-storage files are
mirrored on read so the stored pattern always contains both (i, j) and
(j, i); ``general``-storage files must already be numerically symmetric.

``scipy.sparse`` is imported at the first CSR build, not with this module,
so a process that never builds a matrix never loads it.

Every block product with A is one call of scipy's in-place CSR kernel
(``_add_product``): the count's step adds its products into an iterate
through ``matvec_add``, and ``matvec`` multiplies a dense block through the
matrix's own ``@`` (``_csr.BlockCSR``).  Since A is real, a complex block is
multiplied in real arithmetic, as its float64 view; it is still billed one
MV per complex column.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFileError, MatrixFormatError, NonFiniteError, NotSymmetricError

# Relative tolerance used when checking value symmetry of general-storage files.
SYMMETRY_RTOL = 1e-12
# One Matrix Market entry line: 1-based row, 1-based column, value.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# The header fields after %%MatrixMarket, in order, with the values this reader takes.
_HEADER = (("object", ("matrix",)), ("format", ("coordinate",)), ("field", ("real",)),
           ("symmetry", ("symmetric", "general")))


class MVCounter:
    """Running tally of matrix-vector products.

    A product against an n-by-m block counts as m applications.
    """

    def __init__(self):
        self.count = 0

    def add(self, n_columns=1):
        self.count += int(n_columns)

    def reset(self):
        self.count = 0

    def __repr__(self):
        return f"MVCounter(count={self.count})"


@dataclass
class SparseSymmetric:
    """Real symmetric sparse matrix stored as explicit (both-triangles) CSR.

    The constructor arguments are handed to one scipy CSR matrix (a
    ``_csr.BlockCSR``, whose ``@`` multiplies a dense float64 or complex128
    block by one kernel call, a complex one in real arithmetic); the three
    array attributes are then read-only views of its arrays, so the indices
    are stored once, in scipy's index dtype (int32 whenever it fits).
    Complex values are refused with MatrixFormatError.

    Attributes
    ----------
    n : int
        Dimension.
    row_ptr : ndarray of int, shape (n + 1,)
        CSR row pointers.
    col_idx : ndarray of int
        CSR column indices, sorted within each row.
    values : ndarray of float64
        Stored entries, aligned with ``col_idx``.  Explicit zeros are kept.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _csr: "_csr.BlockCSR" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from ._csr import BlockCSR

        values = np.asarray(self.values)
        if values.dtype.kind == "c":
            raise MatrixFormatError(
                f"values have dtype {values.dtype}: only real symmetric matrices are supported"
            )
        self._csr = BlockCSR(
            (values.astype(np.float64, copy=False), self.col_idx, self.row_ptr),
            shape=(self.n, self.n),
        )
        self.row_ptr, self.col_idx, self.values = (
            _read_only(x) for x in (self._csr.indptr, self._csr.indices, self._csr.data)
        )

    @property
    def nnz(self):
        """Number of stored entries (explicit zeros included)."""
        return int(self.values.size)

    @property
    def shape(self):
        return (self.n, self.n)

    @classmethod
    def from_scipy(cls, a):
        """Build from any scipy sparse matrix; enforces finite values and numerical symmetry."""
        import scipy.sparse as sp

        csr = sp.csr_matrix(a)
        if csr.shape[0] != csr.shape[1]:
            raise NotSymmetricError(f"matrix is {csr.shape[0]}x{csr.shape[1]}, not square")
        csr.sum_duplicates()
        csr.sort_indices()
        _check_finite(csr)
        _check_numerically_symmetric(csr)
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, a):
        """Build from a dense array, dropping exact zeros.

        Complex input stays complex, so it is refused rather than cast to real.
        """
        import scipy.sparse as sp

        dtype = np.complex128 if np.iscomplexobj(a) else np.float64
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=dtype)))

    def toarray(self):
        return self._csr.toarray()

    def diagonal(self):
        return self._csr.diagonal()


def _read_only(x):
    view = x.view()
    view.flags.writeable = False
    return view


def matvec(a, x, counter=None):
    """Apply a sparse symmetric matrix to a vector or block of vectors.

    A float64 or complex128 block is multiplied by one kernel call, a
    complex one in real arithmetic as its float64 view; a vector takes
    scipy's one-vector kernel.

    Parameters
    ----------
    a : SparseSymmetric
    x : ndarray, shape (n,) or (n, m)
    counter : MVCounter, optional
        Incremented by the number of columns of ``x``: a complex column is
        one MV, as a real one is.

    Returns
    -------
    ndarray with the shape (and dtype promotion rules) of ``x``.
    """
    x = np.asarray(x)
    if x.shape[0] != a.n:
        raise ValueError(f"dimension mismatch: matrix is {a.n}x{a.n}, operand has leading size {x.shape[0]}")
    if counter is not None:
        counter.add(1 if x.ndim == 1 else x.shape[1])
    return a._csr @ x


def matvec_add(a, x, out, counter=None):
    """Add A x into ``out`` in place: one call of scipy's CSR kernel, nothing allocated.

    Parameters
    ----------
    a : SparseSymmetric
    x : ndarray, shape (n,) or (n, m)
    out : ndarray
        C-contiguous float64 array of ``x``'s shape; the kernel writes into
        its memory, so any other ``out`` is refused rather than summed into
        a copy.
    counter : MVCounter, optional
        Incremented by the number of columns of ``x``.
    """
    x = np.asarray(x)
    if x.shape[0] != a.n:
        raise ValueError(f"dimension mismatch: matrix is {a.n}x{a.n}, operand has leading size {x.shape[0]}")
    if not (
        isinstance(out, np.ndarray) and out.dtype == np.float64
        and out.flags.c_contiguous and out.flags.writeable and out.shape == x.shape
    ):
        raise ValueError(
            f"out must be a writeable C-contiguous float64 array of shape {x.shape}"
        )
    _add_product(a.shape, a.row_ptr, a.col_idx, a.values, x, out)
    if counter is not None:
        counter.add(1 if x.ndim == 1 else x.shape[1])


def _add_product(shape, row_ptr, col_idx, values, x, out):
    """Add the CSR matrix times ``x`` into ``out`` by one call of scipy's in-place kernel.

    ``x`` (flattened in C order, so copied if not C-contiguous) and ``out``
    (C-contiguous, written in place) have shape (n,) or (n, m).
    """
    columns = 1 if x.ndim == 1 else x.shape[1]
    try:
        _add_product_kernel()(*shape, columns, row_ptr, col_idx, values, x.ravel(), out.ravel())
    except (TypeError, ValueError) as exc:
        raise _kernel_error(f"rejected its arguments ({exc})") from None


def _kernel_error(problem):
    import scipy

    return RuntimeError(f"scipy {scipy.__version__}: the in-place CSR kernel csr_matvecs {problem}")


@functools.cache
def _add_product_kernel():
    """scipy's private kernel Y += A X (``scipy.sparse._sparsetools.csr_matvecs``), on first use."""
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:
        raise _kernel_error("is missing from scipy.sparse._sparsetools") from None
    return csr_matvecs


def _entry_position(csr, k):
    """1-based (row, column) of stored entry k of a CSR matrix."""
    return int(np.searchsorted(csr.indptr, k, side="right")), int(csr.indices[k]) + 1


def _check_finite(csr):
    """Raise NonFiniteError if any stored value is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(csr.data))
    if bad.size:
        row, col = _entry_position(csr, bad[0])
        raise NonFiniteError(f"value at ({row}, {col}) is not finite")


def _check_numerically_symmetric(csr):
    """Raise NotSymmetricError unless pattern and values are symmetric.

    Pattern symmetry is exact (the transposed sparsity structure must match,
    explicit zeros included); values must agree to ``SYMMETRY_RTOL`` relative
    to max(1, |value|).
    """
    t = csr.T.tocsr()
    t.sort_indices()
    if not (
        np.array_equal(csr.indptr, t.indptr)
        and np.array_equal(csr.indices, t.indices)
    ):
        raise NotSymmetricError("stored sparsity pattern is not symmetric")
    diff = np.abs(csr.data - t.data)
    tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(csr.data))
    if np.any(diff > tol):
        k = int(np.argmax(diff - tol))
        row, col = _entry_position(csr, k)
        raise NotSymmetricError(f"values at ({row}, {col}) and transpose differ by {diff[k]:.3e}")


def parse_matrix_market(text):
    """Parse a Matrix Market coordinate file into a SparseSymmetric.

    Parameters
    ----------
    text : str
        Full contents of the ``.mtx`` file.

    Returns
    -------
    SparseSymmetric
        With symmetric storage mirrored to both triangles.  Duplicate
        coordinates are summed; explicit zeros are kept.

    Raises
    ------
    MatrixFormatError
        Header declares anything but ``matrix coordinate real`` with
        ``symmetric`` or ``general`` symmetry.
    MalformedFileError
        Structural violations (bad token counts, unparsable numbers,
        indices out of range, NaN or infinite values, wrong entry count);
        messages carry the 1-based line number.
    NotSymmetricError
        ``general`` storage whose pattern or values are not symmetric,
        or a non-square size line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise MatrixFormatError("line 1: missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5:
        raise MatrixFormatError(f"line 1: header has {len(header)} tokens, expected 5")
    fields = [tok.lower() for tok in header[1:]]
    for (name, allowed), value in zip(_HEADER, fields):
        if value not in allowed:
            only = " or ".join(map(repr, allowed))
            raise MatrixFormatError(f"line 1: {name} {value!r} not supported (only {only})")
    symm = fields[3]

    # Data lines after the header, blank and % lines skipped: the size line
    # first, then the entries.
    data = (
        (lineno, raw.strip())
        for lineno, raw in enumerate(lines[1:], start=2)
        if raw.lstrip()[:1] not in ("", "%")
    )
    size_lineno, size_line = next(data, (None, None))
    if size_lineno is None:
        raise MalformedFileError(f"line {len(lines)}: no size line found")

    tokens = size_line.split()
    if len(tokens) != 3:
        raise MalformedFileError(
            f"line {size_lineno}: size line has {len(tokens)} tokens, expected 3"
        )
    try:
        nrows, ncols, n_entries = (int(tok) for tok in tokens)
    except ValueError:
        raise MalformedFileError(f"line {size_lineno}: size line is not three integers") from None
    if nrows != ncols:
        raise NotSymmetricError(f"line {size_lineno}: matrix is {nrows}x{ncols}, not square")
    if nrows <= 0:
        raise MalformedFileError(f"line {size_lineno}: dimension must be positive")
    if n_entries < 0:
        raise MalformedFileError(f"line {size_lineno}: negative entry count")
    # Only a '%' after the size line (a comment line or a bad entry) makes
    # the entry lines go through a filter one by one; np.loadtxt skips
    # blank lines itself.
    entries = lines[size_lineno:]
    if text.count("%") > sum(line.count("%") for line in lines[:size_lineno]):
        entries = [raw for raw in entries if raw.lstrip()[:1] != "%"]

    parsed = _load_entries(entries, nrows, n_entries)
    if parsed is None:
        parsed = _scan_entries(data, nrows, n_entries, len(lines))
    rows, cols, vals = parsed["i"] - 1, parsed["j"] - 1, parsed["v"]

    if symm == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    import scipy.sparse as sp

    return SparseSymmetric.from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)))


def _load_entries(entries, n, n_entries):
    """Bulk-parse entry lines into 1-based ``_ENTRY`` records, or None.

    ``entries`` may hold blank lines, which ``np.loadtxt`` skips.  None
    means no entries, a count other than ``n_entries``, or lines that break
    a rule of ``_scan_entries`` (or a stricter one of ``np.loadtxt``, which
    refuses ``1_0`` for 10); the caller then rescans them one at a time,
    which names the first bad line.
    """
    # np.loadtxt warns on lines that hold no data at all.
    if not n_entries or not any(map(str.strip, entries)):
        return None
    try:
        parsed = np.loadtxt(entries, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    if parsed.size != n_entries:
        return None
    rows, cols = parsed["i"], parsed["j"]
    in_range = (rows >= 1) & (rows <= n) & (cols >= 1) & (cols <= n)
    return parsed if in_range.all() and np.isfinite(parsed["v"]).all() else None


def _scan_entries(data, n, n_entries, n_lines):
    """Parse the (line number, stripped line) entries of ``data`` one at a time.

    Raises MalformedFileError at the first line that breaks a rule, in line
    order; returns the 1-based ``_ENTRY`` records of the lines read if none
    does.  Nothing is sized by ``n_entries``: it is only checked against
    what was read.
    """
    records = []
    for lineno, stripped in data:
        if len(records) == n_entries:
            raise MalformedFileError(
                f"line {lineno}: more than the declared {n_entries} entries"
            )
        tokens = stripped.split()
        if len(tokens) != 3:
            raise MalformedFileError(
                f"line {lineno}: entry has {len(tokens)} tokens, expected 3"
            )
        try:
            i = int(tokens[0])
            j = int(tokens[1])
            v = float(tokens[2])
        except ValueError:
            raise MalformedFileError(f"line {lineno}: entry is not 'int int real'") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise MalformedFileError(
                f"line {lineno}: index ({i}, {j}) outside 1..{n}"
            )
        if not math.isfinite(v):
            raise MalformedFileError(f"line {lineno}: value is not finite")
        records.append((i, j, v))
    if len(records) != n_entries:
        raise MalformedFileError(
            f"line {n_lines}: file ends after {len(records)} of {n_entries} declared entries"
        )
    return np.array(records, dtype=_ENTRY)


def load_matrix_market(path):
    """Read and parse an ``.mtx`` file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix_market(handle.read())


def write_matrix_market(a):
    """Serialize to Matrix Market ``general`` coordinate text.

    All stored entries (both triangles, explicit zeros included) are written
    with 17 significant digits, so parse(write(A)) reproduces the CSR arrays
    exactly.
    """
    out = ["%%MatrixMarket matrix coordinate real general"]
    out.append(f"{a.n} {a.n} {a.nnz}")
    for i in range(a.n):
        for k in range(a.row_ptr[i], a.row_ptr[i + 1]):
            out.append(f"{i + 1} {a.col_idx[k] + 1} {a.values[k]:.17g}")
    return "\n".join(out) + "\n"


def save_matrix_market(a, path):
    """Write ``a`` to ``path`` in Matrix Market format."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_matrix_market(a))
