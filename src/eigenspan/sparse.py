"""Sparse symmetric matrices in CSR form and Matrix Market I/O.

Only real symmetric matrices are supported.  Symmetric-storage files are
mirrored on read so the stored pattern always contains both (i, j) and
(j, i); ``general``-storage files must already be numerically symmetric.

eigenspan builds and keeps its own CSR arrays: one numpy builder
(``_from_coordinates``) serves the Matrix Market reader, ``from_dense`` and
``from_scipy``, so reading a matrix imports no ``scipy.sparse``.  Products
call scipy's compiled CSR kernels, which ``_kernels`` loads straight from
their extension file at the first product; ``scipy.sparse`` itself, and the
numpy modules it imports, stay unloaded.

Every product with A is one kernel call (``_add_product``): the count's step
adds its products into an iterate through ``matvec_add``, and ``matvec``
multiplies through the matrix's own ``@`` (``BlockCSR``).  Since A is real,
a complex block is multiplied in real arithmetic, as its float64 view; it is
still billed one MV per complex column.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
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
# The extension module that holds scipy's CSR kernels.
_SPARSETOOLS = "scipy.sparse._sparsetools"


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

    The constructor arguments are held by one ``BlockCSR``, whose ``@``
    multiplies by one kernel call; the three array attributes are then
    read-only views of its arrays, so the indices are stored once, int32
    whenever n and the entry count fit.  The constructor trusts the arrays
    to be sorted, duplicate-free and symmetric; the ``from_*`` builders and
    the Matrix Market reader check that.  Complex values are refused with
    MatrixFormatError.

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
    _csr: "BlockCSR" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind == "c":
            raise MatrixFormatError(
                f"values have dtype {values.dtype}: only real symmetric matrices are supported"
            )
        self._csr = BlockCSR(self.n, self.row_ptr, self.col_idx, values)
        self.row_ptr, self.col_idx, self.values = (
            _read_only(x) for x in (self._csr.row_ptr, self._csr.col_idx, self._csr.values)
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
        coo = a.tocoo()
        return _from_coordinates(coo.shape, coo.row, coo.col, coo.data)

    @classmethod
    def from_dense(cls, a):
        """Build from a 2-D array, dropping exact zeros.

        Complex input stays complex, so it is refused rather than cast to real.
        """
        a = np.atleast_2d(np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64))
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {a.ndim} dimensions")
        rows, cols = np.nonzero(a)
        return _from_coordinates(a.shape, rows, cols, a[rows, cols])

    def toarray(self):
        return self._csr.toarray()

    def diagonal(self):
        return self._csr.diagonal()


class BlockCSR:
    """The CSR arrays of a square float64 matrix, with a ``@`` that is one kernel call.

    The index arrays are int32 whenever n and the entry count fit, int64
    otherwise.  ``A @ x`` takes a dense vector or block with n rows and
    returns a new ndarray: float32, complex64, integer and boolean operands
    are upcast to float64 or complex128 first, as scipy does.  A vector is
    one call of scipy's ``csr_matvec`` into a zeroed result, a block one call
    of ``csr_matvecs``.  A complex block X_r + i X_i goes in as its
    C-contiguous float64 view of shape (n, 2k): A is real, so
    A X = A X_r + i A X_i is the real row loop over 2k columns, with no
    complex copy of A's values.  Sparse and other non-numeric operands are
    refused with TypeError.
    """

    def __init__(self, n, row_ptr, col_idx, values):
        row_ptr, col_idx = np.asarray(row_ptr), np.asarray(col_idx)
        values = np.asarray(values, dtype=np.float64)
        # The kernels index x and A's arrays through these without bounds checks.
        if not (
            row_ptr.shape == (n + 1,) and values.ndim == 1 and col_idx.shape == values.shape
            and row_ptr[0] == 0 and row_ptr[-1] == values.size and np.all(np.diff(row_ptr) >= 0)
            and (values.size == 0 or 0 <= col_idx.min() <= col_idx.max() < n)
        ):
            raise ValueError(f"row_ptr, col_idx and values are no CSR matrix of size {n}x{n}")
        index = np.int32 if max(n, values.size) <= np.iinfo(np.int32).max else np.int64
        self.shape = (n, n)
        self.row_ptr = row_ptr.astype(index, copy=False)
        self.col_idx = col_idx.astype(index, copy=False)
        self.values = values

    def __matmul__(self, other):
        x = np.asarray(other)
        if x.dtype.kind not in "biufc":
            raise TypeError(f"cannot multiply by {type(other).__name__} of dtype {x.dtype}:"
                            " only dense numeric arrays")
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: matrix is {self.shape[0]}x{self.shape[1]},"
                             f" operand has shape {x.shape}")
        dtype = np.complex128 if x.dtype.kind == "c" else np.float64
        x = np.ascontiguousarray(x, dtype=dtype)
        out = np.zeros(x.shape, dtype=dtype)
        x_in, target = x, out
        if x.ndim == 2 and dtype == np.complex128:
            x_in, target = x.view(np.float64), out.view(np.float64)
        _add_product(self.shape, self.row_ptr, self.col_idx, self.values, x_in, target)
        return out

    def _rows(self):
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.row_ptr.dtype), np.diff(self.row_ptr))

    def toarray(self):
        out = np.zeros(self.shape)
        np.add.at(out, (self._rows(), self.col_idx), self.values)
        return out

    def diagonal(self):
        rows = self._rows()
        on = rows == self.col_idx
        out = np.zeros(self.shape[0])
        np.add.at(out, rows[on], self.values[on])
        return out


def _read_only(x):
    view = x.view()
    view.flags.writeable = False
    return view


def _from_coordinates(shape, rows, cols, values):
    """SparseSymmetric from 0-based coordinates, checked finite and symmetric.

    A stable sort of the keys row * n + col puts the entries in CSR order
    and keeps repeated coordinates in input order; each run of repeats is
    then summed in that order.  Explicit zeros are kept.  Raises
    NotSymmetricError for a non-square shape or an asymmetric result and
    NonFiniteError for a non-finite sum, naming the 1-based (row, col) of the
    first such entry in CSR order.
    """
    if shape[0] != shape[1]:
        raise NotSymmetricError(f"matrix is {shape[0]}x{shape[1]}, not square")
    n = shape[0]
    key = np.asarray(rows, dtype=np.int64) * n + cols
    order = np.argsort(key, kind="stable")
    key, values = key[order], np.asarray(values)[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    if not first.all():
        repeat = ~first
        summed = values[first]
        np.add.at(summed, np.cumsum(first)[repeat] - 1, values[repeat])
        key, values = key[first], summed
    rows, cols = np.divmod(key, n)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteError(f"value at {_position(rows, cols, bad[0])} is not finite")
    _check_numerically_symmetric(n, key, rows, cols, values)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return SparseSymmetric(n, row_ptr, cols, values)


def _position(rows, cols, k):
    """1-based (row, column) of entry k."""
    return f"({rows[k] + 1}, {cols[k] + 1})"


def _check_numerically_symmetric(n, key, rows, cols, values):
    """Raise NotSymmetricError unless pattern and values are symmetric.

    ``key`` holds the sorted, distinct keys row * n + col of the entries.
    Pattern symmetry is exact (the transposed keys must be the same set,
    explicit zeros included); values must agree with their transposes to
    ``SYMMETRY_RTOL`` relative to max(1, |value|).
    """
    # The entries are in CSR order, rows ascending, so a stable sort by
    # column alone puts the transposed keys in order; numpy sorts 16-bit
    # keys by radix, much faster than the 64-bit ones.
    perm = np.argsort(cols.astype(np.uint16) if n <= 1 << 16 else cols, kind="stable")
    if not np.array_equal((cols * n + rows)[perm], key):
        raise NotSymmetricError("stored sparsity pattern is not symmetric")
    mirror = values[perm]
    if np.array_equal(values, mirror):
        return
    diff = np.abs(values - mirror)
    tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(values))
    if np.any(diff > tol):
        k = int(np.argmax(diff - tol))
        raise NotSymmetricError(
            f"values at {_position(rows, cols, k)} and transpose differ by {diff[k]:.3e}"
        )


def matvec(a, x, counter=None):
    """Apply a sparse symmetric matrix to a vector or block of vectors.

    One kernel call through the matrix's ``@`` (``BlockCSR``): a vector
    takes scipy's ``csr_matvec``, a block ``csr_matvecs``, a complex block
    in real arithmetic as its float64 view.

    Parameters
    ----------
    a : SparseSymmetric
    x : ndarray, shape (n,) or (n, m)
    counter : MVCounter, optional
        Incremented by the number of columns of ``x``: a complex column is
        one MV, as a real one is.

    Returns
    -------
    ndarray of ``x``'s shape: complex128 for a complex ``x``, else float64.
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

    A vector ``x`` of shape (n,) takes ``csr_matvec`` and a block of shape
    (n, m) ``csr_matvecs``; ``x`` is read in C order (so copied if not
    C-contiguous) and ``out`` (C-contiguous, of ``x``'s shape) is written
    in place.
    """
    vector, block = _kernels()
    try:
        if x.ndim == 1:
            name = "csr_matvec"
            vector(*shape, row_ptr, col_idx, values, x, out)
        else:
            name = "csr_matvecs"
            block(*shape, x.shape[1], row_ptr, col_idx, values, x.ravel(), out.ravel())
    except (TypeError, ValueError) as exc:
        raise _kernel_error(name, f"rejected its arguments ({exc})") from None


def _kernel_error(name, problem):
    import scipy

    return RuntimeError(f"scipy {scipy.__version__}: the in-place CSR kernel {name} {problem}")


@functools.cache
def _kernels():
    """scipy's private kernels y += A x and Y += A X: (``csr_matvec``, ``csr_matvecs``).

    They live in the extension module ``scipy.sparse._sparsetools``.  An
    ordinary import of it first runs ``scipy.sparse``'s ``__init__``, which
    loads all of ``scipy.sparse`` and the numpy modules its array-API layer
    clones.  So unless the module is loaded already, its file is looked up
    next to scipy's (``importlib.util.find_spec`` runs no scipy code) and
    loaded by itself under its real name; only when there is no such file
    does the ordinary import run.
    """
    module = sys.modules.get(_SPARSETOOLS) or _load_sparsetools_file()
    try:
        if module is None:
            module = importlib.import_module(_SPARSETOOLS)
        return module.csr_matvec, module.csr_matvecs
    except (ImportError, AttributeError):
        raise _kernel_error("csr_matvecs", f"is missing from {_SPARSETOOLS}") from None


def _load_sparsetools_file():
    """``scipy.sparse._sparsetools`` loaded from its file without its package, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_SPARSETOOLS, path, loader=loader)
                )
                loader.exec_module(module)
                # Loading may register it in sys.modules without its package;
                # dropping it lets a later `import scipy.sparse` import it as
                # usual and bind it to the package as ``_sparsetools``.
                if sys.modules.get(_SPARSETOOLS) is module:
                    del sys.modules[_SPARSETOOLS]
                return module
    return None


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
    return _from_coordinates((nrows, ncols), rows, cols, vals)


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
