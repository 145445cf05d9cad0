"""Sparse symmetric matrices in CSR form and Matrix Market I/O.

Only real symmetric matrices are supported.  Symmetric-storage files are
mirrored on read so the stored pattern always contains both (i, j) and
(j, i); ``general``-storage files must already be numerically symmetric.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MalformedFileError, MatrixFormatError, NotSymmetricError

# Relative tolerance used when checking value symmetry of general-storage files.
SYMMETRY_RTOL = 1e-12


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

    The constructor arguments are handed to one scipy CSR matrix; the three
    array attributes are then read-only views of its arrays, so the indices
    are stored once, in scipy's index dtype (int32 whenever it fits).

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
    _csr: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._csr = sp.csr_matrix(
            (np.asarray(self.values, dtype=np.float64), self.col_idx, self.row_ptr),
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
        """Build from any scipy sparse matrix; enforces numerical symmetry."""
        csr = sp.csr_matrix(a)
        if csr.shape[0] != csr.shape[1]:
            raise NotSymmetricError(f"matrix is {csr.shape[0]}x{csr.shape[1]}, not square")
        csr.sum_duplicates()
        csr.sort_indices()
        _check_numerically_symmetric(csr)
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, a):
        """Build from a dense array, dropping exact zeros."""
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

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

    Parameters
    ----------
    a : SparseSymmetric
    x : ndarray, shape (n,) or (n, m)
    counter : MVCounter, optional
        Incremented by the number of columns of ``x``.

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
        row = int(np.searchsorted(csr.indptr, k, side="right") - 1)
        col = int(csr.indices[k])
        raise NotSymmetricError(
            f"values at ({row + 1}, {col + 1}) and transpose differ by {diff[k]:.3e}"
        )


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
        indices out of range, wrong entry count); messages carry the
        1-based line number.
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
    _, obj, fmt, fld, symm = (tok.lower() for tok in header)
    if obj != "matrix":
        raise MatrixFormatError(f"line 1: object {obj!r} not supported (only 'matrix')")
    if fmt != "coordinate":
        raise MatrixFormatError(f"line 1: format {fmt!r} not supported (only 'coordinate')")
    if fld != "real":
        raise MatrixFormatError(f"line 1: field {fld!r} not supported (only 'real')")
    if symm not in ("symmetric", "general"):
        raise MatrixFormatError(
            f"line 1: symmetry {symm!r} not supported (only 'symmetric' or 'general')"
        )

    # Data lines after the header, blank and % lines skipped: the size line
    # first, then the entries.
    data = (
        (lineno, stripped)
        for lineno, stripped in enumerate((raw.strip() for raw in lines[1:]), start=2)
        if stripped and not stripped.startswith("%")
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

    rows = np.empty(n_entries, dtype=np.int64)
    cols = np.empty(n_entries, dtype=np.int64)
    vals = np.empty(n_entries, dtype=np.float64)
    seen = 0
    for lineno, stripped in data:
        if seen >= n_entries:
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
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MalformedFileError(
                f"line {lineno}: index ({i}, {j}) outside 1..{nrows}"
            )
        rows[seen] = i - 1
        cols[seen] = j - 1
        vals[seen] = v
        seen += 1
    if seen != n_entries:
        raise MalformedFileError(
            f"line {len(lines)}: file ends after {seen} of {n_entries} declared entries"
        )

    if symm == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return SparseSymmetric.from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)))


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
