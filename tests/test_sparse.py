"""Matrix Market parsing, symmetric CSR storage, and counted matvec."""

import re
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from eigenspan import (
    MVCounter,
    MalformedFileError,
    MatrixFormatError,
    NonFiniteError,
    NotSymmetricError,
    SparseSymmetric,
    load_matrix_market,
    matvec,
    parse_matrix_market,
    save_matrix_market,
    write_matrix_market,
)
from eigenspan import sparse
from helpers import laplacian_2d, random_symmetric

SYMMETRIC_2X2 = """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 2.0
2 1 1.0
"""

GENERAL_2X2 = """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 2.0
1 2 1.0
2 1 1.0
"""


def test_symmetric_storage_is_mirrored():
    a = parse_matrix_market(SYMMETRIC_2X2)
    assert a.n == 2
    # (2,2) is absent from the file, so only three entries are stored.
    assert a.nnz == 3
    np.testing.assert_array_equal(a.toarray(), [[2.0, 1.0], [1.0, 0.0]])


def test_general_storage_gives_identical_csr():
    mirrored = parse_matrix_market(SYMMETRIC_2X2)
    general = parse_matrix_market(GENERAL_2X2)
    np.testing.assert_array_equal(mirrored.row_ptr, general.row_ptr)
    np.testing.assert_array_equal(mirrored.col_idx, general.col_idx)
    np.testing.assert_array_equal(mirrored.values, general.values)


def test_general_storage_with_asymmetric_values_rejected():
    text = """%%MatrixMarket matrix coordinate real general
2 2 2
1 2 1.0
2 1 1.5
"""
    with pytest.raises(NotSymmetricError):
        parse_matrix_market(text)


def test_general_storage_with_asymmetric_pattern_rejected():
    text = """%%MatrixMarket matrix coordinate real general
2 2 1
1 2 1.0
"""
    with pytest.raises(NotSymmetricError):
        parse_matrix_market(text)


def test_non_square_size_line_rejected():
    text = """%%MatrixMarket matrix coordinate real general
2 3 1
1 2 1.0
"""
    with pytest.raises(NotSymmetricError):
        parse_matrix_market(text)


# Each unsupported header with the whole message it is refused with.
UNSUPPORTED_HEADERS = {
    "%%MatrixMarket matrix coordinate complex symmetric":
        "line 1: field 'complex' not supported (only 'real')",
    "%%MatrixMarket matrix coordinate pattern symmetric":
        "line 1: field 'pattern' not supported (only 'real')",
    "%%MatrixMarket matrix coordinate integer general":
        "line 1: field 'integer' not supported (only 'real')",
    "%%MatrixMarket matrix array real general":
        "line 1: format 'array' not supported (only 'coordinate')",
    "%%MatrixMarket vector coordinate real general":
        "line 1: object 'vector' not supported (only 'matrix')",
    "%%MatrixMarket matrix coordinate real skew-symmetric":
        "line 1: symmetry 'skew-symmetric' not supported (only 'symmetric' or 'general')",
    "%%MatrixMarket matrix coordinate real": "line 1: header has 4 tokens, expected 5",
}


@pytest.mark.parametrize("header", list(UNSUPPORTED_HEADERS))
def test_unsupported_headers_rejected(header):
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix_market(header + "\n1 1 1\n1 1 1.0\n")
    assert str(exc.value) == UNSUPPORTED_HEADERS[header]


def test_missing_banner_rejected():
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix_market("1 1 1\n1 1 1.0\n")


def test_header_is_case_insensitive():
    text = "%%MatrixMarket MATRIX Coordinate Real SYMMETRIC\n1 1 1\n1 1 4.0\n"
    a = parse_matrix_market(text)
    np.testing.assert_array_equal(a.toarray(), [[4.0]])


def test_malformed_size_line_reports_line_number():
    text = "%%MatrixMarket matrix coordinate real general\n2 2\n"
    with pytest.raises(MalformedFileError, match="line 2"):
        parse_matrix_market(text)


def test_malformed_entry_reports_line_number_after_comments():
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "1 1 1\n"
        "1 1\n"
    )
    with pytest.raises(MalformedFileError, match="line 4"):
        parse_matrix_market(text)


def test_non_numeric_entry_rejected():
    text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 x 1.0\n"
    with pytest.raises(MalformedFileError, match="line 3"):
        parse_matrix_market(text)


@pytest.mark.parametrize("comment, tokens", [("%note", 4), ("% note", 5)])
def test_trailing_comment_on_an_entry_counts_as_tokens(comment, tokens):
    text = f"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0 {comment}\n"
    with pytest.raises(MalformedFileError, match=f"line 3: entry has {tokens} tokens, expected 3"):
        parse_matrix_market(text)


def test_real_valued_index_rejected():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1.0 2 1.0\n"
    with pytest.raises(MalformedFileError, match="line 4: entry is not 'int int real'"):
        parse_matrix_market(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_value_rejected_at_its_line(value):
    text = f"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 2 {value}\n3 3 1.0\n"
    with pytest.raises(MalformedFileError, match="line 4: value is not finite"):
        parse_matrix_market(text)


def test_entries_the_bulk_parser_refuses_are_rescanned():
    # Python's int() reads 1_0 as 10; np.loadtxt does not, so these lines
    # take the line-by-line path and still parse.
    a = parse_matrix_market("%%MatrixMarket matrix coordinate real general\n10 10 1\n1_0 1_0 2.5\n")
    assert a.toarray()[9, 9] == 2.5


def test_index_out_of_range_rejected():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n"
    with pytest.raises(MalformedFileError, match="line 3"):
        parse_matrix_market(text)


def test_zero_index_rejected():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n0 1 1.0\n"
    with pytest.raises(MalformedFileError):
        parse_matrix_market(text)


def test_too_few_entries_rejected():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n"
    with pytest.raises(MalformedFileError):
        parse_matrix_market(text)


def test_huge_declared_entry_count_rejected_before_allocating():
    # 10^12 entries would need 7.28 TiB of index and value arrays.
    text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 1000000000000\n1 1 2.0\n"
    with pytest.raises(
        MalformedFileError, match="line 3: file ends after 1 of 1000000000000 declared entries"
    ):
        parse_matrix_market(text)


def test_too_many_entries_rejected():
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 1\n"
        "1 1 2.0\n"
        "2 2 3.0\n"
    )
    with pytest.raises(MalformedFileError, match="line 4"):
        parse_matrix_market(text)


def test_duplicate_entries_are_summed():
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 2\n"
        "1 1 1.0\n"
        "1 1 1.5\n"
    )
    a = parse_matrix_market(text)
    assert a.nnz == 1
    np.testing.assert_array_equal(a.toarray(), [[2.5]])


def test_explicit_zeros_are_kept():
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n"
        "1 1 3.0\n"
        "1 2 0.0\n"
        "2 1 0.0\n"
        "2 2 4.0\n"
    )
    a = parse_matrix_market(text)
    assert a.nnz == 4
    assert np.count_nonzero(a.values == 0.0) == 2


def test_comments_and_blank_lines_are_skipped():
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment before size\n"
        "\n"
        "2 2 2\n"
        "% comment between entries\n"
        "1 1 2.0\n"
        "\n"
        "2 1 1.0\n"
    )
    a = parse_matrix_market(text)
    np.testing.assert_array_equal(a.toarray(), [[2.0, 1.0], [1.0, 0.0]])


# Comment, blank and indented lines among the entries; "3 3 4" is line 3.
MIXED_ENTRIES = (
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "% comment before size\n"
    "3 3 4\n"
    "1 1 2.0\n"
    "\n"
    "   % indented comment\n"
    "  2 1 -1.0\n"
    "%\n"
    "\t\n"
    "\t2 2 3.0  \n"
    "   \n"
    "3 3 1.0\n"
)
MIXED_DENSE = [[2.0, -1.0, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("keep_comments", [True, False])
def test_comment_blank_and_indented_lines_among_entries_take_the_bulk_parse(monkeypatch,
                                                                             keep_comments):
    text = MIXED_ENTRIES
    if not keep_comments:  # blank and indented lines only
        text = "".join(line for line in text.splitlines(True) if not line.lstrip().startswith("%")
                       or line.startswith("%%"))
    monkeypatch.setattr(sparse, "_scan_entries", lambda *args: pytest.fail("line scan ran"))
    np.testing.assert_array_equal(parse_matrix_market(text).toarray(), MIXED_DENSE)


@pytest.mark.parametrize("count, line, message", [
    (5, "  3 1 x", "entry is not 'int int real'"),
    (5, "\t3 1 nan", "value is not finite"),
    (5, "3 4 1.0", r"index \(3, 4\) outside 1..3"),
    (5, " 3 1 1.0 % note", "entry has 5 tokens, expected 3"),
    (4, "3 1 1.0", "more than the declared 4 entries"),
])
def test_a_bad_entry_after_comment_blank_and_indented_lines_names_its_line(count, line, message):
    # Lines 13 and 14 are blank and a comment; the bad entry is line 15.
    text = MIXED_ENTRIES.replace("3 3 4\n", f"3 3 {count}\n") + "\n% last\n" + line + "\n"
    with pytest.raises(MalformedFileError, match=f"^line 15: {message}"):
        parse_matrix_market(text)


def test_write_then_parse_round_trips_csr_arrays(rng):
    dense = random_symmetric(12, rng)
    dense[np.abs(dense) < 0.6] = 0.0  # sparsify, keeping symmetry
    dense = (dense + dense.T) / 2.0
    a = SparseSymmetric.from_dense(dense)
    b = parse_matrix_market(write_matrix_market(a))
    assert b.n == a.n
    np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
    np.testing.assert_array_equal(a.col_idx, b.col_idx)
    np.testing.assert_array_equal(a.values, b.values)


def test_grid_round_trips_csr_arrays_through_the_bulk_parser(rng, monkeypatch):
    # The 100 x 100 grid's pattern with random symmetric values; every line
    # is well formed, so the line-by-line scan must not run.
    upper = sp.triu(laplacian_2d(100)._csr).tocoo()
    upper.data = rng.standard_normal(upper.nnz)
    a = SparseSymmetric.from_scipy(upper + sp.triu(upper, 1).T)
    monkeypatch.setattr(sparse, "_scan_entries", lambda *args: pytest.fail("line scan ran"))
    b = parse_matrix_market(write_matrix_market(a))
    assert b.n == a.n == 10_000
    np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
    np.testing.assert_array_equal(a.col_idx, b.col_idx)
    np.testing.assert_array_equal(a.values, b.values)


def test_save_then_load_round_trips(tmp_path, rng):
    a = SparseSymmetric.from_dense(random_symmetric(7, rng))
    path = tmp_path / "matrix.mtx"
    save_matrix_market(a, path)
    b = load_matrix_market(path)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.col_idx, b.col_idx)


def test_from_scipy_rejects_asymmetric_dense(rng):
    g = rng.standard_normal((5, 5))
    with pytest.raises(NotSymmetricError):
        SparseSymmetric.from_dense(g + 0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_from_dense_rejects_non_finite_values(value):
    dense = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, value], [0.0, value, 3.0]])
    with pytest.raises(NonFiniteError, match=r"value at \(2, 3\) is not finite"):
        SparseSymmetric.from_dense(dense)
    with pytest.raises(ValueError):
        SparseSymmetric.from_scipy(sp.csr_matrix(dense))


def test_csr_invariants_hold(rng):
    a = SparseSymmetric.from_dense(random_symmetric(9, rng))
    assert a.row_ptr[0] == 0
    assert a.row_ptr[-1] == a.nnz
    assert np.all(np.diff(a.row_ptr) >= 0)
    for i in range(a.n):
        cols = a.col_idx[a.row_ptr[i] : a.row_ptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
        assert np.all((cols >= 0) & (cols < a.n))


def test_matvec_identity_returns_input(rng):
    a = SparseSymmetric.from_dense(np.eye(6))
    x = rng.standard_normal(6)
    np.testing.assert_array_equal(matvec(a, x), x)


def test_matvec_hand_example():
    a = SparseSymmetric.from_dense([[2.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(matvec(a, np.array([1.0, 1.0])), [3.0, 1.0])


def test_matvec_matches_dense_multiplication(rng):
    dense = random_symmetric(50, rng)
    a = SparseSymmetric.from_dense(dense)
    x = rng.standard_normal(50)
    y = matvec(a, x)
    ref = dense @ x
    assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)


def test_matvec_linearity(rng):
    dense = random_symmetric(40, rng)
    a = SparseSymmetric.from_dense(dense)
    for _ in range(5):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        alpha, beta = rng.standard_normal(2)
        lhs = matvec(a, alpha * x + beta * y)
        rhs = alpha * matvec(a, x) + beta * matvec(a, y)
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_matvec_counts_columns(rng):
    a = SparseSymmetric.from_dense(random_symmetric(8, rng))
    counter = MVCounter()
    matvec(a, rng.standard_normal(8), counter)
    assert counter.count == 1
    matvec(a, rng.standard_normal((8, 3)), counter)
    assert counter.count == 4
    counter.reset()
    assert counter.count == 0


def test_matvec_dimension_mismatch():
    a = SparseSymmetric.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        matvec(a, np.zeros(5))


def _index_dtypes(a, dtype):
    """``a`` with its CSR index arrays in ``dtype``."""
    a.row_ptr, a.col_idx = a.row_ptr.astype(dtype), a.col_idx.astype(dtype)
    return a


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", [(7,), (7, 1), (7, 3)])
def test_matvec_add_adds_the_product_into_out(rng, index_dtype, shape):
    # Small integers, so every sum is exact whatever its order.
    dense = rng.integers(-3, 4, size=(7, 7)).astype(np.float64)
    dense[np.abs(dense) < 2] = 0.0
    dense = dense + dense.T
    a = _index_dtypes(SparseSymmetric.from_dense(dense), index_dtype)
    x = rng.integers(-5, 6, size=shape).astype(np.float64)
    out = rng.integers(-5, 6, size=shape).astype(np.float64)
    expected = out + dense @ x
    counter = MVCounter()
    assert sparse.matvec_add(a, x, out, counter) is None
    np.testing.assert_array_equal(out, expected)
    assert counter.count == (1 if len(shape) == 1 else shape[1])


@pytest.mark.parametrize("out", [
    np.zeros((8, 6))[:, ::2],  # not contiguous: a copy would take the sum
    np.zeros((3, 8)).T,
    np.zeros((8, 3), dtype=np.float32),
    np.zeros((8, 2)),
    np.zeros(24),
], ids=["strided", "fortran", "float32", "narrow", "flat"])
def test_matvec_add_refuses_an_out_it_cannot_write_in_place(rng, out):
    a = SparseSymmetric.from_dense(random_symmetric(8, rng))
    before = out.copy()
    counter = MVCounter()
    with pytest.raises(ValueError, match="out must be a writeable C-contiguous float64 array"):
        sparse.matvec_add(a, rng.standard_normal((8, 3)), out, counter)
    np.testing.assert_array_equal(out, before)
    assert counter.count == 0


def test_matvec_add_refuses_a_read_only_out_and_a_dimension_mismatch(rng):
    a = SparseSymmetric.from_dense(random_symmetric(8, rng))
    out = np.zeros((8, 3))
    out.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        sparse.matvec_add(a, np.ones((8, 3)), out)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sparse.matvec_add(a, np.ones((5, 3)), np.zeros((5, 3)))


def test_matvec_add_names_the_scipy_version_when_the_kernel_fails(rng, monkeypatch):
    import scipy

    a = SparseSymmetric.from_dense(random_symmetric(8, rng))
    version = re.escape(f"scipy {scipy.__version__}: the in-place CSR kernel csr_matvecs")
    # Complex operands need a complex out, which the kernel refuses to fill.
    with pytest.raises(RuntimeError, match=f"^{version} rejected its arguments") as rejected:
        sparse.matvec_add(a, np.ones((8, 3), dtype=complex), np.zeros((8, 3)))
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    sparse._add_product_kernel.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"^{version} is missing") as missing:
            sparse.matvec_add(a, np.ones((8, 3)), np.zeros((8, 3)))
    finally:
        sparse._add_product_kernel.cache_clear()
    for excinfo in (rejected, missing):
        assert "\n" not in str(excinfo.value)
