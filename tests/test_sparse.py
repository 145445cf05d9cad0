"""Matrix Market parsing, symmetric CSR storage, and counted matvec."""

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


@pytest.mark.parametrize(
    "header",
    [
        "%%MatrixMarket matrix coordinate complex symmetric",
        "%%MatrixMarket matrix coordinate pattern symmetric",
        "%%MatrixMarket matrix coordinate integer general",
        "%%MatrixMarket matrix array real general",
        "%%MatrixMarket vector coordinate real general",
        "%%MatrixMarket matrix coordinate real skew-symmetric",
        "%%MatrixMarket matrix coordinate real",
    ],
)
def test_unsupported_headers_rejected(header):
    with pytest.raises(MatrixFormatError, match="line 1"):
        parse_matrix_market(header + "\n1 1 1\n1 1 1.0\n")


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
