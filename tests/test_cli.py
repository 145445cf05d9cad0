"""End-to-end tests for the command-line front end.

Commands run in-process through ``eigenspan.cli.main`` with pinned seeds, so
every asserted report value is reproducible byte for byte.
"""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

import eigenspan
from eigenspan import count_interval, plan_interval
from eigenspan.cli import build_parser, main
from eigenspan import fit_slope

import report_diff
from helpers import (CHILD_ENV, ColumnSpy, force_panels, laplacian_1d, laplacian_2d,
                     laplacian_eigs, run_child)


DIAG_EV = np.linspace(-1.0, 1.0, 200)


def _schema():
    with resources.files("eigenspan").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    """Matrix Market fixtures shared by the command tests."""
    from eigenspan import SparseSymmetric, save_matrix_market

    root = tmp_path_factory.mktemp("mtx")
    diag = root / "diag200.mtx"
    save_matrix_market(SparseSymmetric.from_dense(np.diag(DIAG_EV)), diag)
    lap = root / "lap1000.mtx"
    save_matrix_market(laplacian_1d(1000), lap)
    small = root / "lap12.mtx"
    save_matrix_market(laplacian_1d(12), small)
    paths = {"diag200": str(diag), "lap1000": str(lap), "lap12": str(small)}
    # n = 9801 on the 99x99 grid is no multiple of DOT_LANES, so the count's
    # rings carry zero rows below n.
    for k in (100, 99):
        paths[f"grid{k}"] = str(root / f"lap2d{k}.mtx")
        save_matrix_market(laplacian_2d(k), paths[f"grid{k}"])
    return paths


def _run_json(argv, path):
    rc = main(argv + ["--report-path", str(path)])
    report = json.loads(path.read_text())
    jsonschema.validate(report, _schema())
    return rc, report


# ---------------------------------------------------------------------------
# solve


def test_solve_laplacian_interior_interval(matrices, tmp_path):
    rc, report = _run_json(
        ["solve", "--matrix-path", matrices["lap1000"], "--a", "1.9", "--b", "2.1",
         "--seed", "0"],
        tmp_path / "report.json",
    )
    assert rc == 0
    assert report["converged"] is True
    assert report["max_residual"] < 1e-10
    assert report["degree"] == report["config_echo"]["degree"]
    assert report["restarts"] <= report["config_echo"]["max_restarts"]


def test_solve_finds_every_pair_in_interval(matrices, tmp_path):
    rc, report = _run_json(
        ["solve", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "3"],
        tmp_path / "report.json",
    )
    truth = DIAG_EV[(DIAG_EV >= -0.0503) & (DIAG_EV <= 0.0503)]
    values = np.sort([p["value"] for p in report["ritz"]])
    assert rc == 0
    assert report["n_ev_target"] == truth.size == 10
    np.testing.assert_allclose(values, truth, atol=1e-9)
    assert all(p["residual"] < 1e-10 for p in report["ritz"])


def test_solve_explicit_spectral_bounds(matrices, tmp_path):
    rc, report = _run_json(
        ["solve", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "3", "--spectral-bounds=-1,1"],
        tmp_path / "report.json",
    )
    assert rc == 0
    assert report["spectral_range"] == [-1.0, 1.0]


def test_solve_unreachable_tolerance_exits_2(matrices, tmp_path):
    rc, report = _run_json(
        ["solve", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "3", "--tol", "1e-30", "--max-restarts", "3"],
        tmp_path / "report.json",
    )
    assert rc == 2
    assert report["converged"] is False
    assert report["restarts"] == 3
    assert len(report["ritz"]) > 0  # best-effort pairs still reported


def test_malformed_matrix_exits_1_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\nbogus line\n"
    )
    rc = main(["solve", "--matrix-path", str(bad), "--a", "0", "--b", "1"])
    assert rc == 1
    assert "line 4" in capsys.readouterr().err


def test_huge_declared_entry_count_exits_1(tmp_path, capsys):
    bad = tmp_path / "huge.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 1000000000000\n1 1 1.0\n"
    )
    rc = main(["count", "--matrix-path", str(bad), "--a", "0", "--b", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [
        "eigenspan count: line 3: file ends after 1 of 1000000000000 declared entries"
    ]


def test_bad_line_in_a_short_file_exits_1_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "short.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 x\n")
    rc = main(["count", "--matrix-path", str(bad), "--a", "0", "--b", "1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "eigenspan count: line 3: entry is not 'int int real'"
    ]


@pytest.mark.parametrize("verb", ["count", "solve"])
def test_non_finite_matrix_value_exits_1_naming_the_line(tmp_path, capsys, verb):
    bad = tmp_path / "nan.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 2 nan\n3 3 1.0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([verb, "--matrix-path", str(bad), "--a", "0.5", "--b", "1.5"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"eigenspan {verb}: line 4: value is not finite"]


def test_missing_matrix_exits_1(capsys):
    rc = main(["solve", "--matrix-path", "no/such/file.mtx", "--a", "0", "--b", "1"])
    assert rc == 1
    assert "no/such/file.mtx" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["8", "0,4,8", "0,abc"])
def test_malformed_spectral_bounds_exit_1_before_the_load(capsys, bounds):
    rc = main(["solve", "--matrix-path", "no/such/file.mtx", "--a", "0", "--b", "1",
               "--spectral-bounds", bounds])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        f"eigenspan solve: --spectral-bounds expects 'auto' or 'lmin,lmax', got '{bounds}'\n"
    )


def test_infinite_spectral_bound_exits_1_naming_the_pair(matrices, capsys):
    rc = main(["count", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--spectral-bounds=0,inf"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "eigenspan count: need finite lambda_min < lambda_max, got [0.0, inf]\n"


def test_probe_nan_point_exits_1_naming_the_range(capsys):
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "1", "--points=nan,0.1",
               "--d-max", "200", "--n-degrees", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "eigenspan probe: points must lie in [-1, 1], got nan\n"


@pytest.mark.parametrize("argv, ends", [
    (["probe", "--a", "nan", "--b", "0.4", "--p-degree", "0", "--points=0.1"], "[nan, 0.4]"),
    (["count", "--matrix-path", "lap12", "--a", "1.9", "--b", "nan"], "[1.9, nan]"),
], ids=["probe-a", "count-b"])
def test_nan_interval_end_exits_1_naming_the_ends(matrices, capsys, argv, ends):
    rc = main([matrices.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {argv[0]}: interval ends must be numbers, got {ends}\n"


def test_empty_interval_exits_1(matrices, capsys):
    rc = main(["solve", "--matrix-path", matrices["diag200"], "--a", "0.5", "--b", "0.1"])
    assert rc == 1
    assert "interval" in capsys.readouterr().err


def test_count_degree_below_two_exits_1_before_lanczos(matrices, capsys, monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("Lanczos or the count pass ran")

    monkeypatch.setattr(eigenspan.policy, "estimate_spectral_range", no_pass)
    monkeypatch.setattr(eigenspan.policy, "estimate_count", no_pass)
    rc = main(["count", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--count-degree", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "eigenspan count: need count degree >= 2, got 1\n"


@pytest.mark.parametrize("flag", ["--samples", "--m", "--ell", "--max-restarts", "--tol"])
def test_nonpositive_sizes_exit_1_with_one_line(matrices, capsys, flag):
    rc = main(["solve", "--matrix-path", matrices["diag200"], "--a", "-0.05", "--b", "0.05",
               flag, "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("eigenspan solve: ")


@pytest.mark.parametrize("verb", ["solve", "baseline"])
def test_ell_above_n_exits_1_with_one_line(matrices, capsys, verb):
    rc = main([verb, "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--ell", "15", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        f"eigenspan {verb}: the start block has 15 columns, more than the matrix's 12 rows\n"
    )


def _no_count(*args, **kwargs):
    raise AssertionError("the count pass ran")


@pytest.mark.parametrize("verb", ["solve", "baseline", "bench"])
@pytest.mark.parametrize("options, message", [
    (["--tol", "-1"], "need tol > 0, got -1.0"),
    (["--max-restarts", "0"], "need max_restarts >= 1, got 0"),
    (["--ell", "0"], "the start block has no columns"),
    (["--ell", "20000"], "the start block has 20000 columns, more than the matrix's 12 rows"),
    (["--m", "0"], "need m >= 1, got 0"),
    (["--m", "0", "--count-degree", "300"], "need m >= 1, got 0"),
], ids=["tol", "max-restarts", "ell-below-1", "ell-above-n", "m-below-1", "m-below-1-count-degree"])
def test_solver_arguments_are_checked_before_the_count_pass(
    matrices, capsys, monkeypatch, verb, options, message
):
    # The count pass runs in the library entry point; patch it where that calls it.
    monkeypatch.setattr(eigenspan.policy, "estimate_count", _no_count)
    rc = main([verb, "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1"] + options)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {verb}: {message}\n"


@pytest.mark.parametrize("verb", ["solve", "bench"])
@pytest.mark.parametrize("degree", ["0", "1"])
def test_filter_degree_below_two_is_rejected_before_the_count_pass(
    matrices, capsys, monkeypatch, verb, degree
):
    monkeypatch.setattr(eigenspan.policy, "estimate_count", _no_count)
    rc = main([verb, "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--count-degree", "300", "--degree", degree])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {verb}: need degree >= 2, got {degree}\n"


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_conditioning_nonpositive_ell_exits_1_with_one_line(matrices, capsys, ell):
    rc = main(["conditioning", "--matrix-path", matrices["diag200"], "--a", "-0.05",
               "--b", "0.05", "--ell", ell])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eigenspan conditioning: --ell must be >= 1")


def test_conditioning_ell_above_n_exits_1_with_one_line(matrices, capsys):
    rc = main(["conditioning", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--ell", "5000"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "eigenspan conditioning: the start block has 5000 columns, more than the matrix's 12 rows\n"
    )


def test_conditioning_degree_below_two_exits_1_with_one_line(matrices, capsys):
    rc = main(["conditioning", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
               "--degree", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "eigenspan conditioning: need degree >= 2, got 1\n"


def test_conditioning_empty_m_grid_exits_1_with_one_line(matrices, capsys):
    rc = main(["conditioning", "--matrix-path", matrices["diag200"], "--a", "-0.05",
               "--b", "0.05", "--m-grid", ""])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eigenspan conditioning: --m-grid must list")


def test_probe_empty_points_exits_1_with_one_line(capsys):
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "0", "--points="])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eigenspan probe: --points must list")


@pytest.mark.parametrize("flag, bound", [("--n-degrees", 1), ("--d-min", 2)])
def test_probe_degree_grid_exits_1_with_one_line(capsys, flag, bound):
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "0", "--points=0.1",
               flag, "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan probe: {flag} must be >= {bound}, got 0\n"


def test_probe_negative_p_degree_exits_1_naming_the_flag(capsys):
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "-1", "--points=0.1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "eigenspan probe: --p-degree must be >= 0, got -1\n"


@pytest.mark.parametrize("grid, d_min, d_max", [
    ([], 100, 0),
    (["--d-min", "300", "--n-degrees", "3"], 300, 200),
], ids=["d-max-0", "swapped"])
def test_probe_reversed_degree_range_exits_1_with_one_line(capsys, grid, d_min, d_max):
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "0", "--points=0.1",
               *grid, "--d-max", str(d_max)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan probe: --d-max must be >= --d-min = {d_min}, got {d_max}\n"


# What the CLI sets where the policy has no value: "auto" for the count verb's
# filter degree, and the block size of a grid that runs no count.
_CLI_OWNED = {"count": {"degree": 2000}, "conditioning": {"ell": 8}}


@pytest.mark.parametrize("verb", ["solve", "count", "baseline", "bench", "conditioning"])
def test_solve_flags_default_to_the_policy_keywords(verb):
    policy = {**count_interval.__kwdefaults__, **plan_interval.__kwdefaults__}
    argv = [verb, "--matrix-path", "m.mtx", "--a", "0", "--b", "1"]
    args = vars(build_parser().parse_args(argv))
    args["bounds"] = args.pop("spectral_bounds")
    shared = policy.keys() & args.keys()
    assert shared >= {"bounds", "lanczos_steps", "seed"}
    expected = {key: _CLI_OWNED.get(verb, {}).get(key, policy[key]) for key in shared}
    assert {key: args[key] for key in shared} == expected


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# count


def test_count_matches_known_count(matrices, tmp_path):
    rc, report = _run_json(
        ["count", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "1"],
        tmp_path / "report.json",
    )
    est = report["count_estimate"]
    assert rc == 0
    assert est["d"] == 2000
    assert est["samples"] == 30
    # plain trace mean = n_ev_tilde - 1 should sit on the true count of 10
    assert abs(est["n_ev_tilde"] - 1.0 - 10.0) < 0.01
    assert len(est["per_sample"]) == 30


def test_count_with_bounds_above_lambda_min_exits_1_naming_the_step(tmp_path, capsys):
    # lambda_min of the 12x12 grid is 8 sin^2(pi / 26) ~ 0.12, below the
    # given lower bound 0.3, so it maps below -1 and the count recurrence
    # grows there; it must stop with the step, not report a huge count.
    path = tmp_path / "grid12.mtx"
    eigenspan.save_matrix_market(laplacian_2d(12), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["count", "--matrix-path", str(path), "--a", "0.5", "--b", "0.6",
                   "--spectral-bounds", "0.3,8", "--count-degree", "1384"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    found = re.match(r"eigenspan count: recurrence diverged at step (\d+) of 1384", captured.err)
    assert found is not None, captured.err
    assert 2 <= int(found.group(1)) <= 1384


def test_divergent_count_names_the_same_step_on_one_and_on_four_panels(
    matrices, capsys, monkeypatch
):
    # lambda_max of the 100x100 grid is 4 + 4 cos(pi / 101) ~ 7.996, above
    # the given 7.9.
    for panels in (1, 4):
        force_panels(monkeypatch, panels)
        rc = main(["count", "--matrix-path", matrices["grid100"], "--a", "0.5", "--b", "1.0",
                   "--spectral-bounds", "0,7.9"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "eigenspan count: recurrence diverged at step 32 of 2000: the iterate outgrew 16 "
            "times the start block, so the spectral transform does not enclose the spectrum\n"
        )


@pytest.mark.parametrize("grid", ["grid100", "grid99"])
def test_count_report_is_the_same_on_one_and_on_four_panels(matrices, tmp_path, monkeypatch, grid):
    reports = []
    for panels in (1, 4):
        force_panels(monkeypatch, panels)
        rc, report = _run_json(
            ["count", "--matrix-path", matrices[grid], "--a", "0.5", "--b", "1.0",
             "--count-degree", "300"],
            tmp_path / f"count{panels}.json",
        )
        assert rc == 0
        reports.append(report)
    assert list(report_diff.diff(*reports)) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")
def test_count_pinned_to_one_cpu_writes_the_same_report(matrices, tmp_path):
    # The child pins itself, and only itself, to one CPU, so usable_cpus()
    # reads 1 there and the count runs whole; here it runs on up to every
    # usable CPU.  Given bounds keep Lanczos and its BLAS threads out of it.
    argv = ["count", "--matrix-path", matrices["grid99"], "--a", "0.5", "--b", "1.0",
            "--count-degree", "300", "--spectral-bounds", "0,8", "--report-path"]
    pinned, here = tmp_path / "pinned.json", tmp_path / "here.json"
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from eigenspan.cli import main\n"
        "from eigenspan.filters import usable_cpus\n"
        f"assert main({argv + [str(pinned)]!r}) == 0\n"
        "print(usable_cpus())\n"
    )
    assert run_child(code) == ["1"]
    assert main(argv + [str(here)]) == 0
    old, new = (json.loads(path.read_text()) for path in (pinned, here))
    assert list(report_diff.diff(old, new)) == []


class _AddSpy:
    """Wraps ``filters.matvec_add``; counts the columns it gets and the threads that call it."""

    def __init__(self, add):
        self.add = add
        self.columns = 0
        self.lock = threading.Lock()
        self.threads = set()

    def __call__(self, a, x, out, counter=None):
        with self.lock:
            self.columns += 1 if np.ndim(x) == 1 else x.shape[1]
            self.threads.add(threading.current_thread())
        return self.add(a, x, out, counter)


def _spy_on_count_products(monkeypatch):
    """Spy on the loaded A's CSR, on ``sparse.matvec`` and on ``filters.matvec_add``.

    ``sparse.matvec`` is replaced under every name an ``eigenspan`` module
    binds it to.  The count adds each product with its prescaled +-2 A_t
    into an iterate through ``filters.matvec_add``, so its products reach
    the last spy.  Returns the loaded CSR spies, the list of
    ``sparse.matvec`` calls and the ``matvec_add`` spy.
    """
    loaded, matvec_calls = [], []
    product = eigenspan.sparse.matvec

    def load_with_spy(path):
        a = eigenspan.load_matrix_market(path)
        loaded.append(ColumnSpy(a._csr))
        a._csr = loaded[-1]
        return a

    def matvec_spy(a, x, counter=None):
        matvec_calls.append(threading.current_thread())
        return product(a, x, counter)

    monkeypatch.setattr(eigenspan.cli, "load_matrix_market", load_with_spy)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("eigenspan") \
                and getattr(module, "matvec", None) is product:
            monkeypatch.setattr(module, "matvec", matvec_spy)
    add = _AddSpy(eigenspan.filters.matvec_add)
    monkeypatch.setattr(eigenspan.filters, "matvec_add", add)
    return loaded, matvec_calls, add


def test_count_reports_its_mv_bill(matrices, tmp_path, monkeypatch):
    # Two moments per product: degree 301 needs ceil(301 / 2) = 151 products
    # per probe.  Explicit bounds keep the Lanczos range estimate out of it.
    loaded, matvec_calls, add = _spy_on_count_products(monkeypatch)
    rc, report = _run_json(
        ["count", "--matrix-path", matrices["lap1000"], "--a", "1.9", "--b", "2.1",
         "--spectral-bounds", "0,4", "--count-degree", "301", "--samples", "7"],
        tmp_path / "count.json",
    )
    assert rc == 0
    assert report["count_estimate"]["mv_exact"] == 151 * 7
    assert add.columns == 151 * 7
    assert matvec_calls == []
    assert [spy.columns for spy in loaded] == [0]


@pytest.mark.parametrize("matrix, options, bill", [
    ("lap1000", ["--a", "1.9", "--b", "2.1", "--spectral-bounds", "0,4", "--count-degree", "301",
                 "--samples", "7"], 151 * 7),
    # The count verb's default degree 2000 and 30 probes: ceil(2000 / 2) * 30.
    ("grid100", ["--a", "0.5", "--b", "1.0", "--spectral-bounds", "0,8"], 1000 * 30),
], ids=["lap1000-degree-301", "grid100-default-degree"])
def test_count_on_panels_reports_its_mv_bill(matrices, tmp_path, monkeypatch, matrix, options, bill):
    loaded, matvec_calls, add = _spy_on_count_products(monkeypatch)
    force_panels(monkeypatch, 3)
    rc, report = _run_json(["count", "--matrix-path", matrices[matrix]] + options,
                           tmp_path / "count.json")
    assert rc == 0
    assert report["count_estimate"]["mv_exact"] == bill
    assert add.columns == bill
    assert len(add.threads) == 3
    assert matvec_calls == []
    assert [spy.columns for spy in loaded] == [0]


def test_count_and_solve_share_the_count_step(matrices, tmp_path):
    argv = ["--matrix-path", matrices["diag200"], "--a", "-0.0503", "--b", "0.0503",
            "--count-degree", "300", "--samples", "30", "--seed", "1"]
    _, count = _run_json(["count"] + argv, tmp_path / "count.json")
    _, solve = _run_json(["solve"] + argv, tmp_path / "solve.json")
    assert count["count_estimate"] == solve["count_estimate"]
    assert set(count["config_echo"]) == {
        "matrix_path", "a", "b", "count_degree", "samples", "seed",
        "spectral_bounds", "lanczos_steps",
    }
    shared = {k: solve["config_echo"][k] for k in count["config_echo"]}
    assert shared == count["config_echo"]


# ---------------------------------------------------------------------------
# probe


@pytest.mark.parametrize(
    "p_degree, point, kind, slope",
    [
        (0, -0.6, "outside", -3.0),
        (1, 0.1, "inside", -2.0),
        (1, -0.2, "endpoint", -1.0),
    ],
)
def test_probe_csv_refits_to_expected_decay(tmp_path, p_degree, point, kind, slope):
    out = tmp_path / "probe.csv"
    rc = main(
        ["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", str(p_degree),
         f"--points={point}", "--out", str(out)]
    )
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["bound_kind"] == kind for r in rows)
    errors = np.array([float(r["error"]) for r in rows])
    bounds = np.array([float(r["bound"]) for r in rows])
    assert np.all(errors <= bounds + 1e-12)
    fitted = fit_slope([int(r["d"]) for r in rows], errors)
    assert abs(fitted - slope) <= 0.3


@pytest.mark.parametrize("grid, degrees", [
    (["--d-min", "8", "--d-max", "8", "--n-degrees", "1"], [8]),
    (["--d-min", "7", "--d-max", "8", "--n-degrees", "2"], [7, 8]),
], ids=["one-degree", "both-ends"])
def test_probe_degree_grid_keeps_both_ends_of_its_range(tmp_path, grid, degrees):
    # 10**log10(8) is just below 8, so truncating the grid would probe 7.
    out = tmp_path / "probe.csv"
    rc = main(["probe", "--a", "-0.2", "--b", "0.4", "--p-degree", "0", "--points=0.1",
               *grid, "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        assert [int(r["d"]) for r in csv.DictReader(fh)] == degrees


# ---------------------------------------------------------------------------
# baseline


def test_baseline_reports_shift_statistics(matrices, tmp_path):
    rc, report = _run_json(
        ["baseline", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "3"],
        tmp_path / "report.json",
    )
    assert rc == 0
    assert report["converged"] is True
    assert report["degree"] == 0
    assert "mv_equivalent" not in report
    stats = report["shift_stats"]
    assert len(stats) == report["restarts"] * 8  # upper-half nodes of q=16
    assert all(s["converged"] for s in stats)
    assert sum(s["mv_count"] for s in stats) < report["mv_exact"]


@pytest.mark.parametrize("verb", ["baseline", "bench"])
def test_zero_krylov_tol_exits_1_with_one_line(matrices, capsys, verb):
    rc = main([verb, "--matrix-path", matrices["diag200"], "--a", "-0.0503", "--b", "0.0503",
               "--krylov-tol", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {verb}: shifted-solve tol must be > 0, got 0.0\n"


@pytest.mark.parametrize(
    "option, message",
    [
        (["--krylov-tol", "0"], "shifted-solve tol must be > 0, got 0.0"),
        (["--quad-nodes", "15"], "node count must be even, got 15"),
    ],
    ids=["krylov-tol", "quad-nodes"],
)
@pytest.mark.parametrize("verb", ["bench", "baseline"])
def test_bench_rejects_baseline_inputs_before_the_filter_solve(
    matrices, capsys, monkeypatch, option, message, verb
):
    # Both verbs run the contour baseline after the count; its inputs are
    # rejected before the count (and so before any filter solve) starts.
    monkeypatch.setattr(eigenspan.policy, "estimate_count", _no_count)
    rc = main([verb, "--matrix-path", matrices["diag200"], "--a", "-0.0503", "--b", "0.0503"]
              + option)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {verb}: {message}\n"


@pytest.mark.parametrize("steps", ["0", "1", "-5"])
@pytest.mark.parametrize("verb", ["solve", "count"])
def test_lanczos_steps_below_two_exit_1_naming_the_flag(matrices, capsys, verb, steps):
    rc = main([verb, "--matrix-path", matrices["diag200"], "--a", "-0.0503", "--b", "0.0503",
               "--lanczos-steps", steps])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"eigenspan {verb}: --lanczos-steps must be >= 2, got {steps}\n"


def test_one_by_one_matrix_solves_under_the_auto_bounds(tmp_path, capsys):
    # The auto bounds run min(50, n) = 1 Lanczos step on n = 1, which is exact.
    path = tmp_path / "one.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2.0\n")
    rc, report = _run_json(["solve", "--matrix-path", str(path), "--a", "1.99999999",
                            "--b", "2.00000001"], tmp_path / "one.json")
    assert rc == 0
    assert [pair["value"] for pair in report["ritz"]] == [2.0]
    capsys.readouterr()
    rc = main(["solve", "--matrix-path", str(path), "--a", "1", "--b", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "spectral range" in err and "steps" not in err


def test_report_schema_is_a_valid_2020_12_schema():
    # The CLI validates every report against this schema without re-checking it.
    jsonschema.Draft202012Validator.check_schema(_schema())


# ---------------------------------------------------------------------------
# bench


@pytest.fixture(scope="module")
def bench_interior(matrices, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "interior.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc, report = _run_json(
            ["bench", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
             "--b", "0.0503", "--seed", "3"],
            path,
        )
    return rc, report, stderr.getvalue()


@pytest.fixture(scope="module")
def bench_extreme(matrices, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "extreme.json"
    return _run_json(
        ["bench", "--matrix-path", matrices["diag200"], "--a", "0.93",
         "--b", "0.98", "--seed", "0"],
        path,
    )


def test_bench_interior_interval_speedup(bench_interior):
    rc, report, _ = bench_interior
    assert rc == 0
    assert report["cj"]["converged"] and report["baseline"]["converged"]
    assert report["speedup_mv"] >= 2.0
    assert report["speedup_mv"] == pytest.approx(
        report["baseline"]["mv_exact"] / report["cj"]["mv_exact"]
    )


def test_bench_rank_loss_is_reported_not_printed(bench_interior):
    # The over-provisioned baseline block sheds rank on purpose; the report
    # records it and stderr stays empty.
    _, report, stderr = bench_interior
    assert report["baseline"]["degraded_ranks"]
    assert stderr == ""


def test_bench_methods_agree(bench_interior):
    _, report, _ = bench_interior
    cj = np.sort([p["value"] for p in report["cj"]["ritz"]])
    base = np.sort([p["value"] for p in report["baseline"]["ritz"]])
    assert cj.size == base.size
    np.testing.assert_allclose(cj, base, atol=1e-9)


def test_bench_extreme_interval_speedup_smaller(bench_interior, bench_extreme):
    rc, report = bench_extreme
    assert rc == 0
    assert report["speedup_mv"] >= 1.0
    assert report["speedup_mv"] < bench_interior[1]["speedup_mv"]


def test_bench_deterministic_apart_from_timing(matrices, tmp_path, bench_interior):
    path = tmp_path / "again.json"
    rc = main(
        ["bench", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--seed", "3", "--report-path", str(path)]
    )
    assert rc == 0

    def strip_timing(report):
        return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', report)

    first = json.dumps(bench_interior[1], indent=2, sort_keys=True)
    second = path.read_text()
    assert strip_timing(first).strip() == strip_timing(second).strip()


# ---------------------------------------------------------------------------
# conditioning


def test_conditioning_grid_csv(matrices, tmp_path):
    out = tmp_path / "cond.csv"
    rc = main(
        ["conditioning", "--matrix-path", matrices["diag200"], "--a", "-0.0503",
         "--b", "0.0503", "--ell", "4", "--m-grid", "2,4,16", "--out", str(out)]
    )
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["basis"] for r in rows] == ["chebyshev"] * 3 + ["scaled"] * 3 + ["monomial"] * 3
    kappa = {(r["basis"], r["M"]): float(r["kappa"]) for r in rows}
    # the power basis ages much faster with the moment count
    assert kappa[("monomial", "4")] > 1e3 * kappa[("chebyshev", "4")]
    ranks = {(r["basis"], r["M"]): int(r["rank"]) for r in rows}
    assert ranks[("chebyshev", "4")] == 16  # full M*ell
    # kappa is finite only for full-rank blocks (monomial M = 16 is not)
    assert ranks[("monomial", "16")] < 64
    for r in rows:
        full = int(r["rank"]) == int(r["M"]) * int(r["ell"])
        assert (kappa[(r["basis"], r["M"])] == np.inf) == (not full)


# ---------------------------------------------------------------------------
# packaging


def test_import_loads_no_dense_scipy_subpackages():
    # Lanczos eigenvalues go through numpy's eigh and the coefficients through
    # the package's own quadrature, so scipy.linalg and scipy.integrate stay
    # unloaded.
    code = (
        "import sys, eigenspan, eigenspan.cli\n"
        "print(' '.join(m for m in sys.modules "
        "if m.startswith(('scipy.linalg', 'scipy.integrate'))))"
    )
    assert run_child(code) == []


# Prints which of the two start-up-heavy libraries the child has loaded.
_PRINT_HEAVY = (
    "print(' '.join(m for m in ('scipy.sparse', 'jsonschema') if m in sys.modules))\n"
)


def test_import_loads_neither_scipy_sparse_nor_jsonschema():
    assert run_child("import sys, eigenspan, eigenspan.cli\n" + _PRINT_HEAVY) == []


def test_probe_run_loads_neither_scipy_sparse_nor_jsonschema(tmp_path):
    out = tmp_path / "probe.csv"
    code = (
        "import sys\n"
        "from eigenspan.cli import main\n"
        "assert main(['probe', '--a', '-0.2', '--b', '0.4', '--p-degree', '0',\n"
        f"             '--points=0.1', '--d-max', '400', '--out', {str(out)!r}]) == 0\n"
        + _PRINT_HEAVY
    )
    assert run_child(code) == []
    assert out.read_text().startswith("d,t,")


def test_count_run_loads_jsonschema_alone_and_still_validates_its_report(matrices, tmp_path):
    # The second count hands _emit_json a report without its command: the
    # lazily built validator must still refuse it, and nothing is written.
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    argv = ["count", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1"]
    code = (
        "import sys, jsonschema\n"
        "import eigenspan.cli as cli\n"
        f"assert cli.main({argv + ['--report-path', str(good)]!r}) == 0\n"
        + _PRINT_HEAVY +
        "emit = cli._emit_json\n"
        "cli._emit_json = lambda report, path: emit(\n"
        "    {k: v for k, v in report.items() if k != 'command'}, path)\n"
        "try:\n"
        f"    cli.main({argv + ['--report-path', str(bad)]!r})\n"
        "except jsonschema.ValidationError:\n"
        "    print('rejected')\n"
    )
    assert run_child(code) == ["jsonschema", "rejected"]
    assert json.loads(good.read_text())["command"] == "count"
    assert not bad.exists()


def test_loading_solving_and_counting_never_import_scipy_sparse(matrices, tmp_path):
    # Every path that builds a matrix or multiplies by one: the reader, the
    # filter solve, the contour baseline (complex blocks), from_dense and a
    # whole count run.  The products go through scipy's compiled kernels,
    # loaded from their own file.
    path = tmp_path / "lap300.mtx"
    eigenspan.save_matrix_market(laplacian_1d(300), path)
    argv = ["count", "--matrix-path", matrices["lap12"], "--a", "1.9", "--b", "2.1",
            "--report-path", str(tmp_path / "count.json")]
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import eigenspan.cli as cli\n"
        "from eigenspan import (exact_transform, load_matrix_market, make_interval, run_baseline,\n"
        "                       solve_interval, SparseSymmetric)\n"
        f"a = load_matrix_market({str(path)!r})\n"
        "rep, _, _ = solve_interval(a, 1.9, 2.1, bounds=(0.0, 4.0), seed=1)\n"
        "tr = exact_transform(0.0, 4.0)\n"
        "v0 = np.random.default_rng(2).standard_normal((a.n, 6))\n"
        "base = run_baseline(a, tr, make_interval(tr, 1.9, 2.1), 4, 6, v0, n_ev_target=2)\n"
        "small = SparseSymmetric.from_dense(np.diag([1.0, 2.0]))\n"
        "assert np.array_equal(small._csr @ np.ones(2), [1.0, 2.0])\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(rep.converged, base.converged, 'scipy.sparse' in sys.modules)\n"
    )
    assert run_child(code) == ["True", "True", "False"]


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "eigenspan.cli", "--help"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    for verb in ("solve", "count", "probe", "baseline", "bench", "conditioning"):
        assert verb in proc.stdout
