"""The report comparison script used to check that a change keeps reports."""

import json

import report_diff


def _write(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def test_absent_key_differs_from_null(tmp_path, capsys):
    assert [path for path, _, _ in report_diff.diff({"x": None}, {})] == ["$.x"]
    old, new = _write(tmp_path, "old.json", {"x": None}), _write(tmp_path, "new.json", {})
    assert report_diff.main([old, new]) == 1
    assert capsys.readouterr().out == "$.x: None -> <missing>\n"


def test_wall_time_is_masked_and_equal_reports_agree(tmp_path):
    old = _write(tmp_path, "old.json", {"a": [1, {"b": None}], "wall_time_s": 1.0})
    new = _write(tmp_path, "new.json", {"a": [1, {"b": None}], "wall_time_s": 2.0})
    assert report_diff.main([old, new]) == 0
