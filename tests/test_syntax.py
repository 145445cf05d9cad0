"""Every source and test file parses as Python 3.10, the floor pyproject.toml declares.

The parse catches syntax newer than the floor (``except*``, ``type``
statements, ...) on any interpreter; the 3.10 CI job still runs the suite.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_and_tests_parse_as_the_declared_floor():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "eigenspan" / "cli.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
