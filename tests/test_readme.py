"""The README's library example runs against the current API."""

import re
from pathlib import Path

from helpers import laplacian_1d
from eigenspan import save_matrix_market

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # The block reads M.mtx from the working directory; [1.9, 2.1] holds
    # 32 eigenvalues of the n = 1000 Laplacian, and the count sets the target.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S).group(1)
    save_matrix_market(laplacian_1d(1000), tmp_path / "M.mtx")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert len(namespace["report"].ritz.values) == 32
    assert capsys.readouterr().out.startswith("True ")
