"""The README's examples run as written: each `latmult` line of its CLI block
exits 0, in order, in one folder, and the library example prints the value
its comment shows, 1 to rounding."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from latmult.cli import main
from latmult.lattice import save_jsonl, sequence

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [shlex.split(line, comments=True)
             for line in _block("CLI", "sh").splitlines() if line.startswith("latmult ")]


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch):
    assert len(CLI_LINES) == 10
    save_jsonl(sequence(1, {(0,): 1.0, (3,): -0.5j, (7,): 0.25}), tmp_path / "f.jsonl")
    monkeypatch.chdir(tmp_path)  # in order, in one folder: norm reads what apply wrote
    for argv in CLI_LINES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, argv


def test_readme_library_example_prints_one():
    code, out = _block("Library example", "python"), io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    shown = re.search(r"print\(.*\)\s+# ([0-9.]+)", code).group(1)
    assert out.getvalue() == shown + "\n"
    assert float(shown) == pytest.approx(1.0, abs=1e-15)
