"""Golden CLI outputs: the 17-digit stdout, exit code and output file of a fixed
list of `kernel`, `norm` and `apply` argv, byte for byte.

`golden_cli.json` holds the input files and, per argv, what the command
printed and wrote.  A change that moves any of these bytes on purpose logs
every moved value and rewrites the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _row(idx, v) -> str:
    return json.dumps({"index": idx, "re": v.real, "im": v.imag})


def _inputs() -> dict:
    """Input files: full 17-digit values, repeated rows, ties in magnitude,
    a 2-D sequence and an index beyond int64."""
    rng = np.random.default_rng(12)
    a = [[int(i)] for i in rng.integers(-30, 31, 40)]  # repeats: the last row wins
    a_val = rng.standard_normal(40) * 10.0 ** rng.integers(-3, 4, 40) + 1j * rng.standard_normal(40)
    b = [[int(i), int(j)] for i, j in rng.integers(-5, 6, (30, 2))]
    b_val = rng.standard_normal(30) - 1j * rng.random(30)
    d = [[int(i)] for i in rng.choice(np.arange(-10**6, 10**6), 500, replace=False)]
    d_val = rng.choice([1.0, -1.0, 1j, 0.6 + 0.8j, 2.5], 500) * rng.integers(1, 4, 500)
    files = {
        "a.jsonl": ([1], a, a_val.tolist()),
        "b.jsonl": ([2], b, b_val.tolist()),
        "c.jsonl": ([1], [[-5], [2**70], [7]], [1.5 - 0.0j, -2.25 + 1j, 0.125j]),
        "d.jsonl": ([1], d, d_val.tolist()),
    }
    return {
        name: "\n".join([json.dumps({"dim": dim[0]})] + [_row(i, v) for i, v in zip(idx, val)]) + "\n"
        for name, (dim, idx, val) in files.items()
    }


KERNELS = [("1", "0.5", "0", "50"), ("2", "0.7", "0.3", "40"), ("3", "1.0", "-1.5", "30"),
           ("5", "0.25", "2.0", "25"), ("40", "0.5", "0", "5")]

ARGV = (
    [["kernel", "--k", k, "--lam", lam, "--gamma", gam, "--max-m", m, "--out", f"k{k}.jsonl"]
     for k, lam, gam, m in KERNELS]
    + [["norm", "--input", name, "--p", p] + r
       for name, p, r in [
           ("a.jsonl", "1", []), ("a.jsonl", "1.5", []), ("a.jsonl", "5", []),
           ("a.jsonl", "2", ["--r", "0.5"]), ("b.jsonl", "3.7", []), ("c.jsonl", "2", []),
           ("d.jsonl", "2", []), ("d.jsonl", "1.25", ["--r", "1"]), ("d.jsonl", "inf", []),
           ("k1.jsonl", "2", []), ("k2.jsonl", "1.5", []), ("k3.jsonl", "5", []),
           ("k5.jsonl", "4", []), ("k40.jsonl", "2", []),
       ]]
    + [["apply", "--input", name, "--out", f"out{i}.jsonl"] + rest
       for i, (name, rest) in enumerate([
           ("a.jsonl", ["--symbol", "fractional", "--k", "1", "--lam", "0.6", "--window=-40:40"]),
           ("a.jsonl", ["--symbol", "fractional", "--k", "2", "--gamma", "0.7", "--window=0:500"]),
           ("a.jsonl", ["--symbol", "fractional", "--k", "3", "--lam", "0.9", "--window=-100:900"]),
           ("d.jsonl", ["--symbol", "fractional", "--k", "2", "--window=0:2000"]),
           ("a.jsonl", ["--grid-res", "128", "--window=-20:20"]),
           ("a.jsonl", ["--symbol", "modulation", "--shift", "3", "--grid-res", "128",
                        "--window=-40:40"]),
           ("b.jsonl", ["--grid-res", "32", "--window=-6:6,-6:6"]),
           ("c.jsonl", ["--symbol", "fractional", "--window=0:10"]),
       ])]
)


def run_session(workdir: Path, inputs: dict) -> list[dict]:
    """Write the inputs into workdir and run every argv there, in order."""
    from latmult.cli import main

    for name, text in inputs.items():
        (workdir / name).write_text(text)
    records, cwd = [], os.getcwd()
    os.chdir(workdir)
    try:
        for argv in ARGV:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            path = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
            written = path.read_text() if path is not None and path.exists() else None
            records.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "file": written})
    finally:
        os.chdir(cwd)
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory, golden):
    return run_session(tmp_path_factory.mktemp("golden"), golden["inputs"])


@pytest.mark.parametrize("i", range(len(ARGV)))
def test_cli_output_is_byte_identical_to_the_golden_run(golden, records, i):
    assert records[i] == golden["records"][i]


if __name__ == "__main__":
    import tempfile

    inputs = _inputs()
    with tempfile.TemporaryDirectory() as tmp:
        records = run_session(Path(tmp), inputs)
    GOLDEN.write_text(json.dumps({"inputs": inputs, "records": records}, indent=1) + "\n")
