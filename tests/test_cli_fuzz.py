"""Random in-process argv for every subcommand but `verify`.

Flag values come from one pool of edge values (0, -1, nan, +-inf, 1e300,
1e-300, a 20-digit integer, malformed strings) mixed with a few valid values
per flag; the input files hold values of 1e300 and 1e-300 and indices of
+-2^62.  Every call must exit 0, 2, 3 or 4 with no traceback, within an
alarm, and on exit 0 print no nan or Infinity token and no inf that is not
the echo of a flag value.  derandomize=True makes the examples the same on
every run.
"""

import contextlib
import io
import json
import re
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latmult.cli import main

EDGE = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "99999999999999999999", "x", ""]
INT = ["1", "2", "3", "8"]
FLOAT = ["0.5", "0.8", "2", "1.5"]
FRACTIONAL = {"--k": INT, "--lam": FLOAT, "--gamma": ["0", "0.7"]}
GRID = {"--grid-res": ["8", "16", "64"]}
INPUTS = ["small", "big", "tiny", "far", "plane", "missing", "broken"]
SYMBOL_FILES = ["grid8", "missing"]

FLAGS = {
    "apply": {"--input": INPUTS, "--symbol": ["identity", "modulation", "fractional",
                                              "grid-file"],
              "--symbol-file": SYMBOL_FILES, "--shift": ["1", "3", "4611686018427387904"],
              "--window": ["-8:8", "0:10", "4611686018427387900:4611686018427387910",
                           "-2:2,-2:2"],
              **FRACTIONAL, **GRID},
    "kernel": {**FRACTIONAL, "--max-m": ["1", "10", "100"]},
    "norm": {"--input": INPUTS, "--p": ["1", "2", "2000", "1e300", "inf"],
             "--r": ["0.5", "1e-4", "1e-300"]},
    "opnorm": {"--symbol": ["fractional", "identity", "modulation"], "--shift": ["1", "3"],
               **FRACTIONAL, "--terms": ["1", "10"], "--p": FLOAT,
               "--window-radius": ["1", "4"], **GRID},
    "classify": {**FRACTIONAL, "--p": FLOAT, "--q": ["1", "1.5"]},
    "scan": {"--k-list": ["1", "1,2"], "--lam-range": ["0.3", "0.2:0.9:3"],
             "--p-range": ["2", "1.5:3:2"], "--gamma": ["0"], "--q": ["1", "1.5"],
             "--terms": ["1", "10", "1000"], "--start-cell": ["0", "2"]},
    "kstar": {"--k": ["1", "2"], "--lam": ["0.6", "0.8"], "--terms-list": ["1", "5,10"]},
    "gohberg": {"--symbol": ["inverse-distance", "one", "coordinate", "bogus"],
                "--max-radius": ["0", "4"], "--tolerance": ["0.05", "1"], **GRID},
    "spectrum": {"--symbol": ["inverse-distance", "smooth-decay"],
                 "--window-radius": ["0", "4"], "--count": ["1", "4"], **GRID},
}
REQUIRED = {"apply": {"--input": "small", "--out": "out"}, "kernel": {"--out": "out"},
            "norm": {"--input": "big", "--p": "2"}, "classify": {"--p": "2"}}
NON_FINITE = re.compile(r"\b(nan|NaN|Infinity|inf)\b")


def _write_jsonl(path, dim, rows):
    lines = [json.dumps({"dim": dim})]
    lines += [json.dumps({"index": idx, "re": re_, "im": im}) for idx, re_, im in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    _write_jsonl(d / "small.jsonl", 1, [([0], 1.0, 0.5), ([2], -0.25, 0.0), ([5], 2.0, 0.0)])
    _write_jsonl(d / "big.jsonl", 1, [([0], 1e300, 0.0), ([1], 0.0, -1e300), ([3], 1e-300, 0.0)])
    _write_jsonl(d / "tiny.jsonl", 1, [([0], 1e-300, 0.0), ([1], 1e-300, 1e-300)])
    _write_jsonl(d / "far.jsonl", 1, [([2**62], 1.0, 0.0), ([-(2**62)], 0.5, 0.0)])
    _write_jsonl(d / "plane.jsonl", 2, [([0, 0], 1.0, 0.0), ([1, -2], 0.5, 0.25)])
    (d / "broken.jsonl").write_text('{"dim": 1}\n{"index": [0], "re": \n')
    rows = ["M=8,dim=1", "j1,re,im"] + [f"{j},{j / 8},0.0" for j in range(8)]
    (d / "grid8.csv").write_text("\n".join(rows) + "\n")
    return d


@st.composite
def argvs(draw, folder):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, valid in FLAGS[command].items():
        if not draw(st.booleans()):
            continue
        value = draw(st.sampled_from(valid + EDGE))
        argv.append(f"{flag}={value}")
    for flag, value in REQUIRED.get(command, {}).items():
        if not any(a.startswith(flag + "=") for a in argv):
            argv.append(f"{flag}={value}")
    return [_in_folder(arg, folder) for arg in argv]


def _in_folder(arg, folder):
    """--input=big becomes --input=<folder>/big.jsonl; other flags stay."""
    flag, _, value = arg.partition("=")
    suffix = {"--input": ".jsonl", "--symbol-file": ".csv", "--out": ".jsonl"}.get(flag)
    if suffix and value in INPUTS + SYMBOL_FILES + ["out"]:
        return f"{flag}={folder / (value + suffix)}"
    return arg


def _alarm(signum, frame):
    raise TimeoutError("a single CLI call ran past its alarm")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                rc = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), err.getvalue()


def _echoes_inf(argv) -> bool:
    for arg in argv[1:]:
        try:
            if abs(float(arg.partition("=")[2])) == float("inf"):
                return True
        except ValueError:
            pass
    return False


def test_cli_fuzz(files):
    @settings(max_examples=500, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(argvs(files))
    def run(argv):
        rc, out, err = _run(argv)
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        assert "Traceback" not in out + err, argv
        if rc == 0:
            tokens = set(NON_FINITE.findall(out))
            if _echoes_inf(argv):
                tokens.discard("inf")
            assert not tokens, (argv, out)

    run()
