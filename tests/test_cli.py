import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latmult
from latmult.catalog import oscillating_decay_pdo
from latmult.cli import _parse_window, main
from latmult.fractional import FractionalParams, fractional_kernel
from latmult.lattice import (
    centered_window,
    load_jsonl,
    restrict,
    save_jsonl,
    sequence,
    translate,
)
from latmult.operators import pdo_matrix
from latmult.torus import TorusGrid, TorusSamples, save_csv


@pytest.fixture
def seq_file(tmp_path):
    f = sequence(1, {(0,): 1.0 + 0.5j, (2,): -0.25, (5,): 2.0})
    path = tmp_path / "input.jsonl"
    save_jsonl(f, path)
    return f, str(path)


def test_apply_identity_round_trips(seq_file, tmp_path, capsys):
    f, path = seq_file
    out = str(tmp_path / "out.jsonl")
    rc = main(["apply", "--input", path, "--out", out, "--window=-8:8"])
    assert rc == 0
    got = load_jsonl(out)
    for n in range(-8, 9):
        assert abs(got[(n,)] - f[(n,)]) < 1e-12
    info = json.loads(capsys.readouterr().out)
    assert info["output"] == out
    expect_l1 = sum(abs(v) for _, v in f.items())
    assert float(info["norms"]["l1"]) == pytest.approx(expect_l1, abs=1e-11)


def test_apply_modulation_translates(seq_file, tmp_path):
    f, path = seq_file
    out = str(tmp_path / "out.jsonl")
    rc = main(
        [
            "apply",
            "--input",
            path,
            "--out",
            out,
            "--symbol",
            "modulation",
            "--shift",
            "3",
            "--window=-8:12",
        ]
    )
    assert rc == 0
    got, expect = load_jsonl(out), translate(f, 3)
    for n in range(-8, 13):
        assert abs(got[(n,)] - expect[(n,)]) < 1e-12


def test_apply_fractional_kernel_on_delta(tmp_path):
    path = str(tmp_path / "delta.jsonl")
    save_jsonl(sequence(1, {(0,): 1.0}), path)
    out = str(tmp_path / "out.jsonl")
    rc = main(
        [
            "apply",
            "--input",
            path,
            "--out",
            out,
            "--symbol",
            "fractional",
            "--k",
            "2",
            "--lam",
            "0.5",
            "--window",
            "1:25",
        ]
    )
    assert rc == 0
    got = load_jsonl(out)
    kern = fractional_kernel(FractionalParams(2, 0.5), 5)
    assert got == kern


def _grid_file_argv(tmp_path, f, window) -> list[str]:
    """apply --symbol grid-file argv for f, with the M = 64 samples of the identity."""
    path, symbol = str(tmp_path / "f.jsonl"), str(tmp_path / "one64.csv")
    save_jsonl(f, path)
    save_csv(TorusSamples(TorusGrid(1, 64), np.ones(64, dtype=np.complex128)), symbol)
    return ["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"), "--symbol",
            "grid-file", "--symbol-file", symbol, "--grid-res", "64", f"--window={window}"]


def test_apply_aliasing_violation_exits_3(tmp_path):
    # support at 0 and 64 collide mod the grid resolution 64
    assert main(_grid_file_argv(tmp_path, sequence(1, {(0,): 1.0, (64,): 1.0}), "-16:16")) == 3


def _apply_exactly(tmp_path, capsys, f, symbol, shift, window):
    """Run apply on f and check it against restrict(translate(f, shift), window)."""
    path, out = str(tmp_path / "f.jsonl"), str(tmp_path / "o.jsonl")
    save_jsonl(f, path)
    argv = ["apply", "--input", path, "--out", out, "--symbol", symbol,
            "--shift", ",".join(map(str, shift)), f"--window={window}"]
    assert main(argv) == 0
    want = restrict(translate(f, shift), _parse_window(window, f.dim))
    assert load_jsonl(out) == want  # bit for bit, and no point outside supp f + shift
    assert json.loads(capsys.readouterr().out)["norms"]["support"] == len(want)
    return want


@pytest.mark.parametrize("symbol, shift, window", [
    ("identity", (0,), "-20:20"),  # the grid route wrote 41 rows for 8 points
    ("identity", (0, 0), "-6:6,-6:6"),
    ("modulation", (-3,), "18446744073709551600:18446744073709551620"),  # the grid exited 2
    ("identity", (0,) * 4, "-5:5,-5:5,-5:5,-5:5"),  # 64^4 grid nodes over the cap: exited 2
])
def test_apply_translation_symbols_are_exact(tmp_path, capsys, symbol, shift, window):
    rng = np.random.default_rng(18)
    points = rng.integers(-5, 6, (12, len(shift))).tolist()
    if symbol == "modulation":
        points = [[2**64 + p[0]] for p in points]
    values = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = sequence(len(shift), zip(points, values))
    assert len(_apply_exactly(tmp_path, capsys, f, symbol, shift, window)) == len(f)


def test_apply_modulation_output_off_the_window_is_empty(tmp_path, capsys):
    # delta at 0 shifted by 64 lands outside the window, though congruent to 0 mod 64
    want = _apply_exactly(tmp_path, capsys, sequence(1, {(0,): 1.0}), "modulation", (64,),
                          "-8:8")
    assert len(want) == 0


def test_apply_window_beyond_int64_exits_2(tmp_path, capsys):
    argv = _grid_file_argv(tmp_path, sequence(1, {(0,): 1.0}),
                           "9223372036854775809:9223372036854775810")
    assert main(argv) == 2
    assert "int64" in capsys.readouterr().err


def _opnorm(capsys, *flags) -> dict:
    assert main(["opnorm", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def _within_ulps(got: str, want, ulps: int) -> bool:
    return abs(float(got) - float(want)) <= ulps * math.ulp(float(want))


def test_opnorm_readme_example_is_exact_and_certified(capsys):
    # support reaches 100^2, past the default 256-point grid: the kernel's own
    # norms need no grid, so nothing aliases
    res = _opnorm(capsys, "--symbol", "fractional", "--k", "2", "--lam", "0.5", "--p", "2")
    assert res["certified"] is True and res["discarded_mass"] == "0"
    assert _within_ulps(res["l1_to_lp"], "2.27758150625605938", 4)  # sqrt(H_100), mpmath


@pytest.mark.parametrize("k, lam, p, terms", [
    (2, 0.5, 2, 10), (2, 0.5, 2, 100), (1, 0.5, 2, 100), (3, 0.25, 4, 50), (40, 0.5, 2, 10),
])
def test_opnorm_kernel_norms_match_mpmath(capsys, k, lam, p, terms):
    # lam = 1/p: the weak norm is 1 and the strong one (sum_{m <= terms} 1/m)^(1/p)
    mpmath = pytest.importorskip("mpmath")
    res = _opnorm(capsys, "--k", str(k), "--lam", str(lam), "--p", str(p),
                  "--terms", str(terms))
    with mpmath.workdps(30):
        want = mpmath.harmonic(terms) ** (mpmath.mpf(1) / p)
    assert _within_ulps(res["l1_to_lp"], want, 4)
    assert _within_ulps(res["l1_to_weak_lp"], 1.0, 1)
    assert res["certified"] is True and res["discarded_mass"] == "0"


@pytest.mark.parametrize("flags", [["--grid-res", "0"], ["--window-radius", "-1"],
                                   ["--grid-res", "5000000"]])
def test_opnorm_still_validates_the_grid_and_window(flags, capsys):
    assert main(["opnorm", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_opnorm_modulation_beyond_int64_is_one(capsys):
    # used to exit 2: the multiplier read its kernel as int64 arrays when built
    res = _opnorm(capsys, "--symbol", "modulation", "--shift", "99999999999999999999",
                  "--p", "2")
    assert (res["l1_to_weak_lp"], res["l1_to_lp"], res["certified"]) == ("1", "1", True)


def test_opnorm_in_dim_5_builds_no_grid(capsys):
    # a 5-D grid at the default --grid-res has 256^5 nodes, over the cap: exited 2
    res = _opnorm(capsys, "--symbol", "modulation", "--shift", "1,1,1,1,1")
    assert (res["l1_to_weak_lp"], res["l1_to_lp"]) == ("1", "1")


def test_opnorm_alias_free_fractional_is_certified(capsys):
    argv = ["opnorm", "--symbol", "fractional", "--k", "2", "--lam", "0.5", "--p", "2",
            "--terms", "10", "--window-radius", "100", "--grid-res", "1024"]
    assert main(argv) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["certified"] is True
    assert float(res["l1_to_weak_lp"]) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_over_symbol_sample_cap_exits_2(capsys):
    argv = ["spectrum", "--window-radius", "2000", "--grid-res", "4096"]
    assert main(argv) == 2
    assert "symbol samples" in capsys.readouterr().err


def test_apply_missing_input_exits_2(tmp_path):
    rc = main(
        [
            "apply",
            "--input",
            str(tmp_path / "nope.jsonl"),
            "--out",
            str(tmp_path / "o.jsonl"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("symbol_file", [None, "nope.csv", "dup.csv"])
def test_apply_bad_symbol_file_exits_2(seq_file, tmp_path, symbol_file):
    _, path = seq_file
    (tmp_path / "dup.csv").write_text("M=64,dim=1\nj1,re,im\n0,1.0,0.0\n0,1.0,0.0\n")
    argv = ["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"),
            "--symbol", "grid-file", "--window=-4:4"]
    if symbol_file is not None:
        argv += ["--symbol-file", str(tmp_path / symbol_file)]
    assert main(argv) == 2


@pytest.mark.parametrize("argv, err", [
    (["apply", "--window=0:5,0:5"], "does not match dim 1"),
    (["apply", "--symbol", "grid-file", "--symbol-file", "{tmp}/header.csv", "--window=-4:4"],
     "bad header"),
    (["scan", "--config", "{tmp}/nope.cfg"], "cannot read config"),
])
def test_typed_refusals_exit_2(seq_file, tmp_path, capsys, argv, err):
    (tmp_path / "header.csv").write_text("M64,dim=1\nj1,re,im\n0,1.0,0.0\n")
    if argv[0] == "apply":
        argv = argv + ["--input", seq_file[1], "--out", str(tmp_path / "o.jsonl")]
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert err in capsys.readouterr().err


def test_apply_grid_file_index_beyond_int64_is_exact(tmp_path):
    # 2^64 = 0 mod 64 lies off the window's residues 1..8, so the alias check
    # passes and the identity samples give restrict(f, window) up to round-off
    f = sequence(1, {(2**64,): 1.0, (3,): 2.0})
    assert main(_grid_file_argv(tmp_path, f, "1:8")) == 0
    got = load_jsonl(tmp_path / "o.jsonl")
    want = restrict(f, _parse_window("1:8", 1))
    assert want.support() == [(3,)]
    assert all(1 <= n <= 8 for (n,) in got.support())
    assert max(abs(got[n] - want[n]) for n in range(1, 9)) <= 1e-12 * 3.0


@pytest.mark.parametrize("window, size", [
    ("-16:16", 0), ("100:110", 0), ("9223372036854775813:9223372036854775813", 1),
])
def test_apply_modulation_output_beyond_int64_is_exact(tmp_path, capsys, window, size):
    # 2^63 - 5 + 10 = 2^63 + 5 leaves int64; only the last window holds it
    want = _apply_exactly(tmp_path, capsys, sequence(1, {(2**63 - 5,): 1.0}), "modulation",
                          (10,), window)
    assert want.support() == [(2**63 + 5,)] * size


def _traced_exit(argv) -> tuple[int, int]:
    tracemalloc.start()
    try:
        rc = main(argv)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_fractional_over_size_budget_exits_2(tmp_path, capsys):
    # 10^9 shifts of a delta: refused before the kernel or the shifts exist
    path = str(tmp_path / "d.jsonl")
    save_jsonl(sequence(1, {(0,): 1.0}), path)
    rc, peak = _traced_exit(["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"),
                             "--symbol", "fractional", "--k", "1", "--window=1:1000000000"])
    assert rc == 2 and peak < 8 * 2**20
    assert "size budget" in capsys.readouterr().err


def test_apply_huge_window_aliases_without_listing_it(tmp_path, capsys):
    argv = _grid_file_argv(tmp_path, sequence(1, {(0,): 1.0}), "0:1000000000")
    rc, peak = _traced_exit(argv)
    assert rc == 3 and peak < 8 * 2**20
    assert "aliasing" in capsys.readouterr().err


def test_kernel_beyond_int64_writes_exact_indices(tmp_path, capsys):
    out = str(tmp_path / "k5.jsonl")
    assert main(["kernel", "--k", "5", "--max-m", "10000", "--out", out]) == 0
    assert json.loads(capsys.readouterr().out)["norms"]["support"] == 10000
    kern = load_jsonl(out)
    assert kern.support()[-1] == (10**20,) and kern[10**20] == pytest.approx(1e-2)


def test_kernel_with_python_int_indices_is_charged_its_footprint(tmp_path):
    # 2^26 terms at k = 3 pass int64 and would take about 100 B each: refused at once.
    # A child with an address-space limit runs it, so that without the charge it
    # fails by MemoryError rather than taking 6.7 GB.
    code = ("import sys, tracemalloc\n"
            "from latmult.cli import main\n"
            "tracemalloc.start()\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, tracemalloc.get_traced_memory()[1])")
    src = str(Path(latmult.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = ["kernel", "--k", "3", "--max-m", str(2**26), "--out", "k.jsonl"]
    run = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_one_gib_address_space)
    assert run.returncode == 0, run.stderr
    rc, peak = map(int, run.stdout.split())
    assert rc == 2 and peak < 8 * 2**20 and not (tmp_path / "k.jsonl").exists()
    assert "size budget" in run.stderr


@pytest.mark.parametrize("k, max_m", [(5, 10000), (20, 1000), (512, 40)])
def test_the_python_int_kernel_charge_covers_its_peak(k, max_m):
    tracemalloc.start()
    try:
        fractional_kernel(FractionalParams(k, 0.5), max_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max_m * 16 * -(-(sys.getsizeof(max_m**k) + 64) // 16)


def test_apply_unwritable_output_exits_4(seq_file, tmp_path):
    _, path = seq_file
    rc = main(
        [
            "apply",
            "--input",
            path,
            "--out",
            str(tmp_path / "missing-dir" / "o.jsonl"),
            "--window=-4:4",
        ]
    )
    assert rc == 4


def test_kernel_subcommand(tmp_path):
    out = str(tmp_path / "kernel.jsonl")
    rc = main(
        ["kernel", "--k", "2", "--lam", "0.75", "--max-m", "6", "--out", out]
    )
    assert rc == 0
    assert load_jsonl(out) == fractional_kernel(FractionalParams(2, 0.75), 6)


def test_norm_subcommand(seq_file, capsys):
    f, path = seq_file
    rc = main(["norm", "--input", path, "--p", "2"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    expect = np.sqrt(sum(abs(v) ** 2 for _, v in f.items()))
    assert float(res["lp"]) == pytest.approx(expect, rel=1e-15)
    assert float(res["weak"]) <= float(res["seminorm"]) + 1e-12


def test_norm_malformed_header_exits_2(tmp_path, capsys):
    # a header that is not an object was an unhandled TypeError, exit 1
    path = tmp_path / "f.jsonl"
    path.write_text('[1]\n{"index": [0], "re": 1, "im": 0}\n')
    assert main(["norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read input")


def test_norm_value_beyond_the_float_range_exits_2(tmp_path, capsys):
    # an integer re too large for a float was an unhandled OverflowError, exit 1
    path = tmp_path / "f.jsonl"
    path.write_text('{"dim": 1}\n{"index": [5], "re": 1' + "0" * 400 + ', "im": 0}\n')
    assert main(["norm", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read input")


def test_norm_bad_p_exits_2(seq_file):
    _, path = seq_file
    assert main(["norm", "--input", path, "--p", "0.5"]) == 2


def test_opnorm_identity(capsys):
    rc = main(["opnorm", "--symbol", "identity", "--p", "2"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert float(res["l1_to_weak_lp"]) == pytest.approx(1.0, abs=1e-12)
    assert float(res["l1_to_lp"]) == pytest.approx(1.0, abs=1e-12)
    assert res["certified"] is True


def test_opnorm_fractional_weak_is_one(capsys):
    rc = main(
        [
            "opnorm",
            "--symbol",
            "fractional",
            "--k",
            "2",
            "--lam",
            "0.5",
            "--terms",
            "4",
            "--p",
            "2",
            "--grid-res",
            "256",
            "--window-radius",
            "20",
        ]
    )
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert float(res["l1_to_weak_lp"]) == pytest.approx(1.0, abs=1e-9)


def test_classify_divergence_boundary(capsys):
    rc = main(["classify", "--k", "1", "--lam", "0.5", "--p", "2"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["weak_1p"] is True and res["strong_1p"] is False
    assert res["weak_norm"] == "1" and res["strong_norm_divergent"] is True


def test_classify_with_q_prediction(capsys):
    rc = main(
        ["classify", "--k", "2", "--lam", "0.75", "--p", "2", "--q", "1.5"]
    )
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["predicted_bounded"] is True


def test_classify_bad_lam_exits_2():
    assert main(["classify", "--k", "1", "--lam", "1.5", "--p", "2"]) == 2


# lam * p exceeds 1 by about 6e-17 exactly, but the float lam * p rounds to 1
BAND = ["--k", "2", "--lam", "0.9896585408338686", "--p", "1.0104495224761239"]
# zeta(lam * p)^(1/p) at the exact lam * p, by mpmath at 50 digits
BAND_STRONG_NORM = 1.1179110918040486e16


def test_classify_in_the_one_ulp_band_prints_the_finite_strong_norm(capsys):
    assert main(["classify", *BAND]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["strong_1p"] is True and res["strong_norm_divergent"] is False
    assert abs(float(res["strong_norm"]) - BAND_STRONG_NORM) <= 1e-13 * BAND_STRONG_NORM


def test_scan_in_the_one_ulp_band_prints_the_finite_strong_norm(capsys):
    assert main(["scan", "--k-list", "2", "--lam-range", BAND[3], "--p-range", BAND[5]]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[-3:] == ["finite", "finite", "true"]
    assert abs(float(row[7]) - BAND_STRONG_NORM) <= 1e-13 * BAND_STRONG_NORM


def test_classify_lam_just_below_one_over_p_is_divergent(capsys):
    # 0.3333333333333333 * 3 = 1 - 2^-54 exactly, though 1.0 / 3 rounds to that lam
    assert main(["classify", "--lam", "0.3333333333333333", "--p", "3"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["weak_1p"] is False and res["strong_1p"] is False
    assert res["weak_norm"] is None and res["weak_norm_divergent"] is True


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "nan"],
    ["kernel", "--gamma", "nan", "--out", os.devnull],
    ["opnorm", "--gamma", "inf"],
    ["scan", "--terms", "-5"],
    ["scan", "--terms", "0"],
    ["scan", "--q", "nan"],
    ["scan", "--q", "inf"],
    ["scan", "--p-range", "1.5,inf"],
    # an empty list ran the default values and exited 0
    ["scan", "--k-list", ""],
    ["scan", "--lam-range", ""],
    ["scan", "--p-range", ""],
])
def test_non_finite_or_out_of_range_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_scan_range_over_size_budget_exits_2(capsys):
    rc, peak = _traced_exit(["scan", "--lam-range", "0.2:0.9:1000000000"])
    assert rc == 2 and peak < 8 * 2**20
    assert "size budget" in capsys.readouterr().err


def test_scan_needs_no_budget_for_terms(tmp_path):
    # one cell divergent (truncated sum of 10^9 terms), one finite (full zeta)
    out = str(tmp_path / "scan.csv")
    rc, peak = _traced_exit(["scan", "--k-list", "1", "--lam-range", "0.3", "--p-range",
                             "2,4", "--terms", "1000000000", "--out", out])
    assert rc == 0 and peak < 8 * 2**20
    rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
    assert [r[8:10] for r in rows] == [["divergent"] * 2, ["finite"] * 2]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = [(mpmath.zeta(0.6) - mpmath.zeta(0.6, 10**9 + 1)) ** 0.5,
                mpmath.zeta(1.2) ** 0.25]
    assert [float(r[7]) for r in rows] == pytest.approx([float(w) for w in want], rel=1e-14)


def test_scan_row_count_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = [
        "scan",
        "--k-list",
        "1,2",
        "--lam-range",
        "0.3:0.9:3",
        "--p-range",
        "1.5,2.0",
        "--terms",
        "50",
    ]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    lines = Path(out1).read_text().splitlines()
    assert lines[0].startswith("k,lambda,gamma,p,q,M,")
    assert len(lines) == 1 + 2 * 3 * 2
    assert Path(out2).read_text() == Path(out1).read_text()


def test_scan_start_cell_resume(tmp_path):
    out = str(tmp_path / "tail.csv")
    args = [
        "scan",
        "--k-list",
        "1",
        "--lam-range",
        "0.3,0.6,0.9",
        "--p-range",
        "2.0",
        "--terms",
        "10",
    ]
    assert main(args + ["--start-cell", "2", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 2  # header + last cell only


def test_scan_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("k_list = 1,2,3\nlam_range = 0.5\np_range = 2.0\n")
    out = str(tmp_path / "cfg.csv")
    rc = main(
        [
            "scan",
            "--config",
            str(cfg),
            "--k-list",
            "2",  # flag wins over the config's three values
            "--terms",
            "10",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")


def test_scan_empty_config_list_exits_2(tmp_path, capsys):
    # a config line `k_list =` ran the default k = 1,2,3 and exited 0
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("k_list =\n")
    assert main(["scan", "--config", str(cfg), "--terms", "10", "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", [
    "k-list = 2\nterms = 10\n",  # a misspelt key and a key that is only a flag
    "k_list = 2\nterms = 10\n",
    "# comment\n\nk_list\n",  # a line without =
    "= 2\n",
])
def test_scan_config_refuses_an_unknown_key_or_a_line_without_equals(tmp_path, capsys, text):
    # these lines used to be ignored: scan ran the default 96 cells and exited 0
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(text)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--terms", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config line ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--max-m", "3", "--out", "-"],
    ["apply", "--input", "missing.jsonl", "--out", "-"],
])
def test_apply_and_kernel_refuse_out_dash_before_any_work(tmp_path, monkeypatch, capsys, argv):
    # both used to write a file named "-" in the working directory and exit 0;
    # the missing input shows that apply refuses before it reads anything
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --out - ")
    assert list(tmp_path.iterdir()) == []


def test_kstar_output(tmp_path):
    out = str(tmp_path / "kstar.csv")
    rc = main(
        ["kstar", "--k", "1", "--lam", "0.8", "--terms-list", "5,10", "--out", out]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "k,lambda,M,l2k_norm"
    assert len(lines) == 3
    # 2k = 2: Parseval gives sqrt(sum m^{-1.6})
    val = float(lines[1].split(",")[-1])
    expect = np.sqrt(sum(m**-1.6 for m in range(1, 6)))
    assert val == pytest.approx(expect, abs=1e-12)


def test_kstar_at_k_three_is_exact(capsys):
    # 30-digit sums over all m1^3 + m2^3 + m3^3; 2 terms^k nodes used to alias them
    assert main(["kstar", "--k", "3", "--lam", "0.8", "--terms-list", "5,10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["5", "10"]
    want = [1.5779090979351294931, 1.704831223512216026]
    for r, w in zip(rows, want):
        assert float(r[3]) == pytest.approx(w, rel=1e-13)


@pytest.mark.parametrize("k, terms", [
    ("-1", "0"),  # used to raise ZeroDivisionError
    ("0", "5"),
    ("1", "0"),
    ("3", "1000"),  # 10^9 k-tuples
    ("99999999999999999999", "5"),  # used to hang forming terms^k
])
def test_kstar_rejects_bad_k_and_terms_with_exit_2(k, terms, capsys):
    assert main(["kstar", "--k", k, "--terms-list", terms]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("terms", ["1000", "99999999999999999999"])
def test_kstar_over_the_tuple_budget_exits_2_at_once(terms, capsys):
    rc, peak = _traced_exit(["kstar", "--k", "3", "--terms-list", terms])
    assert rc == 2 and peak < 8 * 2**20
    assert "k-tuples" in capsys.readouterr().err


def test_kstar_at_k_three_reaches_past_the_old_grid_cap(capsys):
    # 111 terms was the most that 2^22 grid nodes allowed at k = 3
    assert main(["kstar", "--k", "3", "--terms-list", "111,200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["111", "200"]
    assert float(rows[1][3]) > float(rows[0][3])


HUGE_K = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["kstar", "--k", HUGE_K, "--terms-list", "1"],  # used to raise OverflowError
    ["kernel", "--k", "513", "--max-m", "3", "--out", os.devnull],
])
def test_a_power_over_the_bound_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "power must lie in [1, 512]" in capsys.readouterr().err


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [
    ["kernel", "--k", HUGE_K, "--max-m", "3", "--out", "k.jsonl"],
    ["apply", "--symbol", "fractional", "--k", HUGE_K, "--window=0:10", "--input", "d.jsonl",
     "--out", "o.jsonl"],
    ["opnorm", "--k", HUGE_K],
])
def test_a_huge_power_is_refused_before_any_power_is_formed(tmp_path, argv):
    # Each used to hang in a big-int power, which does not check signals: run
    # in a child with a timeout and an address-space limit.
    save_jsonl(sequence(1, {(0,): 1.0}), tmp_path / "d.jsonl")
    src = str(Path(latmult.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-m", "latmult.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=10,
                         preexec_fn=_one_gib_address_space)
    assert run.returncode == 2 and "power must lie in [1, 512]" in run.stderr
    assert run.stdout == "" and sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]


def test_kernel_at_the_largest_power_writes_exact_indices(tmp_path):
    out = tmp_path / "k.jsonl"
    assert main(["kernel", "--k", "512", "--max-m", "3", "--out", str(out)]) == 0
    assert load_jsonl(out).support() == [(1,), (2**512,), (3**512,)]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("cmd", ["norm", "apply"])
def test_a_non_finite_input_value_exits_2(tmp_path, capsys, token, cmd):
    # used to load, print "nan" norms and exit 0
    path = tmp_path / "f.jsonl"
    path.write_text(f'{{"dim": 1}}\n{{"index": [0], "re": 1.0, "im": 0.0}}\n'
                    f'{{"index": [3], "re": 0.5, "im": {token}}}\n')
    argv = [cmd, "--input", str(path)]
    if cmd == "apply":
        argv += ["--out", str(tmp_path / "o.jsonl"), "--window=-8:8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_gohberg_rejects_a_bad_tolerance_with_exit_2(tolerance, capsys):
    # used to print "# verdict=not-compact" and exit 0
    assert main(["gohberg", "--symbol", "inverse-distance", "--tolerance", tolerance]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_gohberg_output_and_verdict(tmp_path):
    out = str(tmp_path / "gohberg.csv")
    rc = main(
        [
            "gohberg",
            "--symbol",
            "inverse-distance",
            "--max-radius",
            "40",
            "--grid-res",
            "8",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "radius,decay"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
    assert lines[-1] == "# verdict=consistent"


def test_gohberg_unknown_symbol_exits_2():
    assert main(["gohberg", "--symbol", "nope"]) == 2


def test_gohberg_over_sample_budget_exits_2_before_listing_radii(capsys):
    rc, peak = _traced_exit(["gohberg", "--max-radius", "1000000000"])
    assert rc == 2 and peak < 8 * 2**20
    assert "symbol samples" in capsys.readouterr().err


def test_gohberg_without_radii_exits_2(capsys):
    # used to print "# verdict=consistent" for the non-compact symbol
    assert main(["gohberg", "--symbol", "one", "--max-radius", "-1"]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_spectrum_constant_symbol_flat(tmp_path):
    out = str(tmp_path / "spec.csv")
    rc = main(
        [
            "spectrum",
            "--symbol",
            "one",
            "--grid-res",
            "64",
            "--window-radius",
            "6",
            "--count",
            "5",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "index,singular_value"
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_full_tail_matches_frobenius_norm(tmp_path):
    out = str(tmp_path / "spec.csv")
    argv = ["spectrum", "--symbol", "oscillating-decay", "--window-radius", "28",
            "--count", "57", "--out", out]
    assert main(argv) == 0
    lines = Path(out).read_text().splitlines()
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(values) == 57
    assert np.all(values >= 0) and np.all(np.diff(values) <= 0)
    A = pdo_matrix(oscillating_decay_pdo(), centered_window(28), TorusGrid(1, 64))
    frob_sq = np.linalg.norm(A.entries, "fro") ** 2
    assert np.sum(values**2) == pytest.approx(frob_sq, rel=1e-12)


def test_verify_text_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS criterion") == 11
    assert "FAIL" not in out


def test_verify_json_and_fault_injection(capsys):
    rc = main(["verify", "--format", "json", "--inject-fault", "kernel"])
    res = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert len(res) == 11
    flags = {r["criterion"]: r["passed"] for r in res}
    assert flags[1] is False
    assert all(flags[c] for c in range(2, 12))
    assert all(isinstance(r["elapsed"], float) and r["elapsed"] >= 0 for r in res)


def test_import_loads_no_test_only_packages():
    code = ("import sys, latmult; "
            "print(sorted({'mpmath', 'hypothesis'} & set(sys.modules)))")
    src = str(Path(latmult.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_back_to_back_main_calls_share_no_state(seq_file, tmp_path, capsys):
    f, path = seq_file
    moved, plain = str(tmp_path / "moved.jsonl"), str(tmp_path / "plain.jsonl")
    assert main(["apply", "--input", path, "--out", moved, "--symbol", "modulation",
                 "--shift", "3", "--window=-8:12"]) == 0
    assert main(["apply", "--input", path, "--out", plain, "--window=-8:12"]) == 0
    # the second call is the identity: no --symbol or --shift carried over
    for out, expect in ((moved, translate(f, 3)), (plain, f)):
        got = load_jsonl(out)
        assert all(abs(got[(n,)] - expect[(n,)]) < 1e-12 for n in range(-8, 13))
    capsys.readouterr()
    classify = ["classify", "--k", "1", "--lam", "0.5", "--p", "2"]
    assert main(classify) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(classify[:-2])  # --p is required
    assert exc.value.code == 2 and "--p" in capsys.readouterr().err
    assert main(classify) == 0
    assert capsys.readouterr() == first


def test_the_parser_is_built_on_the_first_call_only():
    # importing the CLI builds nothing (it is imported in every benchmark set-up);
    # the first main() builds the parser, later calls reuse it
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import latmult.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(3):\n"
            "    latmult.cli.main(['classify', '--k', '1', '--lam', '0.5', '--p', '2'])\n"
            "    counts.append(len(built))\n"
            "print(counts)")
    src = str(Path(latmult.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    counts = json.loads(out.splitlines()[-1])
    assert counts[0] == 0 and counts[1] > 0 and counts[1:] == [counts[1]] * 3


# 40-digit mpmath values of the defining sums; each printed nan, 0 or inf before
@pytest.mark.parametrize("vals, flags, key, want", [
    ([1.0, 0.5], ["--p", "2", "--r", "1e-4"], "seminorm", 1.0000060056807068034),
    ([1.0, 0.5], ["--p", "2", "--r", "1e-300"], "seminorm", 1.0),
    ([0.5], ["--p", "2000"], "lp", 0.5),
    ([1e-200, 1e-200], ["--p", "2"], "lp", 1.4142135623730950235e-200),
    ([0.5], ["--p", "1e300"], "seminorm", 0.5),
    ([1e300, 1e300], ["--p", "2"], "lp", 1.4142135623730951231e300),
])
def test_norm_at_the_edges_of_the_float_range(tmp_path, capsys, vals, flags, key, want):
    path = str(tmp_path / "f.jsonl")
    save_jsonl(sequence(1, {(i,): v for i, v in enumerate(vals)}), path)
    assert main(["norm", "--input", path, *flags]) == 0
    got = json.loads(capsys.readouterr().out)
    assert float(got[key]) == pytest.approx(want, rel=1e-13, abs=0)


def test_apply_l2_summary_of_huge_values_is_finite(tmp_path, capsys):
    path, out = str(tmp_path / "f.jsonl"), str(tmp_path / "g.jsonl")
    save_jsonl(sequence(1, {(0,): 1e300, (1,): 1e300}), path)
    assert main(["apply", "--input", path, "--out", out, "--window=-4:4"]) == 0
    norms = json.loads(capsys.readouterr().out)["norms"]
    assert float(norms["l2"]) == pytest.approx(1.4142135623730951231e300, rel=1e-13, abs=0)


def test_a_norm_beyond_the_largest_float_exits_2(tmp_path, capsys):
    path = str(tmp_path / "f.jsonl")
    save_jsonl(sequence(1, {(0,): 1.7e308, (1,): 1.7e308}), path)
    assert main(["norm", "--input", path, "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "largest float" in captured.err
