import json

import numpy as np
import pytest

from latmult.catalog import oscillating_decay_pdo
from latmult.cli import main
from latmult.fractional import FractionalParams, fractional_kernel
from latmult.lattice import centered_window, load_jsonl, save_jsonl, sequence, translate
from latmult.operators import pdo_matrix
from latmult.torus import TorusGrid


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


def test_apply_aliasing_violation_exits_3(tmp_path):
    # support at 0 and 64 collide mod the default grid resolution 64
    path = str(tmp_path / "bad.jsonl")
    save_jsonl(sequence(1, {(0,): 1.0, (64,): 1.0}), path)
    rc = main(
        ["apply", "--input", path, "--out", str(tmp_path / "o.jsonl")]
    )
    assert rc == 3


def test_apply_modulation_output_aliasing_window_exits_3(tmp_path, capsys):
    # delta at 0 shifted by 64 lands outside the window but is congruent to 0
    path = str(tmp_path / "d.jsonl")
    save_jsonl(sequence(1, {(0,): 1.0}), path)
    argv = ["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"),
            "--symbol", "modulation", "--shift", "64", "--window=-8:8"]
    assert main(argv) == 3
    assert "aliasing" in capsys.readouterr().err


def test_apply_window_beyond_int64_exits_2(tmp_path, capsys):
    path = str(tmp_path / "d.jsonl")
    save_jsonl(sequence(1, {(0,): 1.0}), path)
    argv = ["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"),
            "--window=9223372036854775809:9223372036854775810"]
    assert main(argv) == 2
    assert "int64" in capsys.readouterr().err


def test_opnorm_readme_example_aliases_and_exits_3(capsys):
    # support reaches 100^2 on a 256-point grid: the kernel folds onto itself
    rc = main(["opnorm", "--symbol", "fractional", "--k", "2", "--lam", "0.5", "--p", "2"])
    assert rc == 3
    assert "aliasing" in capsys.readouterr().err


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


def test_apply_index_beyond_int64_exits_2(tmp_path):
    path = str(tmp_path / "huge.jsonl")
    save_jsonl(sequence(1, {(2**64,): 1.0}), path)
    rc = main(["apply", "--input", path, "--out", str(tmp_path / "o.jsonl"),
               "--window=1:8"])
    assert rc == 2


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
    lines = open(out1).read().splitlines()
    assert lines[0].startswith("k,lambda,gamma,p,q,M,")
    assert len(lines) == 1 + 2 * 3 * 2
    assert open(out2).read() == open(out1).read()


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
    lines = open(out).read().splitlines()
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
    lines = open(out).read().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")


def test_kstar_output(tmp_path):
    out = str(tmp_path / "kstar.csv")
    rc = main(
        ["kstar", "--k", "1", "--lam", "0.8", "--terms-list", "5,10", "--out", out]
    )
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "k,lambda,M,l2k_norm"
    assert len(lines) == 3
    # 2k = 2: Parseval gives sqrt(sum m^{-1.6})
    val = float(lines[1].split(",")[-1])
    expect = np.sqrt(sum(m**-1.6 for m in range(1, 6)))
    assert val == pytest.approx(expect, abs=1e-12)


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
    lines = open(out).read().splitlines()
    assert lines[0] == "radius,decay"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)
    assert lines[-1] == "# verdict=consistent"


def test_gohberg_unknown_symbol_exits_2():
    assert main(["gohberg", "--symbol", "nope"]) == 2


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
    lines = open(out).read().splitlines()
    assert lines[0] == "index,singular_value"
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_full_tail_matches_frobenius_norm(tmp_path):
    out = str(tmp_path / "spec.csv")
    argv = ["spectrum", "--symbol", "oscillating-decay", "--window-radius", "28",
            "--count", "57", "--out", out]
    assert main(argv) == 0
    lines = open(out).read().splitlines()
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
