import tracemalloc

import numpy as np
import pytest

from latmult.catalog import (
    fractional_multiplier,
    identity_multiplier,
    kernel_multiplier,
    modulation_multiplier,
)
from latmult.fractional import FractionalParams
from latmult.lattice import (
    Window,
    box,
    centered_window,
    convolve,
    delta,
    restrict,
    sequence,
    translate,
)
from latmult.norms import lp_norm, weak_norm
from latmult.operators import (
    MultiplierSymbol,
    OperatorMatrix,
    PdoSymbol,
    apply_by_kernel,
    apply_matrix,
    apply_multiplier,
    apply_pdo,
    conjugation_residual,
    multiplier_as_pdo,
    opnorm_l1_lp,
    opnorm_l1_weakp,
    opnorm_l2,
    pdo_matrix,
    sample_multiplier,
    save_matrix_csv,
)
from latmult.torus import TorusGrid, dft, inverse_dft

GRID = TorusGrid(1, 64)
WINDOW = centered_window(8)


def random_seq(rng, span=4, count=5):
    pts = rng.choice(np.arange(-span, span + 1), size=count, replace=False)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return sequence(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def seq_close(f, g, window, tol):
    return all(abs(f[p] - g[p]) <= tol for p in window.points())


def test_identity_multiplier_restricts():
    rng = np.random.default_rng(41)
    f = random_seq(rng)
    out = apply_multiplier(identity_multiplier(1), f, GRID, WINDOW)
    assert seq_close(out, restrict(f, WINDOW), WINDOW, 1e-12)


def test_modulation_symbol_translates():
    rng = np.random.default_rng(42)
    f = random_seq(rng)
    out = apply_multiplier(modulation_multiplier(3), f, GRID, WINDOW)
    assert seq_close(out, translate(f, 3), WINDOW, 1e-12)


def test_multiplier_matches_kernel_side_oracle():
    rng = np.random.default_rng(43)
    k = random_seq(rng, span=2, count=5)
    f = random_seq(rng, span=3, count=5)
    out = apply_multiplier(kernel_multiplier(k), f, GRID, WINDOW)
    assert seq_close(out, convolve(k, f), WINDOW, 1e-11)


def test_apply_by_kernel_is_convolution():
    rng = np.random.default_rng(44)
    k = random_seq(rng)
    assert apply_by_kernel(k, delta(0)) == k
    f = random_seq(rng)
    assert apply_by_kernel(k, f) == convolve(k, f)


def test_apply_by_kernel_matches_frequency_side():
    rng = np.random.default_rng(45)
    k = random_seq(rng, span=2)
    f = random_seq(rng, span=3)
    freq = apply_multiplier(kernel_multiplier(k), f, GRID, WINDOW)
    assert seq_close(freq, apply_by_kernel(k, f), WINDOW, 1e-11)


def test_pdo_reduces_to_multiplier():
    rng = np.random.default_rng(46)
    f = random_seq(rng)
    m = kernel_multiplier(random_seq(rng, span=2))
    via_pdo = apply_pdo(multiplier_as_pdo(m), f, GRID, WINDOW)
    via_mult = apply_multiplier(m, f, GRID, WINDOW)
    assert seq_close(via_pdo, via_mult, WINDOW, 1e-13)


def test_pdo_frequency_independent_symbol_is_pointwise():
    rng = np.random.default_rng(47)
    f = random_seq(rng)
    a = PdoSymbol(1, lambda n, xi: 1.0 / (1.0 + n[0] ** 2))
    out = apply_pdo(a, f, GRID, WINDOW)
    for p in WINDOW.points():
        assert abs(out[p] - f[p] / (1.0 + p[0] ** 2)) < 1e-12


def test_pdo_matches_matrix_oracle():
    rng = np.random.default_rng(48)
    a = PdoSymbol(
        1, lambda n, xi: np.exp(-2j * np.pi * xi[0]) / (1.0 + n[0] ** 2)
    )
    f = random_seq(rng, span=3)
    out = apply_pdo(a, f, GRID, WINDOW)
    A = pdo_matrix(a, WINDOW, GRID)
    mat = apply_matrix(A, f)
    assert seq_close(out, mat, WINDOW, 1e-11)


def test_pdo_matrix_identity_symbol():
    A = pdo_matrix(multiplier_as_pdo(identity_multiplier(1)), WINDOW, GRID)
    assert np.max(np.abs(A.entries - np.eye(WINDOW.cardinality))) < 1e-12


def test_pdo_matrix_multiplier_is_convolution_structured():
    rng = np.random.default_rng(49)
    m = kernel_multiplier(random_seq(rng, span=2))
    A = pdo_matrix(multiplier_as_pdo(m), WINDOW, GRID)
    pts = WINDOW.points()
    diffs = {}
    for i, n1 in enumerate(pts):
        for j, n2 in enumerate(pts):
            d = n1[0] - n2[0]
            if d in diffs:
                assert abs(A.entries[i, j] - diffs[d]) < 1e-12
            else:
                diffs[d] = A.entries[i, j]


def test_pdo_matrix_agrees_with_apply_on_random_inputs():
    rng = np.random.default_rng(50)
    a = PdoSymbol(
        1,
        lambda n, xi: np.cos(2 * np.pi * xi[0]) + 1j * np.sin(2 * np.pi * xi[0]) / (1 + abs(n[0])),
    )
    A = pdo_matrix(a, WINDOW, GRID)
    for _ in range(20):
        f = random_seq(rng, span=3)
        direct = apply_pdo(a, f, GRID, WINDOW)
        mat = apply_matrix(A, f)
        assert seq_close(direct, mat, WINDOW, 1e-11)


def test_pdo_matrix_cap():
    with pytest.raises(ValueError):
        pdo_matrix(
            multiplier_as_pdo(identity_multiplier(1)),
            centered_window(3000),
            GRID,
        )


def test_symbol_sample_cap_is_checked_before_sampling():
    def never(n, xi):
        raise AssertionError("symbol evaluated past the sample cap")

    a = PdoSymbol(1, never)
    grid = TorusGrid(1, 4096)
    window = centered_window(2000)  # 4001 x 4096 samples, below MATRIX_CAP rows
    tracemalloc.start()
    try:
        for call in (
            lambda: pdo_matrix(a, window, grid),
            lambda: apply_pdo(a, delta(0), grid, window),
            lambda: conjugation_residual(a, grid, window),
        ):
            with pytest.raises(ValueError, match="symbol samples"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_apply_pdo_cap_is_checked_before_listing_the_output_window():
    def never(n, xi):
        raise AssertionError("symbol evaluated past the sample cap")

    out = Window(1, (0,), (10**9 - 1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symbol samples"):
            apply_pdo(PdoSymbol(1, never), delta(0), TorusGrid(1, 8), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_conjugation_grid_operator_cap_is_checked_before_sampling():
    # one window point, but the nodes x nodes grid operator would be 256 MiB
    def never(n, xi):
        raise AssertionError("symbol evaluated past the sample cap")

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symbol samples"):
            conjugation_residual(
                PdoSymbol(1, never), TorusGrid(1, 4096), centered_window(0)
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_opnorm_weakp_identity():
    for p in (1.5, 2.0, 3.0):
        est = opnorm_l1_weakp(identity_multiplier(1), p, GRID, centered_window(4))
        assert est.certified
        assert est.value == pytest.approx(1.0, abs=1e-12)


def test_opnorm_weakp_critical_kernel():
    p = 2.0
    k = sequence(1, {(j,): (j + 1) ** (-1.0 / p) for j in range(9)})
    est = opnorm_l1_weakp(kernel_multiplier(k), p, GRID, centered_window(10))
    assert est.certified
    assert est.value == pytest.approx(1.0, abs=1e-11)


def test_opnorm_weakp_fractional_partial_sum_is_one():
    # decay = 1/p puts every rearrangement candidate exactly at 1
    p = 2.0
    for terms in (1, 3, 7):
        m = fractional_multiplier(FractionalParams(2, 0.5), terms)
        est = opnorm_l1_weakp(m, p, TorusGrid(1, 256), box((0,), (terms**2,)))
        assert est.value == pytest.approx(1.0, abs=1e-10)


def test_opnorm_lp_trivial_cases():
    est = opnorm_l1_lp(identity_multiplier(1), 2.0, GRID, centered_window(4))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    k = sequence(1, {(0,): 3.0, (1,): 4.0})
    est = opnorm_l1_lp(kernel_multiplier(k), 2.0, GRID, centered_window(4))
    assert est.value == pytest.approx(5.0, rel=1e-12)


def test_opnorm_lp_delta_inputs_attain_it():
    rng = np.random.default_rng(51)
    p = 2.0
    k = random_seq(rng, span=3)
    m = kernel_multiplier(k)
    est = opnorm_l1_lp(m, p, GRID, centered_window(6))
    # random unit-l1 inputs never exceed it; delta inputs attain it
    best_random = 0.0
    for _ in range(200):
        f = random_seq(rng, span=2)
        f = sequence(1, {i: v / lp_norm(f, 1.0) for i, v in f.entries.items()})
        best_random = max(best_random, lp_norm(convolve(k, f), p))
    assert best_random <= est.value + 1e-10
    best_delta = max(
        lp_norm(convolve(k, delta(a)), p) for a in range(-2, 3)
    )
    assert best_delta == pytest.approx(est.value, abs=1e-10)


def test_opnorm_uncertified_when_mass_escapes():
    # kernel mass in the dilated shell: truncation to the window is lossy
    k = sequence(1, {(0,): 1.0, (4,): 1.0})
    est = opnorm_l1_weakp(kernel_multiplier(k), 2.0, TorusGrid(1, 128), centered_window(2))
    assert not est.certified


def test_opnorm_l2_identity_and_diagonal():
    w = box((0,), (1,))
    assert opnorm_l2(OperatorMatrix(w, np.eye(2, dtype=complex))) == pytest.approx(
        1.0, rel=1e-10
    )
    diag = OperatorMatrix(w, np.diag([3.0 + 0j, 1.0]))
    assert opnorm_l2(diag) == pytest.approx(3.0, rel=1e-10)


def test_opnorm_l2_matches_svd_oracle():
    rng = np.random.default_rng(52)
    w = box((0,), (7,))
    for _ in range(10):
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        est = opnorm_l2(OperatorMatrix(w, M))
        assert est == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-8)


def test_delta_extremality():
    rng = np.random.default_rng(53)
    m = kernel_multiplier(random_seq(rng, span=3))
    out = apply_multiplier(m, delta(0), GRID, WINDOW)
    recon = inverse_dft(sample_multiplier(m, GRID), WINDOW)
    assert seq_close(out, recon, WINDOW, 1e-12)


def test_strong_young_on_random_pairs():
    rng = np.random.default_rng(54)
    for _ in range(50):
        k, f = random_seq(rng), random_seq(rng)
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(convolve(k, f), p) <= lp_norm(k, p) * lp_norm(
                f, 1.0
            ) + 1e-12


def test_conjugation_residual_pure_multiplier():
    rng = np.random.default_rng(55)
    m = kernel_multiplier(random_seq(rng, span=2))
    assert conjugation_residual(multiplier_as_pdo(m), GRID, WINDOW) < 1e-10


def test_conjugation_residual_identity_symbol():
    sym = multiplier_as_pdo(identity_multiplier(1))
    assert conjugation_residual(sym, GRID, WINDOW) < 1e-13


def test_conjugation_residual_x_dependent_symbol():
    a = PdoSymbol(
        1,
        lambda n, xi: np.exp(2j * np.pi * xi[0]) * (1.0 + 0.5 / (1.0 + n[0] ** 2)),
    )
    assert conjugation_residual(a, GRID, WINDOW) < 1e-10


def test_conjugation_residual_symbol_odd_in_n():
    # a(n, xi) != a(-n, xi): the samples at n and at -n must not be swapped
    a = PdoSymbol(
        1,
        lambda n, xi: np.exp(2j * np.pi * (0.3 * n[0] + xi[0])) / (2.0 + np.sin(n[0])),
    )
    assert conjugation_residual(a, GRID, WINDOW) < 1e-10


def test_matrix_csv_export(tmp_path):
    A = pdo_matrix(multiplier_as_pdo(identity_multiplier(1)), box((0,), (2,)), GRID)
    path = tmp_path / "matrix.csv"
    save_matrix_csv(A, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("dim=1")
    assert lines[1] == "row,col,re,im"
    assert len(lines) == 2 + 9
