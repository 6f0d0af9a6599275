import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from latmult.catalog import (
    constant_one_pdo,
    fractional_multiplier,
    identity_multiplier,
    inverse_distance_pdo,
    kernel_multiplier,
    modulation_multiplier,
    oscillating_decay_pdo,
    smooth_decay_pdo,
)
from latmult.fractional import FractionalParams
from latmult import operators
from latmult.lattice import (
    Window,
    box,
    centered_window,
    convolve,
    delta,
    from_arrays,
    restrict,
    sequence,
    translate,
)
from latmult.norms import lp_norm, weak_norm
from latmult.operators import (
    MultiplierSymbol,
    OperatorMatrix,
    OpNormEstimate,
    PdoSymbol,
    apply_multiplier,
    apply_pdo,
    conjugation_residual,
    multiplier_as_pdo,
    opnorm_l1_lp,
    opnorm_l1_weakp,
    opnorm_l2,
    pdo_matrix,
    sample_multiplier,
)
from latmult.symbols import class_check, cv_check, gohberg_decay
from latmult.torus import TorusGrid, dft, inverse_dft
from latmult.verification import _band_symbol

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


def test_kernel_side_convolution():
    rng = np.random.default_rng(44)
    k = random_seq(rng)
    assert convolve(k, delta(0)) == k


def test_kernel_side_convolution_matches_frequency_side():
    rng = np.random.default_rng(45)
    k = random_seq(rng, span=2)
    f = random_seq(rng, span=3)
    freq = apply_multiplier(kernel_multiplier(k), f, GRID, WINDOW)
    assert seq_close(freq, convolve(k, f), WINDOW, 1e-11)


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
    vec = np.array([f[p] for p in WINDOW.points()])
    mat = from_arrays(WINDOW.indices(), A.entries @ vec)
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
        vec = np.array([f[p] for p in WINDOW.points()])
        mat = from_arrays(WINDOW.indices(), A.entries @ vec)
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


def test_conjugation_residual_memory_is_bounded_by_the_window():
    # one window point on 4096 nodes: no array is nodes x nodes (256 MiB)
    tracemalloc.start()
    try:
        resid = conjugation_residual(
            inverse_distance_pdo(), TorusGrid(1, 4096), centered_window(0)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert resid <= 1e-13
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


def test_a_multiplier_is_its_kernel():
    with pytest.raises(TypeError):
        MultiplierSymbol(identity_multiplier(1).eval)  # no kernel
    for m in (identity_multiplier(3), modulation_multiplier((2, -1)),
              kernel_multiplier(sequence(2, {(0, 1): 1.0, (4, -2): 0.5j})),
              fractional_multiplier(FractionalParams(3, 0.5, 0.2), 7)):
        assert m.dim == m.kernel.dim


@pytest.mark.parametrize("make", [
    lambda: fractional_multiplier(FractionalParams(2, 0.5), 100),
    lambda: fractional_multiplier(FractionalParams(1, 0.7, 0.3), 40),
    lambda: modulation_multiplier((301,)),
    lambda: fractional_multiplier(FractionalParams(40, 0.5), 10),  # indices beyond int64
], ids=["k2", "k1-gamma", "modulation", "k40"])
def test_kernel_backed_opnorms_are_the_kernel_norms_on_any_grid(make):
    # a one-point window on a 4-node grid: the kernel's points alias and lie
    # outside the window, yet its norms are exact
    m = make()
    for p in (1.5, 2.0, 3.0):
        weak = opnorm_l1_weakp(m, p, TorusGrid(1, 4), centered_window(0))
        strong = opnorm_l1_lp(m, p, TorusGrid(1, 4), centered_window(0))
        assert weak == OpNormEstimate(weak_norm(m.kernel, p), True, 0.0)
        assert strong == OpNormEstimate(lp_norm(m.kernel, p), True, 0.0)


def test_a_kernel_beyond_int64_has_exact_grid_samples():
    # the scalar eval forms m^40 xi in floats and refuses; the grid samples are
    # dft(kernel), exact mod M: every phase m^40 j / M reduced in integers first
    terms, M = 10, GRID.resolution
    m = fractional_multiplier(FractionalParams(40, 0.5), terms)
    with pytest.raises(ValueError, match="int64"):
        m.eval(np.array([0.25]))
    ms = np.arange(1, terms + 1)
    residues = np.array([pow(int(c), 40, M) for c in ms], dtype=np.int64)
    phase = np.outer(np.arange(M), residues) % M
    want = np.exp(-2j * np.pi * phase / M) @ ms**-0.5
    got = sample_multiplier(m, GRID).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(m.kernel.val))


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


BANDS = {f"band-{i}": _band_symbol(np.random.default_rng(70 + i)) for i in range(3)}
CONJUGATION_SYMBOLS = {
    "one": constant_one_pdo(),
    "inverse-distance": inverse_distance_pdo(),
    "oscillating-decay": oscillating_decay_pdo(),
    "smooth-decay": smooth_decay_pdo(),
    **BANDS,
    # the scalar route through the residual: each band symbol with eval only
    **{f"{name}-scalar": PdoSymbol(1, sym.eval) for name, sym in BANDS.items()},
}


@pytest.mark.parametrize("lo, hi", [(-7, 8), (0, 16), (10**6, 10**6 + 16),
                                    (10**12, 10**12 + 16)])
@pytest.mark.parametrize("name", sorted(CONJUGATION_SYMBOLS))
def test_conjugation_residual_on_off_centre_windows(name, lo, hi):
    # F sends delta_n to frequency -n; a window not symmetric about 0 shows a sign slip
    window = Window(1, (lo,), (hi,))
    assert conjugation_residual(CONJUGATION_SYMBOLS[name], GRID, window) <= 1e-13


@pytest.mark.parametrize("lo", [(3, -5), (10**9, 7)])
def test_conjugation_residual_on_off_centre_boxes_in_dim_2(lo):
    window = box(lo, (lo[0] + 4, lo[1] + 3))
    for sym in (constant_one_pdo(2), inverse_distance_pdo(2)):
        assert conjugation_residual(sym, TorusGrid(2, 16), window) <= 1e-13


# ---- the scalar route keeps the rows of the last (symbol, grid) ----------


def _counting_band_symbol(seed=0):
    """A scalar band symbol sum_{|u|<=2} c_u(n) e^{2 pi i u xi} and its call count."""
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    theta = rng.uniform(0.0, 1.0, 5)
    U = np.arange(-2, 3)
    calls = [0]

    def ev(n, xi):
        calls[0] += 1
        c = alpha + np.exp(2j * np.pi * theta * n[0]) / (1.0 + abs(n[0]))
        return complex(c @ np.exp(2j * np.pi * U * xi[0]))

    return PdoSymbol(1, ev), calls


def _section_recipe(sym, fresh):
    """pdo_matrix and apply_pdo on a radius-16 window, then the conjugation
    residual on radius 8, on 64 nodes; `fresh` gives each call its own copy."""
    f = random_seq(np.random.default_rng(3), span=8, count=9)
    same = (lambda: dataclasses.replace(sym)) if fresh else (lambda: sym)
    grid, w16 = TorusGrid(1, 64), centered_window(16)
    return (pdo_matrix(same(), w16, grid), apply_pdo(same(), f, grid, w16),
            conjugation_residual(same(), grid, centered_window(8)))


def test_the_section_recipe_samples_each_row_once():
    sym, calls = _counting_band_symbol()
    _section_recipe(sym, fresh=False)
    assert calls[0] == 33 * 64  # the route with no block made (33 + 33 + 17) * 64


def test_kept_rows_give_the_same_bytes_as_fresh_symbols():
    sym, _ = _counting_band_symbol()
    kept = _section_recipe(sym, fresh=False)
    fresh = _section_recipe(sym, fresh=True)
    assert kept[0].entries.tobytes() == fresh[0].entries.tobytes()
    assert kept[1].idx.tobytes() == fresh[1].idx.tobytes()
    assert kept[1].val.tobytes() == fresh[1].val.tobytes()
    assert kept[2] == fresh[2]


def test_a_larger_window_evaluates_only_its_new_rows():
    sym, calls = _counting_band_symbol()
    small = pdo_matrix(sym, centered_window(4), GRID)
    assert calls[0] == 9 * 64
    large = pdo_matrix(sym, centered_window(8), GRID)
    assert calls[0] == 17 * 64
    again = pdo_matrix(dataclasses.replace(sym), centered_window(8), GRID)
    assert large.entries.tobytes() == again.entries.tobytes()
    assert small.entries.tobytes() == pdo_matrix(
        dataclasses.replace(sym), centered_window(4), GRID).entries.tobytes()


def test_another_grid_or_symbol_re_evaluates():
    sym, calls = _counting_band_symbol()
    w = centered_window(4)
    pdo_matrix(sym, w, GRID)
    pdo_matrix(sym, w, TorusGrid(1, 64))  # an equal grid keeps the rows
    assert calls[0] == 9 * 64
    pdo_matrix(sym, w, TorusGrid(1, 32))
    assert calls[0] == 9 * 64 + 9 * 32
    pdo_matrix(sym, w, GRID)  # the block now holds the 32-node rows
    assert calls[0] == 2 * 9 * 64 + 9 * 32
    pdo_matrix(dataclasses.replace(sym), w, GRID)  # equal, but another symbol
    assert calls[0] == 3 * 9 * 64 + 9 * 32


def test_the_kept_rows_stay_under_the_sample_cap(monkeypatch):
    cap = 20 * 8
    monkeypatch.setattr(operators, "MAX_SYMBOL_SAMPLES", cap)
    sym, calls = _counting_band_symbol()
    grid = TorusGrid(1, 8)
    windows = [Window(1, (lo,), (hi,)) for lo, hi in
               [(-4, 4), (5, 14), (15, 24), (-4, 4), (0, 19)]]
    wants = [pdo_matrix(dataclasses.replace(sym), w, grid) for w in windows]
    calls[0], held, evaluated = 0, [], []
    for window, want in zip(windows, wants):
        before = calls[0]
        got = pdo_matrix(sym, window, grid)
        assert got.entries.tobytes() == want.entries.tobytes()
        block_sym, block_grid, block = operators._last_block
        assert block_sym is sym and block_grid == grid
        assert len(block) * grid.node_count <= cap
        held.append(len(block))
        evaluated.append((calls[0] - before) // grid.node_count)
    # past the cap a new block keeps only the request's rows, reusing those it had
    assert held == [9, 19, 10, 19, 20]
    assert evaluated == [9, 10, 10, 9, 10]


def test_threads_sharing_the_block_get_their_own_symbols_rows(monkeypatch):
    cap = 20 * 8
    monkeypatch.setattr(operators, "MAX_SYMBOL_SAMPLES", cap)
    grid = TorusGrid(1, 8)
    syms = [_counting_band_symbol(seed)[0] for seed in range(2)]
    windows = [Window(1, (lo,), (lo + 9,)) for lo in (-10, -4, 3, 10)]
    wants = {(s, w): pdo_matrix(dataclasses.replace(syms[s]), windows[w], grid).entries.tobytes()
             for s in range(2) for w in range(4)}
    errors = []

    def work(t):
        for i in range(40):
            s, w = (t + i // 3) % 2, (t + i) % 4
            try:
                if pdo_matrix(syms[s], windows[w], grid).entries.tobytes() != wants[s, w]:
                    errors.append(("wrong rows", t, i))
                if len(operators._last_block[2]) * grid.node_count > cap:
                    errors.append(("over the cap", t, i))
            except Exception as exc:  # reported below with the thread and step
                errors.append((repr(exc), t, i))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_class_check_samples_its_symbol_through_the_kept_block():
    calls = [0]

    def ev(xi, x):
        calls[0] += 1
        return np.exp(2j * np.pi * x[0]) / (1.0 + xi[0] ** 2)

    a, probe, grid = PdoSymbol(1, ev), centered_window(200), TorusGrid(1, 256)
    first = class_check(a, 0.0, 0.0, 0.0, 2, 2, probe, grid)
    assert calls[0] == 403 * 256  # the extended window [-200, 202] x the nodes
    second = class_check(a, 0.0, 0.0, 0.0, 2, 2, probe, grid)
    assert calls[0] == 403 * 256
    assert operators._last_block[0] is a
    assert first.rows == second.rows


# ---- every symbol entry point refuses a dimension mismatch ---------------


def _one_dim_symbol():
    return PdoSymbol(1, lambda n, xi: np.exp(2j * np.pi * xi[0]) / (1 + abs(n[0])))


def test_gohberg_decay_refuses_a_symbol_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gohberg_decay(_one_dim_symbol(), TorusGrid(2, 4), [0, 1, 2])


def test_pdo_matrix_refuses_a_symbol_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        pdo_matrix(_one_dim_symbol(), centered_window(1, 2), TorusGrid(2, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        pdo_matrix(inverse_distance_pdo(1), centered_window(2), TorusGrid(2, 4))


def test_apply_pdo_refuses_an_output_window_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_pdo(_one_dim_symbol(), delta(0), TorusGrid(1, 8), centered_window(1, 2))


def test_conjugation_residual_and_cv_check_refuse_a_dimension_mismatch():
    grid = TorusGrid(2, 4)
    for call in (
        lambda: conjugation_residual(_one_dim_symbol(), grid, centered_window(1, 2)),
        lambda: conjugation_residual(inverse_distance_pdo(2), grid, centered_window(1)),
        lambda: cv_check(_one_dim_symbol(), 0.0, 1, 1, centered_window(2, 2), grid),
    ):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()
