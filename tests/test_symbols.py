import math
import tracemalloc

import numpy as np
import pytest

from latmult.catalog import (
    coordinate_pdo,
    inverse_distance_pdo,
    oscillating_decay_pdo,
    smooth_decay_pdo,
)
from latmult.lattice import Window, box, centered_window
from latmult.operators import OperatorMatrix, PdoSymbol, pdo_matrix
from latmult.symbols import (
    class_check,
    cv_check,
    gohberg_decay,
    singular_tail,
)
from latmult.torus import TorusGrid


def _sup(a, n1, n2, window, grid):
    """class_check at order 0, rho = delta = 0, so every weight is w^0 = 1: each
    row's constant is the plain sup of |Delta^alpha d^beta a| over the window x grid."""
    report = class_check(a, 0.0, 0.0, 0.0, n1, n2, window, grid)
    return {(r.alpha, r.beta): (r.constant, r.inner_constant) for r in report.rows}


def test_difference_first_order():
    # Delta xi^2 = (xi+1)^2 - xi^2 = 2 xi + 1: sup 7 on [-3, 3], 3 on the inner [-1, 1]
    a = PdoSymbol(1, lambda xi, x: float(xi[0] ** 2))
    sup = _sup(a, 1, 0, centered_window(3), TorusGrid(1, 4))
    assert sup[(1,), (0,)] == (7.0, 3.0)


def test_difference_second_order_annihilates_affine():
    a = PdoSymbol(1, lambda xi, x: 3.0 * xi[0] + 7.0)
    sup = _sup(a, 2, 0, centered_window(3), TorusGrid(1, 4))
    assert sup[(1,), (0,)] == (3.0, 3.0)
    assert sup[(2,), (0,)] == (0.0, 0.0)


def test_difference_order_zero_is_identity():
    # sup |xi_1 + i xi_2| = |2 + 2i| on the 5x5 window, |1 + i| on its inner 3x3
    a = PdoSymbol(2, lambda xi, x: complex(xi[0], xi[1]))
    sup = _sup(a, 0, 0, centered_window(2, 2), TorusGrid(2, 2))
    assert sup[(0, 0), (0, 0)] == (abs(2 + 2j), abs(1 + 1j))


def test_difference_mixed_partial():
    # Delta_1 Delta_2 (xi_1 xi_2) = 1 everywhere
    a = PdoSymbol(2, lambda xi, x: float(xi[0] * xi[1]))
    sup = _sup(a, 2, 0, centered_window(3, 2), TorusGrid(2, 2))
    assert sup[(1, 1), (0, 0)] == (1.0, 1.0)


def test_difference_rejects_negative_order():
    a = PdoSymbol(1, lambda xi, x: 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        class_check(a, 0.0, 0.0, 0.0, -1, 0, centered_window(2), TorusGrid(1, 4))


def test_torus_derivative_of_wave():
    # |d_x e^{2 pi i 3 x}| = 6 pi
    a = PdoSymbol(1, lambda xi, x: np.exp(2j * np.pi * 3 * x[0]))
    const, inner = _sup(a, 0, 1, centered_window(2), TorusGrid(1, 32))[(0,), (1,)]
    assert const == pytest.approx(6 * np.pi, rel=1e-12)
    assert inner == pytest.approx(6 * np.pi, rel=1e-12)


def test_torus_derivative_of_cosine_second_order():
    # sup |d_x^2 cos(2 pi x)| = (2 pi)^2, at the node x = 0
    a = PdoSymbol(1, lambda xi, x: np.cos(2 * np.pi * x[0]))
    const, _ = _sup(a, 0, 2, centered_window(2), TorusGrid(1, 64))[(0,), (2,)]
    assert const == pytest.approx((2 * np.pi) ** 2, rel=1e-9)


def test_torus_derivative_dim2_mixed():
    # |d_x1 d_x2 e^{2 pi i (2 x_1 - x_2)}| = |(4 pi i)(-2 pi i)| = 8 pi^2
    a = PdoSymbol(2, lambda xi, x: np.exp(2j * np.pi * (2 * x[0] - x[1])))
    const, _ = _sup(a, 0, 2, centered_window(2, 2), TorusGrid(2, 16))[(0, 0), (1, 1)]
    assert const == pytest.approx(8 * np.pi**2, rel=1e-10)


def test_torus_derivative_dimension_guard():
    a = PdoSymbol(1, lambda xi, x: 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        class_check(a, 0.0, 0.0, 0.0, 0, 1, centered_window(2), TorusGrid(2, 8))


def test_torus_derivative_rejects_negative_order():
    a = PdoSymbol(1, lambda xi, x: 1.0)
    with pytest.raises(ValueError, match=">= 0"):
        class_check(a, 0.0, 0.0, 0.0, 0, -1, centered_window(2), TorusGrid(1, 8))


def test_class_check_bracket_power_symbol():
    # a(x, xi) = <xi>^{m0} lies in S^{m0}_{1,0}; observed constants stay near 1
    m0 = 1.5
    a = PdoSymbol(
        1, lambda xi, x: (1.0 + xi[0] ** 2) ** (m0 / 2.0)
    )
    report = class_check(
        a, m0, 0.0, 0.0, 2, 2, centered_window(10), TorusGrid(1, 16)
    )
    assert report.bounded
    assert report.constant((0,), (0,)) == pytest.approx(1.0, rel=1e-12)


def test_class_check_oscillatory_x_symbol_order_zero():
    a = PdoSymbol(1, lambda xi, x: np.exp(2j * np.pi * x[0]))
    report = class_check(
        a, 0.0, 0.0, 0.0, 1, 2, centered_window(8), TorusGrid(1, 32)
    )
    assert report.bounded
    # |d_x e^{2 pi i x}| = 2 pi, xi-independent
    assert report.constant((0,), (1,)) == pytest.approx(2 * np.pi, rel=1e-9)
    # forward difference in xi annihilates an x-only symbol
    assert report.constant((1,), (0,)) == pytest.approx(0.0, abs=1e-12)


def test_class_report_constant_of_an_unprobed_pair_raises_key_error():
    a = PdoSymbol(1, lambda xi, x: 1.0)
    report = class_check(a, 0.0, 0.0, 0.0, 0, 1, centered_window(4), TorusGrid(1, 8))
    assert report.constant((0,), (1,)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(KeyError):
        report.constant((1,), (0,))  # n1 = 0 probes no lattice difference


def test_class_check_flags_growing_symbol():
    a = PdoSymbol(1, lambda xi, x: float(xi[0]))
    report = class_check(
        a, 0.0, 0.0, 0.0, 1, 0, centered_window(16), TorusGrid(1, 8)
    )
    assert not report.bounded
    row = next(r for r in report.rows if r.alpha == (0,) and r.beta == (0,))
    assert row.growing


def test_class_check_rejects_bad_exponents():
    a = PdoSymbol(1, lambda xi, x: 1.0)
    w, g = centered_window(2), TorusGrid(1, 4)
    with pytest.raises(ValueError):
        class_check(a, 0.0, 1.0, 0.0, 1, 1, w, g)
    with pytest.raises(ValueError):
        class_check(a, 0.0, 0.0, 1.5, 1, 1, w, g)


def test_cv_check_constant_symbol_is_bounded():
    m = PdoSymbol(1, lambda n, xi: 1.0)
    report = cv_check(m, 0.0, 1, 1, centered_window(8), TorusGrid(1, 16))
    assert report.bounded
    assert report.constant((0,), (0,)) == pytest.approx(1.0, rel=1e-12)


def test_cv_check_builtins_bounded():
    probe, grid = centered_window(8), TorusGrid(1, 16)
    for sym in (inverse_distance_pdo(), oscillating_decay_pdo(), smooth_decay_pdo()):
        for rho in (0.0, 0.5):
            assert cv_check(sym, rho, 1, 1, probe, grid).bounded


def test_cv_check_coordinate_symbol_unbounded():
    report = cv_check(
        coordinate_pdo(), 0.0, 1, 1, centered_window(12), TorusGrid(1, 8)
    )
    assert not report.bounded


def test_negative_orders_are_rejected():
    # an empty row list used to certify the unbounded coordinate symbol
    probe, grid = centered_window(12), TorusGrid(1, 16)
    a = PdoSymbol(1, lambda xi, x: float(xi[0]))
    for n1, n2 in ((1, -1), (-1, 1)):
        with pytest.raises(ValueError, match=">= 0"):
            cv_check(coordinate_pdo(), 0.5, n1, n2, probe, grid)
        with pytest.raises(ValueError, match=">= 0"):
            class_check(a, 0.0, 0.0, 0.0, n1, n2, probe, grid)


def test_class_sample_cap_is_checked_before_listing_the_probe_window():
    def never(*args):
        raise AssertionError("symbol evaluated past the sample cap")

    probe, grid = Window(1, (0,), (10**9 - 1,)), TorusGrid(1, 8)
    tracemalloc.start()
    try:
        for call in (
            lambda: class_check(PdoSymbol(1, never), 0.0, 0.0, 0.0, 1, 1, probe, grid),
            lambda: cv_check(PdoSymbol(1, never), 0.0, 1, 1, probe, grid),
        ):
            with pytest.raises(ValueError, match="symbol samples"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_gohberg_inverse_distance_closed_form():
    report = gohberg_decay(
        inverse_distance_pdo(), TorusGrid(1, 8), list(range(0, 9))
    )
    for r, v in zip(report.radii, report.values):
        assert v == pytest.approx(1.0 / (1.0 + r), rel=1e-14)
    assert report.verdict == "not-compact"  # tail ends at 1/9 > 0.05
    longer = gohberg_decay(
        inverse_distance_pdo(), TorusGrid(1, 8), list(range(0, 40, 5))
    )
    assert longer.verdict == "consistent"


def test_gohberg_constant_symbol_not_compact():
    one = PdoSymbol(1, lambda n, xi: 1.0)
    report = gohberg_decay(one, TorusGrid(1, 4), [0, 2, 4, 8])
    assert report.values == [1.0, 1.0, 1.0, 1.0]
    assert report.verdict == "not-compact"


def test_gohberg_takes_a_list_a_range_or_a_generator_of_radii():
    grid = TorusGrid(1, 8)
    want = gohberg_decay(inverse_distance_pdo(), grid, [0, 1, 2, 3])
    for radii in (range(4), (r for r in range(4))):
        got = gohberg_decay(inverse_distance_pdo(), grid, radii)
        assert (got.radii, got.values) == (want.radii, want.values)


def test_gohberg_rejects_unsorted_radii():
    with pytest.raises(ValueError):
        gohberg_decay(PdoSymbol(1, lambda n, xi: 1.0), TorusGrid(1, 4), [2, 1])


def test_gohberg_rejects_empty_radii():
    # no radius probed used to give the verdict "consistent"
    with pytest.raises(ValueError, match="nonempty"):
        gohberg_decay(PdoSymbol(1, lambda n, xi: 1.0), TorusGrid(1, 4), [])


def test_singular_tail_diagonal_matrix():
    w = box((0,), (5,))
    diag = np.diag([1.0 / (j + 1) for j in range(6)]).astype(complex)
    got = singular_tail(OperatorMatrix(w, diag), 6)
    expect = [1.0 / (j + 1) for j in range(6)]
    assert np.allclose(got, expect, atol=1e-9)


def test_singular_tail_matches_svd_oracle():
    rng = np.random.default_rng(71)
    w = box((0,), (7,))
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    got = singular_tail(OperatorMatrix(w, M), 5)
    expect = np.linalg.svd(M, compute_uv=False)[:5]
    assert np.allclose(got, expect, rtol=1e-7)


def test_singular_tail_scalar_operator_is_flat():
    grid = TorusGrid(1, 32)
    A = pdo_matrix(
        PdoSymbol(1, lambda n, xi: 1.0), centered_window(8), grid
    )
    sigmas = singular_tail(A, 17)
    assert np.allclose(sigmas, 1.0, atol=1e-10)


def test_singular_tail_count_guard():
    A = OperatorMatrix(box((0,), (1,)), np.eye(2, dtype=complex))
    for count in (3, -1):
        with pytest.raises(ValueError):
            singular_tail(A, count)


def test_class_check_rejects_probe_window_with_empty_inner_half():
    # |xi|_inf <= 10 // 2 holds at no point of [6, 10]; the constant symbol
    # used to come out "unbounded", every row flagged as growing
    window, grid = Window(1, (6,), (10,)), TorusGrid(1, 8)
    with pytest.raises(ValueError, match="inner half"):
        cv_check(PdoSymbol(1, lambda n, xi: 1.0), 0.0, 1, 1, window, grid)
    with pytest.raises(ValueError, match="inner half"):
        class_check(PdoSymbol(1, lambda xi, x: 1.0), 0.0, 0.0, 0.0, 1, 1, window, grid)
    report = cv_check(PdoSymbol(1, lambda n, xi: 1.0), 0.0, 1, 1, Window(1, (5,), (10,)), grid)
    assert report.verdict == "bounded"
