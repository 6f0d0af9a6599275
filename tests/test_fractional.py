import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from latmult.cli import main
from latmult.fractional import (
    KSTAR_TUPLE_ELEMENTS,
    FractionalParams,
    _zeta_tail,
    apply_fractional,
    classify_conjecture1,
    classify_weak_and_strong,
    fractional_kernel,
    kstar_norm_probe,
    strong_norm_closed_form,
    symbol_partial_sum,
    weak_norm_closed_form,
    zeta,
)
from latmult.lattice import box, convolve, delta, sequence
from latmult.norms import lp_norm, weak_norm
from latmult.torus import TorusGrid, dft, lq_torus_norm

mpmath = pytest.importorskip("mpmath")


def test_kernel_support_is_kth_powers():
    k = fractional_kernel(FractionalParams(2, 0.5), 4)
    assert k.support() == [(1,), (4,), (9,), (16,)]


def test_kernel_values():
    k = fractional_kernel(FractionalParams(3, 0.75), 3)
    assert k[(1,)] == pytest.approx(1.0)
    assert k[(8,)] == pytest.approx(2.0**-0.75, rel=1e-15)
    assert k[(27,)] == pytest.approx(3.0**-0.75, rel=1e-15)


def test_kernel_oscillation_phase():
    gam = 2.5
    k = fractional_kernel(FractionalParams(1, 0.5, gam), 5)
    for m in range(1, 6):
        expect = m**-0.5 * np.exp(-1j * gam * math.log(m))
        assert k[(m,)] == pytest.approx(expect, rel=1e-14)


def test_kernel_rejects_bad_params():
    with pytest.raises(ValueError):
        FractionalParams(0, 0.5)
    with pytest.raises(ValueError):
        FractionalParams(1, 0.0)
    with pytest.raises(ValueError):
        FractionalParams(1, 1.5)
    with pytest.raises(ValueError):
        fractional_kernel(FractionalParams(1, 0.5), 0)


def test_apply_matches_kernel_convolution():
    rng = np.random.default_rng(61)
    f = sequence(
        1,
        {(int(i),): complex(v) for i, v in zip(range(-3, 3), rng.standard_normal(6))},
    )
    for k, lo in itertools.product((1, 2, 3), (-3, 7, 40)):
        params = FractionalParams(k, 0.6, 1.3)
        out = box((lo,), (40,))
        direct = apply_fractional(params, f, out)
        # any m with s + m^k <= 40 contributes; m <= 43 covers all support points
        oracle = convolve(fractional_kernel(params, 43), f)
        for p in out.points():
            assert abs(direct[p] - oracle[p]) < 1e-13


def test_apply_delta_reproduces_kernel():
    params = FractionalParams(1, 0.5)
    out = box((1,), (10,))
    got = apply_fractional(params, delta(0), out)
    k = fractional_kernel(params, 10)
    for p in out.points():
        assert abs(got[p] - k[p]) < 1e-15


def test_weak_norm_closed_form_threshold():
    assert weak_norm_closed_form(FractionalParams(1, 0.5), 2.0).value == 1.0
    assert weak_norm_closed_form(FractionalParams(1, 0.5), 3.0).value == 1.0
    assert weak_norm_closed_form(FractionalParams(1, 0.4), 2.0).divergent
    with pytest.raises(ValueError):
        weak_norm_closed_form(FractionalParams(1, 0.5), 1.0)


def test_weak_norm_truncated_kernel_cross_check():
    # truncated weak norm is max(1, M^{1/p - lam}); at lam >= 1/p it is 1
    p = 2.0
    for lam, M in ((0.5, 100), (0.8, 50)):
        k = fractional_kernel(FractionalParams(1, lam), M)
        assert weak_norm(k, p) == pytest.approx(
            max(1.0, M ** (1.0 / p - lam)), rel=1e-13
        )
    lam, M = 0.3, 200
    k = fractional_kernel(FractionalParams(1, lam), M)
    assert weak_norm(k, p) == pytest.approx(M ** (1.0 / p - lam), rel=1e-12)


def test_zeta_against_mpmath():
    for s in (1.1, 1.2, 1.5, 2.0, 3.0, 7.5):
        assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), abs=1e-10)


def test_zeta_rejects_s_at_most_one():
    with pytest.raises(ValueError):
        zeta(1.0)


def test_zeta_closed_form_matches_mpmath_to_1e14():
    s_grid = np.concatenate([1 + np.logspace(-6, 0, 40), np.linspace(2.0, 60.0, 30)])
    for s in map(float, s_grid):
        with mpmath.workdps(30):
            want = mpmath.zeta(s)
            assert abs(zeta(s) - want) <= 1e-14 * want, s


@pytest.mark.parametrize("terms", [1, 31, 32, 33, 500, 10**6, 10**9, 10**12])
def test_zeta_partial_sums_match_mpmath(terms):
    for s in [1e-3, 0.05, 0.3, 0.5, 0.77, 1 - 1e-9, 1.0, 1.5, 3.0]:
        with mpmath.workdps(40):  # zeta(s) - zeta(s, terms + 1) cancels near s = 1
            if s == 1.0:
                want = mpmath.harmonic(terms)
            else:
                want = mpmath.zeta(s) - mpmath.zeta(s, terms + 1)
            assert abs(zeta(s, terms) - want) <= 1e-13 * want, s


def test_zeta_tail_is_an_upper_bound():
    # the symbol_partial_sum L^2 certificate relies on it, after float rounding too
    for s in map(float, np.linspace(1.0, 3.0, 21)[1:].tolist() + [1 + 1e-6]):
        for N in (1, 2, 7, 31, 100, 10**4, 10**6, 10**9, 10**12):
            with mpmath.workdps(40):
                assert mpmath.mpf(_zeta_tail(s, N)) >= mpmath.zeta(s, N + 1), (s, N)


def _classify(capsys, *argv):
    assert main(["classify", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_classify_strong_norm_at_huge_and_infinite_p(capsys):
    # zeta(5e299) is 1: its tail terms must not form inf * 0 = nan
    assert _classify(capsys, "--p", "1e300", "--lam", "0.5")["strong_norm"] == "1"
    assert _classify(capsys, "--p", "inf", "--lam", "0.5") == {
        "k": 2, "lambda": "0.5", "gamma": "0", "p": "inf", "weak_1p": True,
        "strong_1p": True, "weak_norm": "1", "weak_norm_divergent": False,
        "strong_norm": "1", "strong_norm_divergent": False,
    }


def test_strong_norm_closed_form():
    res = strong_norm_closed_form(FractionalParams(1, 0.8), 2.0)
    assert not res.divergent
    assert res.value == pytest.approx(float(mpmath.zeta(1.6)) ** 0.5, abs=1e-10)
    assert strong_norm_closed_form(FractionalParams(1, 0.5), 2.0).divergent
    # power does not enter: rearrangement is the same along m^k
    res3 = strong_norm_closed_form(FractionalParams(3, 0.8), 2.0)
    assert res3.value == pytest.approx(res.value, rel=1e-15)


def test_strong_norm_truncated_cross_check():
    p, lam, M = 2.0, 0.9, 2000
    k = fractional_kernel(FractionalParams(2, lam), M)
    truncated = lp_norm(k, p)
    full = strong_norm_closed_form(FractionalParams(2, lam), p).value
    assert truncated < full
    tail = float(mpmath.zeta(lam * p)) - float(
        mpmath.nsum(lambda m: m ** (-lam * p), [1, M])
    )
    assert full**p - truncated**p == pytest.approx(tail, abs=1e-9)


def test_norm_result_float_protocol():
    res = weak_norm_closed_form(FractionalParams(1, 0.5), 2.0)
    assert float(res) == 1.0
    with pytest.raises(ValueError):
        float(weak_norm_closed_form(FractionalParams(1, 0.1), 2.0))


def test_classify_weak_and_strong_boundary():
    v = classify_weak_and_strong(FractionalParams(1, 0.5), 2.0)
    assert v.weak_1p and not v.strong_1p
    v = classify_weak_and_strong(FractionalParams(1, 0.51), 2.0)
    assert v.weak_1p and v.strong_1p
    v = classify_weak_and_strong(FractionalParams(1, 0.49), 2.0)
    assert not v.weak_1p and not v.strong_1p


def test_classifier_reduces_to_strong_threshold_at_q_one():
    for lam in (0.3, 0.5, 0.7, 0.9):
        for p in (1.5, 2.0, 4.0):
            for k in (1, 2, 5):
                assert classify_conjecture1(p, 1.0, lam, k) == (lam > 1.0 / p)


def test_classifier_examples():
    # k = 2, lam = 0.75: need 1/p <= 1/q - 1/8, 1/p < 3/4, 1/q > 1/4
    assert classify_conjecture1(2.0, 1.5, 0.75, 2)
    assert not classify_conjecture1(1.2, 1.1, 0.75, 2)  # 1/p > 1/q - 1/8
    assert not classify_conjecture1(5.0, 4.5, 0.2, 2)  # 1/q <= 1 - lam


def test_classifier_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify_conjecture1(2.0, 2.0, 0.5, 1)
    with pytest.raises(ValueError):
        classify_conjecture1(2.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        classify_conjecture1(2.0, 1.0, 0.5, 0)


def test_symbol_partial_sum_matches_kernel_dft():
    grid = TorusGrid(1, 128)
    params = FractionalParams(2, 0.7, 0.4)
    terms = 5
    ps = symbol_partial_sum(params, terms, grid)
    F = dft(fractional_kernel(params, terms), grid)
    assert np.max(np.abs(ps.samples.values - F.values)) < 1e-12


def test_symbol_partial_sum_k3_phases_are_exact_mod_m():
    # Oracle: every phase m^3 j / M reduced mod M in integers before the float.
    params, terms, M = FractionalParams(3, 0.5), 400, 1024
    ps = symbol_partial_sum(params, terms, TorusGrid(1, M))
    m = np.arange(1, terms + 1)
    residues = np.array([pow(int(k), 3, M) for k in m], dtype=np.int64)
    phase = np.outer(np.arange(M), residues) % M
    want = np.exp(-2j * np.pi * phase / M) @ m ** -0.5
    assert np.max(np.abs(ps.samples.values - want)) <= 1e-12


def test_symbol_partial_sum_tail_flag():
    grid = TorusGrid(1, 16)
    assert symbol_partial_sum(FractionalParams(1, 0.4), 3, grid).l2_tail is None
    ps = symbol_partial_sum(FractionalParams(1, 0.8), 100, grid)
    # Parseval: tail^2 ~ sum_{m>100} m^{-1.6}
    expect = float(mpmath.zeta(1.6)) - float(
        mpmath.nsum(lambda m: m**-1.6, [1, 100])
    )
    assert ps.l2_tail == pytest.approx(math.sqrt(expect), rel=1e-6)


def test_kernel_magnitudes_are_oscillation_invariant():
    p = 2.0
    base = fractional_kernel(FractionalParams(1, 0.6), 50)
    osc = fractional_kernel(FractionalParams(1, 0.6, 3.7), 50)
    assert weak_norm(base, p) == pytest.approx(weak_norm(osc, p), rel=1e-14)
    assert lp_norm(base, p) == pytest.approx(lp_norm(osc, p), rel=1e-14)


def test_kstar_probe_parseval_at_k_one():
    # 2k = 2 makes the probe a Parseval identity for the truncated kernel
    terms, lam = 40, 0.8
    got = kstar_norm_probe(1, lam, terms, TorusGrid(1, 128))
    expect = math.sqrt(sum(m ** (-2 * lam) for m in range(1, terms + 1)))
    assert got == pytest.approx(expect, abs=1e-12)


def test_kstar_probe_guards():
    with pytest.raises(ValueError):
        kstar_norm_probe(1, 0.4, 4, TorusGrid(1, 64))  # lam out of range


def _kstar_by_representations(k, lam, terms):
    """(sum_n r(n)^2)^{1/2k}, r(n) = sum over m_1^k + ... + m_k^k = n of prod m_i^{-lam}."""
    with mpmath.workdps(30):
        r = {}
        for ms in itertools.product(range(1, terms + 1), repeat=k):
            n = sum(m**k for m in ms)
            r[n] = r.get(n, 0) + mpmath.fprod(mpmath.mpf(m) ** -lam for m in ms)
        return float(mpmath.fsum(v * v for v in r.values()) ** (mpmath.mpf(1) / (2 * k)))


@pytest.mark.parametrize("k, terms", [(3, 5), (3, 10), (4, 4), (2, 10)])
def test_kstar_probe_equals_the_representation_sum(k, terms):
    # Parseval: ||S||_{2k}^{2k} = sum_n r(n)^2
    got = kstar_norm_probe(k, 0.8, terms)
    assert got == pytest.approx(_kstar_by_representations(k, 0.8, terms), rel=1e-13)


def _kstar_on_the_grid(k, lam, terms):
    """||S||_{2k} as the Riemann sum on k(terms^k - 1) + 1 nodes, where it is exact:
    no nonzero frequency difference of S^k is a multiple of the node count."""
    grid = TorusGrid(1, k * (terms**k - 1) + 1)
    return lq_torus_norm(symbol_partial_sum(FractionalParams(k, lam), terms, grid).samples, 2 * k)


@pytest.mark.parametrize("k, terms", [(3, 111), (4, 32), (2, 1448)])
def test_kstar_probe_agrees_with_the_exact_grid(k, terms):
    assert kstar_norm_probe(k, 0.8, terms) == pytest.approx(
        _kstar_on_the_grid(k, 0.8, terms), rel=1e-14)


@pytest.mark.parametrize("k, terms", [(1, 10**5), (2, 300), (3, 50)])
def test_kstar_probe_peak_is_within_its_charge(k, terms):
    tracemalloc.start()
    try:
        kstar_norm_probe(k, 0.8, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= terms**k * KSTAR_TUPLE_ELEMENTS * 16


@pytest.mark.parametrize("k, terms", [
    (0, 5), (-1, 0), (513, 1), (10**20, 5), (1, 0), (3, 1000), (1, 10**20), (30, 2),
])
def test_kstar_probe_refuses_bad_sizes_before_allocating(k, terms):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            kstar_norm_probe(k, 0.8, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
