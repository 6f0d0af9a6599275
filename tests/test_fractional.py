import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmult import fractional
from latmult.cli import main
from latmult.fractional import (
    KSTAR_TUPLE_ELEMENTS,
    FractionalParams,
    _coefficients,
    _iroot,
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
from latmult.lattice import box, convolve, delta, from_arrays, sequence
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


# --- kernel terms and coefficients --------------------------------------------

def _formula(params, m):
    """m^{-decay} e^{-i gamma ln m} as one expression, with no array reused."""
    return m ** (-params.decay) * np.exp(-1j * params.oscillation * np.log(m))


@pytest.mark.parametrize("k, lam, gam", [
    (1, 0.5, 0.0), (2, 1.0, 0.7), (3, 0.5, 1.3), (3, 0.37, -2.1), (2, 1e-9, 5.0),
])
def test_kernel_matches_the_formula_byte_for_byte(k, lam, gam):
    params = FractionalParams(k, lam, gam)
    kern = fractional_kernel(params, 30001)
    m = np.arange(1, 30002)
    assert kern.idx.dtype == np.int64
    assert kern.idx[:, 0].tobytes() == (m**k).tobytes()
    assert kern.val.tobytes() == _formula(params, m.astype(np.float64)).tobytes()


def test_kernel_with_python_int_indices_matches_the_formula():
    params = FractionalParams(5, 0.6, 0.4)
    kern = fractional_kernel(params, 10**4)
    assert kern.idx.dtype == object
    assert kern.idx[:, 0].tolist() == [m**5 for m in range(1, 10**4 + 1)]
    assert kern.val.tobytes() == _formula(params, np.arange(1.0, 10**4 + 1)).tobytes()


def test_kernel_peak_is_32_bytes_per_term():
    # the coefficients (float m, its logs, the complex values) are formed
    # before the int64 indices, so at most 32 B per term are alive at once
    terms = 10**6
    tracemalloc.start()
    try:
        kern = fractional_kernel(FractionalParams(3, 0.5, 0.7), terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kern) == terms
    assert peak <= 32 * terms + 2**18


def _per_shift_oracle(params, f, lo, hi):
    """The scatter with one coefficient per shift, in the order the operator sums."""
    k, rows = params.power, []
    for (s,), v in f.items():
        first = 1 if lo - s <= 1 else _iroot(lo - s - 1, k) + 1
        rows += [(s + m**k, m, v) for m in range(first, _iroot(hi - s, k) + 1)]
    if not rows:
        return sequence(1, [])
    n, m, v = (np.array(col) for col in zip(*rows))
    return from_arrays(n[:, None], v * _coefficients(params, m.astype(np.float64)))


def _no_convolve(*args):
    assume(False)  # the case takes the kernel-convolution path, not the scatter


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.floats(0.05, 1.0),
    st.floats(-3.0, 3.0),
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=8, unique=True),
    st.integers(-10**4, 10**4),
    st.integers(9, 10**5),
)
def test_scatter_values_match_the_per_shift_oracle(k, lam, gam, support, lo, length):
    params = FractionalParams(k, lam, gam)
    vals = np.linspace(-1.0, 1.5, len(support)) + 0.25j
    f = from_arrays(np.array(support)[:, None], vals)
    hi = lo + length
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractional, "convolve", _no_convolve)
        got = apply_fractional(params, f, box(lo, hi))
    want = _per_shift_oracle(params, f, lo, hi)
    assert np.array_equal(got.idx, want.idx)
    assert got.val.tobytes() == want.val.tobytes()


def test_wide_m_span_takes_the_per_shift_coefficients():
    # m runs over 1..100 for the point 0 and is 10^6 for the point -10^12: a
    # table over that span would hold 10^6 coefficients for 101 shifts
    params = FractionalParams(2, 0.5, 0.3)
    f = from_arrays(np.array([[0], [-(10**12)]]), np.array([1.0, 2.0j]))
    tracemalloc.start()
    try:
        got = apply_fractional(params, f, box(0, 10**4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = _per_shift_oracle(params, f, 0, 10**4)
    assert len(got) == 101 and got.val.tobytes() == want.val.tobytes()
    assert peak < 2**20


def test_scatter_evaluates_one_coefficient_per_distinct_m(monkeypatch):
    # kernel-sparse's sizes: 10 points in [0, hi/10] on the window [0, hi]
    rng = np.random.default_rng(19)
    seen = []

    def counting(params, m):
        seen.append(len(m))
        return _coefficients(params, m)

    monkeypatch.setattr(fractional, "_coefficients", counting)
    for k, hi in ((2, 10**6), (3, 10**9)):
        support = np.unique(rng.integers(0, hi // 10, 10))
        f = from_arrays(support[:, None], rng.standard_normal(len(support)) + 0j)
        seen.clear()
        got = apply_fractional(FractionalParams(k, 0.5, 0.4), f, box(0, hi))
        m_hi = _iroot(hi - int(support[0]), k)
        shifts = sum(_iroot(hi - int(s), k) for s in support)
        assert seen == [m_hi] and shifts > 5 * m_hi
        assert got == _per_shift_oracle(FractionalParams(k, 0.5, 0.4), f, 0, hi)
