import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latmult.fractional import FractionalParams, fractional_kernel
from latmult.lattice import add, delta, scale, sequence, translate
from latmult.norms import distribution, equivalent_seminorm, lp_norm, weak_norm
from latmult.verification import _seminorm_subset_oracle


def random_seq(rng, span=10, count=8):
    pts = rng.choice(np.arange(-span, span + 1), size=count, replace=False)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return sequence(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def alpha_grid_weak_norm(f, p, points=10**5):
    """Brute-force sup over a dense alpha grid, nudged below each f*_j."""
    mags = np.sort(f.magnitudes())[::-1]
    if len(mags) == 0:
        return 0.0
    lo, hi = mags[-1] / 2.0, mags[0]
    grid = np.concatenate([np.linspace(lo, hi, points), mags * (1 - 1e-12)])
    best = 0.0
    for a in grid:
        if a <= 0:
            continue
        count = int(np.count_nonzero(mags > a))
        if count:
            best = max(best, a * count ** (1.0 / p))
    return best


def test_lp_norm_of_delta():
    for p in (1.0, 2.0, 7.5):
        assert lp_norm(delta(0), p) == 1.0


def test_lp_norm_three_four_five():
    f = sequence(1, {(0,): 3.0, (1,): 4.0})
    assert lp_norm(f, 2.0) == pytest.approx(5.0, rel=1e-15)


def test_lp_norm_l1_accumulation_oracle():
    rng = np.random.default_rng(31)
    f = random_seq(rng)
    acc = sum(abs(v) for _, v in f.items())
    assert lp_norm(f, 1.0) == pytest.approx(acc, rel=1e-13)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(delta(0), 0.9)


def test_empty_sequence_norms_are_zero():
    empty = sequence(1, {})
    assert lp_norm(empty, 2.0) == 0.0
    assert weak_norm(empty, 2.0) == 0.0
    assert equivalent_seminorm(empty, 2.0, 1.0) == 0.0
    assert distribution(empty, 1.0) == 0


def test_distribution_strictness():
    assert distribution(delta(0), 0.5) == 1
    assert distribution(delta(0), 1.0) == 0


def test_distribution_counts():
    f = sequence(1, {(0,): 1.0, (1,): 0.5, (2,): 1.0 / 3.0})
    assert distribution(f, 0.4) == 2


def test_distribution_matches_linear_scan():
    rng = np.random.default_rng(32)
    f = random_seq(rng)
    for a in rng.uniform(1e-3, 3.0, 100):
        expect = sum(1 for _, v in f.items() if abs(v) > a)
        assert distribution(f, float(a)) == expect


def test_distribution_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        distribution(delta(0), 0.0)


def test_weak_norm_of_delta():
    for p in (0.5, 1.0, 2.0, 5.0):
        assert weak_norm(delta(0), p) == 1.0


def test_weak_norm_critical_profile():
    # f*_j = j^{-1/p} makes every candidate j^{1/p} f*_j equal to 1
    p = 2.0
    f = sequence(1, {(j,): (j + 1) ** (-1.0 / p) for j in range(12)})
    assert weak_norm(f, p) == pytest.approx(1.0, abs=1e-14)


def test_weak_norm_matches_alpha_grid_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        f = random_seq(rng)
        assert weak_norm(f, 2.0) == pytest.approx(
            alpha_grid_weak_norm(f, 2.0), abs=1e-9
        )


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_weak_norm_scaling(c):
    f = sequence(1, {(0,): 1.0, (1,): 0.5, (3,): 0.25})
    assert weak_norm(scale(f, c), 2.0) == pytest.approx(
        c * weak_norm(f, 2.0), rel=1e-12
    )


def test_weak_norm_below_strong_norm():
    rng = np.random.default_rng(34)
    for _ in range(50):
        f = random_seq(rng)
        for p in (1.5, 2.0, 3.0):
            assert weak_norm(f, p) <= lp_norm(f, p) * (1 + 1e-12)


def test_seminorm_delta():
    assert equivalent_seminorm(delta(0), 2.0, 1.0) == 1.0


def test_seminorm_two_equal_values():
    p, r = 2.0, 1.0
    c = 0.7
    f = sequence(1, {(0,): c, (5,): c})
    assert equivalent_seminorm(f, p, r) == pytest.approx(
        2 ** (1.0 / p) * c, rel=1e-14
    )


def test_seminorm_matches_exhaustive_subsets():
    rng = np.random.default_rng(35)
    for _ in range(10):
        f = random_seq(rng, count=8)
        mags = f.magnitudes()
        best = 0.0
        for size in range(1, len(mags) + 1):
            for combo in itertools.combinations(mags, size):
                best = max(best, size ** (1.0 / 2 - 1.0) * sum(combo))
        assert equivalent_seminorm(f, 2.0, 1.0) == pytest.approx(best, abs=1e-12)
        # criterion 7's oracle enumerates the same subsets as mask rows
        assert _seminorm_subset_oracle(f, 2.0, 1.0) == pytest.approx(best, abs=1e-12)


def test_seminorm_default_r_is_half_p():
    rng = np.random.default_rng(36)
    f = random_seq(rng)
    assert equivalent_seminorm(f, 3.0) == equivalent_seminorm(f, 3.0, 1.5)


def test_seminorm_rejects_bad_r():
    with pytest.raises(ValueError):
        equivalent_seminorm(delta(0), 2.0, 2.0)
    with pytest.raises(ValueError):
        equivalent_seminorm(delta(0), 2.0, 0.0)


def test_sandwich_inequality():
    rng = np.random.default_rng(37)
    for _ in range(200):
        f = random_seq(rng)
        for p in (1.5, 2.0, 3.0):
            r = p / 2.0
            w = weak_norm(f, p)
            s = equivalent_seminorm(f, p, r)
            assert w <= s + 1e-12
            assert s <= (p / (p - r)) ** (1.0 / r) * w + 1e-12


def test_rearrangement_profile_sorted():
    rng = np.random.default_rng(38)
    f = random_seq(rng)
    fstar = f.rearranged
    assert len(fstar) == len(f)
    assert all(a >= b for a, b in zip(fstar, fstar[1:]))


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_sup_norm_is_max_magnitude(vals):
    f = sequence(1, {(i,): v for i, v in enumerate(vals)})
    expect = max(abs(complex(v)) for v in vals)
    assert lp_norm(f, math.inf) == expect
    assert weak_norm(f, math.inf) == expect


@pytest.mark.parametrize(
    "norm",
    [
        lambda f: lp_norm(f, math.nan),
        lambda f: weak_norm(f, math.nan),
        lambda f: equivalent_seminorm(f, math.nan),
        lambda f: equivalent_seminorm(f, math.nan, 1.0),
        lambda f: equivalent_seminorm(f, 2.0, math.nan),
    ],
    ids=["lp-p", "weak-p", "seminorm-p", "seminorm-p-with-r", "seminorm-r"],
)
def test_nan_exponent_rejected(norm):
    with pytest.raises(ValueError):
        norm(delta(0))


def test_rearrangement_is_computed_once_and_read_only():
    f = fractional_kernel(FractionalParams(2, 0.6, 0.7), 1000)
    r = f.rearranged
    assert f.rearranged is r
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0] = 0.0
    want = np.sort(f.magnitudes())[::-1]
    assert r.tobytes() == want.tobytes() and r.strides == want.strides


def test_magnitudes_are_computed_once_and_read_only():
    f = fractional_kernel(FractionalParams(2, 0.6, 0.7), 1000)
    mags = f.magnitudes()
    assert f.magnitudes() is mags
    assert not mags.flags.writeable
    with pytest.raises(ValueError):
        mags[0] = 0.0
    assert mags.tobytes() == np.hypot(f.val.real, f.val.imag).tobytes()


def test_rearranging_leaves_the_magnitudes_in_support_order():
    f = random_seq(np.random.default_rng(4))
    mags = f.magnitudes()
    before = mags.tobytes()
    fstar = f.rearranged
    assert f.magnitudes() is mags and mags.tobytes() == before
    # a reversed view of an ascending sort of the same floats
    assert fstar.strides == (-8,)
    assert fstar.tobytes() == np.sort(np.hypot(f.val.real, f.val.imag))[::-1].tobytes()


def test_derived_sequences_compute_their_own_magnitudes():
    f = random_seq(np.random.default_rng(5))
    mags = f.magnitudes()
    for g in (translate(f, 4), scale(f, -2.0), add(f, f), scale(f, 1.0)):
        assert "_magnitudes" not in vars(g)
        assert g.magnitudes() is not mags
        assert g.magnitudes().tobytes() == np.hypot(g.val.real, g.val.imag).tobytes()


def test_derived_sequences_compute_their_own_rearrangement():
    f = random_seq(np.random.default_rng(3))
    r = f.rearranged
    for g in (translate(f, 4), scale(f, -2.0), add(f, f), scale(f, 1.0)):
        assert "rearranged" not in vars(g)
        assert g.rearranged is not r
        assert g.rearranged.tobytes() == np.sort(g.magnitudes())[::-1].tobytes()


@pytest.mark.parametrize("p", [1.25, 2.0, 5.0])
def test_norms_read_the_same_floats_from_the_cache(p):
    f = fractional_kernel(FractionalParams(3, 0.5, 1.3), 10**4)
    first = (weak_norm(f, p), equivalent_seminorm(f, p), equivalent_seminorm(f, p, p / 3))
    assert "rearranged" in vars(f)
    again = (weak_norm(f, p), equivalent_seminorm(f, p), equivalent_seminorm(f, p, p / 3))
    assert again == first


def mp_norms(vals, p, r):
    """lp, weak and seminorm of |vals| by their defining sums in mpmath, with
    enough digits that x^r - 1 is resolved for tiny r."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + max(0, int(-math.log10(r)))):
        m = sorted((mpmath.mpf(abs(v)) for v in vals), reverse=True)
        p_, r_ = mpmath.mpf(p), mpmath.mpf(r)
        lp = mpmath.fsum(x**p_ for x in m) ** (1 / p_)
        weak = max(mpmath.mpf(j) ** (1 / p_) * x for j, x in enumerate(m, 1))
        semi = max(mpmath.mpf(s) ** (1 / p_ - 1 / r_) * mpmath.fsum(x**r_ for x in m[:s])
                   ** (1 / r_) for s in range(1, len(m) + 1))
        return float(lp), float(weak), float(semi)


# each gave a seminorm nan (r = 1e-4, 1e-300), an lp or seminorm 0, or an lp inf
FLOAT_EDGES = [([1.0, 0.5], 2.0, 1e-4), ([1.0, 0.5], 2.0, 1e-300), ([0.5], 2000.0, None),
               ([1e-200, 1e-200], 2.0, None), ([0.5], 1e300, None),
               ([1e300, -1e300j], 2.0, None), ([3e-170, 1e-160, 2e-165], 2.0, 0.5)]


@pytest.mark.parametrize("vals, p, r", FLOAT_EDGES)
def test_norms_at_the_edges_of_the_float_range_match_mpmath(vals, p, r):
    f = sequence(1, {(i,): v for i, v in enumerate(vals)})
    got = (lp_norm(f, p), weak_norm(f, p), equivalent_seminorm(f, p, r))
    want = mp_norms(vals, p, p / 2.0 if r is None else r)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("vals, norm", [
    ([1.7e308, 1.7e308], lambda f: lp_norm(f, 2.0)),
    ([1.7e308, 1.7e308], lambda f: weak_norm(f, 2.0)),
    ([1.7e308, 1.7e308], lambda f: equivalent_seminorm(f, 2.0, 1.0)),
    ([1.0, 0.5], lambda f: weak_norm(f, 1e-300)),  # 2^{1e300} / 2
    ([1.0, 0.5], lambda f: equivalent_seminorm(f, 1e-300, 5e-301)),
], ids=["lp", "weak", "seminorm", "weak-tiny-p", "seminorm-tiny-p"])
def test_a_norm_beyond_the_largest_float_raises(vals, norm):
    with pytest.raises(ValueError, match="largest float"):
        norm(sequence(1, {(i,): v for i, v in enumerate(vals)}))


@pytest.mark.parametrize("r", [0.001, 0.01, 0.1, 0.5, 1.5])
def test_seminorm_keeps_its_digits_at_small_r(r):
    # the plain power 1/r multiplies the rounding of the prefix sums by 1/r
    rng = np.random.default_rng(int(r * 1000))
    vals = list(rng.standard_normal(12) * 10.0 ** rng.uniform(-2, 2, 12))
    f = sequence(1, {(i,): v for i, v in enumerate(vals)})
    want = mp_norms(vals, 2.0, r)[2]
    assert equivalent_seminorm(f, 2.0, r) == pytest.approx(want, rel=1e-14, abs=0)
