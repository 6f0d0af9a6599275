import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmult.lattice import (
    add,
    box,
    centered_window,
    convolve,
    delta,
    from_arrays,
    load_jsonl,
    sequence,
    translate,
)
from latmult.norms import distribution, lp_norm

RNG = np.random.default_rng(7)


def random_seq(rng, span=5, count=6):
    pts = rng.choice(np.arange(-span, span + 1), size=count, replace=False)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return sequence(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def test_delta_basics():
    d = delta(0)
    assert d.support() == [(0,)]
    assert d[(0,)] == 1
    assert lp_norm(d, 1.0) == 1.0

    d2 = delta((2, -1))
    assert d2.dim == 2
    assert d2.support() == [(2, -1)]


def test_delta_is_convolution_identity():
    f = random_seq(RNG)
    assert convolve(f, delta(0)) == f


def test_translate_moves_support():
    assert translate(delta(0), 1) == delta(1)
    f = random_seq(RNG)
    assert translate(translate(f, 3), -3) == f


@given(st.integers(-20, 20))
def test_translate_of_delta(shift):
    assert translate(delta(0), shift) == delta(shift)


def test_translate_dimension_mismatch():
    with pytest.raises(ValueError):
        translate(delta((0, 0)), (1,))


def test_translate_preserves_lp_norms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_seq(rng)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(translate(f, 4), p) == pytest.approx(
                lp_norm(f, p), rel=1e-13
            )


def test_translate_preserves_distribution():
    rng = np.random.default_rng(12)
    f = random_seq(rng)
    for alpha in (0.1, 0.5, 1.0, 2.0):
        assert distribution(translate(f, -7), alpha) == distribution(f, alpha)


def test_convolve_delta_algebra():
    assert convolve(delta(2), delta(3)) == delta(5)
    assert convolve(delta((1, 0)), delta((0, -2))) == delta((1, -2))


def test_convolve_against_double_loop_oracle():
    rng = np.random.default_rng(13)
    f = sequence(1, {(i,): complex(v) for i, v in enumerate(rng.standard_normal(4))})
    g = sequence(1, {(i,): complex(v) for i, v in enumerate(rng.standard_normal(4))})
    h = convolve(f, g)
    # brute force: h(x) = sum_y f(x-y) g(y)
    for x in range(0, 7):
        acc = sum(f[(x - y,)] * g[(y,)] for y in range(0, 4))
        assert h[(x,)] == pytest.approx(acc, abs=1e-15)


def test_convolve_commutes_and_associates():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f, g, h = (random_seq(rng, count=4) for _ in range(3))
        fg = convolve(f, g)
        gf = convolve(g, f)
        for p in fg.support():
            assert fg[p] == pytest.approx(gf[p], rel=1e-12, abs=1e-12)
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        for p in lhs.support():
            assert lhs[p] == pytest.approx(rhs[p], rel=1e-12, abs=1e-12)


def test_convolve_young_l1():
    rng = np.random.default_rng(15)
    for _ in range(20):
        f, g = random_seq(rng), random_seq(rng)
        assert lp_norm(convolve(f, g), 1.0) <= lp_norm(f, 1.0) * lp_norm(
            g, 1.0
        ) * (1 + 1e-12)
    # equality for nonnegative entries
    f = sequence(1, {(0,): 1.0, (2,): 2.0})
    g = sequence(1, {(1,): 3.0, (5,): 0.5})
    assert lp_norm(convolve(f, g), 1.0) == pytest.approx(
        lp_norm(f, 1.0) * lp_norm(g, 1.0), rel=1e-14
    )


def test_zero_entries_pruned():
    f = sequence(1, {(0,): 0.0, (1,): 2.0})
    assert f.support() == [(1,)]
    g = add(f, from_arrays(f.idx, -1 * f.val))
    assert len(g) == 0


def test_window_points_lexicographic():
    w = box((0, 0), (1, 2))
    assert w.points() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert w.cardinality == 6
    assert (1, 2) in w and (2, 0) not in w


def test_window_dilate():
    w = centered_window(4)
    wide = w.dilate(3)
    assert wide.lo == (-12,) and wide.hi == (12,)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        box((1,), (0,))


def test_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    f = random_seq(rng)
    path = tmp_path / "seq.jsonl"
    from latmult.lattice import save_jsonl

    save_jsonl(f, path)
    g = load_jsonl(path)
    assert g == f  # bit-exact for finite doubles
