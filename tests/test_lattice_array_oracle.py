"""The sorted-array LatticeSequence against the former dict implementation.

The oracle below is the earlier code, kept here only: a sequence is a dict
{point tuple: complex}, built by a running sum that drops exact zeros;
convolve is the double loop over both dicts; apply_fractional walks each
support point's shifts in Python ints; the norms read |f| in sorted support
order.  Supports must agree exactly and entries within 1e-12 of the l^1 mass
(exactly where the arithmetic is the same).
"""

import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latmult import operators, torus
from latmult.fractional import FractionalParams, _coefficients, _iroot, apply_fractional
from latmult.lattice import (
    MAX_ELEMENTS,
    LatticeSequence,
    Window,
    add,
    box,
    convolve,
    delta,
    from_arrays,
    from_sorted,
    load_jsonl,
    restrict,
    save_jsonl,
    sequence,
    translate,
)
from latmult.norms import equivalent_seminorm, lp_norm, weak_norm
from latmult.operators import PdoSymbol, apply_pdo
from latmult.torus import TorusGrid, TorusSamples, alias_free, inverse_dft

I64 = 2**63


# --- the dict oracle ---------------------------------------------------------

def dict_sequence(pairs) -> dict:
    pruned = {}
    for point, value in pairs:
        idx = (int(point),) if isinstance(point, int) else tuple(int(c) for c in point)
        v = complex(value)
        if v != 0:
            pruned[idx] = pruned.get(idx, 0j) + v
            if pruned[idx] == 0:
                del pruned[idx]
    return pruned


def dict_convolve(f: dict, g: dict) -> dict:
    out = {}
    for i, fv in f.items():
        for j, gv in g.items():
            k = tuple(x + y for x, y in zip(i, j))
            out[k] = out.get(k, 0j) + fv * gv
    return dict_sequence(out.items())


def dict_apply_fractional(params, f: dict, lo: int, hi: int) -> dict:
    k = params.power
    entries = {}
    for (s,), v in f.items():
        first = 1 if lo - s <= 1 else _iroot(lo - s - 1, k) + 1
        last = _iroot(hi - s, k)
        if first > last:
            continue
        w = v * _coefficients(params, np.arange(first, last + 1, dtype=np.float64))
        for m, c in zip(range(first, last + 1), w.tolist()):
            n = (s + m**k,)
            entries[n] = entries.get(n, 0j) + c
    return dict_sequence(entries.items())


def dict_magnitudes(f: dict) -> np.ndarray:
    return np.array([abs(f[i]) for i in sorted(f)])


def dict_jsonl(f: dict, dim: int) -> str:
    lines = [json.dumps({"dim": dim})]
    for idx in sorted(f):
        v = f[idx]
        lines.append(json.dumps({"index": list(idx), "re": v.real, "im": v.imag}))
    return "\n".join(lines) + "\n"


def assert_matches(got, want: dict, mass: float, exact: bool = False):
    assert got.support() == sorted(want)
    tol = 0.0 if exact else 1e-12 * mass
    for p, v in got.items():
        assert abs(v - want[p]) <= tol, (p, v, want[p])


# --- strategies --------------------------------------------------------------

# small coordinates collide; the others sit on and beyond the int64 edges
coords = st.one_of(
    st.integers(-4, 4),
    st.integers(I64 - 3, I64 + 2),
    st.integers(-I64 - 2, -I64 + 2),
    st.integers(-(2**70), 2**70),
)
# dyadic values: every product and sum below is exact in any order
dyadic = st.builds(
    complex, st.integers(-8, 8).map(lambda x: x / 4), st.integers(-8, 8).map(lambda x: x / 4)
)


@st.composite
def pair_lists(draw, dim, coord=coords, values=dyadic, max_size=10):
    points = st.tuples(*[coord] * dim)
    return draw(st.lists(st.tuples(points, values), max_size=max_size))


# --- construction, support, lookup, JSONL ------------------------------------

@settings(max_examples=150)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), pair_lists(d))))
def test_sequence_matches_dict_oracle(case):
    dim, pairs = case
    f, want = sequence(dim, pairs), dict_sequence(pairs)
    assert_matches(f, want, 0.0, exact=True)
    assert len(f) == len(want) and dict(f.entries) == want
    fits = all(-I64 <= c < I64 for p in want for c in p)
    assert (f.idx.dtype == np.int64) == fits
    for p in list(want) + [(0,) * dim, (2**80,) * dim]:
        assert f[p] == want.get(p, 0j)
    assert f == sequence(dim, list(want.items()))


@settings(max_examples=100)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), pair_lists(d))))
def test_save_jsonl_bytes_match_dict_oracle(tmp_path_factory, case):
    dim, pairs = case
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    save_jsonl(sequence(dim, pairs), path)
    assert path.read_text() == dict_jsonl(dict_sequence(pairs), dim)


@settings(max_examples=100)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), pair_lists(d, max_size=20))))
def test_load_jsonl_keeps_the_last_row_of_each_index(tmp_path_factory, case):
    dim, pairs = case
    lines = [json.dumps({"index": list(p), "re": v.real, "im": v.imag}) for p, v in pairs]
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_text("\n".join([json.dumps({"dim": dim})] + lines) + "\n")
    last = {p: v for p, v in pairs}  # a dict keeps the last value of each key
    g = load_jsonl(path)
    assert_matches(g, dict_sequence(last.items()), 0.0, exact=True)
    assert g == sequence(dim, last)


@pytest.mark.parametrize("dim", [1, 2])
def test_jsonl_round_trips_full_precision_values(tmp_path, dim):
    rng = np.random.default_rng(dim)
    idx = rng.integers(-(2**62), 2**62, (200, dim))
    val = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200) + 1j * rng.standard_normal(200)
    val[:3] = [-0.0j, complex(5e-324, -0.0), complex(-1.7976931348623157e308, 2.0)]
    f = sequence(dim, zip(map(tuple, idx.tolist()), val.tolist()))
    save_jsonl(f, tmp_path / "f.jsonl")
    assert (tmp_path / "f.jsonl").read_text() == dict_jsonl(dict(f.items()), dim)
    assert load_jsonl(tmp_path / "f.jsonl") == f


@pytest.mark.parametrize("value", [complex("nan"), complex(1.0, float("inf")), complex("-inf")])
def test_save_jsonl_refuses_a_non_finite_value(tmp_path, value):
    f = LatticeSequence(np.array([[0], [1]]), np.array([1.0, value]))
    with pytest.raises(ValueError, match="non-finite"):
        save_jsonl(f, tmp_path / "f.jsonl")
    assert not (tmp_path / "f.jsonl").exists()


@pytest.mark.parametrize("row", [
    '{"index": [0], "re": NaN, "im": 0}',
    '{"index": [0], "re": 1, "im": -Infinity}',
    '{"index": [0], "re": 1e999, "im": 0}',
    '{"index": [0], "re": "1", "im": 0}',
    '{"index": [0.5], "re": 1, "im": 0}',
    '{"index": ["0"], "re": 1, "im": 0}',
    '{"index": [1180591620717411303424, 0.5], "re": 1, "im": 0}',
    '{"index": [[0]], "re": 1, "im": 0}',
    '{"index": [0, 1], "re": 1, "im": 0}',
    '{"re": 1, "im": 0}',
    '{"index": [0], "re": 1, "im": 0}, {"index": [1], "re": 1, "im": 0}',
    '[0, 1]',
    # an integer beyond the float range was an unhandled OverflowError
    pytest.param('{"index": [0], "re": 1' + "0" * 400 + ', "im": 0}', id="re-beyond-float"),
    # JSON true and false were read as the numbers 1 and 0
    '{"index": [true], "re": 1, "im": 0}',
    '{"index": [0], "re": true, "im": 0}',
    '{"index": [0], "re": 1, "im": false}',
])
def test_load_jsonl_rejects_a_malformed_or_non_finite_row(tmp_path, row):
    path = tmp_path / "f.jsonl"
    path.write_text('{"dim": 1}\n{"index": [5], "re": 1, "im": 0}\n' + row + "\n")
    with pytest.raises(ValueError):
        load_jsonl(path)


@pytest.mark.parametrize("header", [
    '[1]', '5', '"dim"', 'null', '{}', '{"dim": [1]}', '{"dim": 1e400}', '{"dim": 1.5}',
    '{"dim": true}', '{"dim": "1"}', '{"dim": 0}', '{"dim": -1}',
])
def test_load_jsonl_rejects_a_malformed_header(tmp_path, header):
    path = tmp_path / "f.jsonl"
    path.write_text(header + '\n{"index": [5], "re": 1, "im": 0}\n')
    with pytest.raises(ValueError, match="header"):
        load_jsonl(path)


def test_jsonl_beyond_int64_refuses_booleans_and_round_trips(tmp_path):
    # beside an index beyond int64 a true index was kept as a Python bool, and
    # save_jsonl wrote it as True, which load_jsonl cannot read back
    path = tmp_path / "f.jsonl"
    big = '{"index": [18446744073709551616], "re": 1, "im": 0}\n'
    path.write_text('{"dim": 1}\n{"index": [true], "re": 1, "im": 0}\n' + big)
    with pytest.raises(ValueError, match="true or false"):
        load_jsonl(path)
    # "true" in a string, or in a key load_jsonl does not read, is no boolean
    path.write_text('{"dim": 1}\n{"index": [1], "re": 1, "im": 0, "note": "true"}\n' + big)
    f = load_jsonl(path)
    assert f.support() == [(1,), (2**64,)]
    save_jsonl(f, tmp_path / "g.jsonl")
    assert load_jsonl(tmp_path / "g.jsonl") == f


def test_load_jsonl_reads_indices_beyond_int64_and_blank_lines(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"dim": 1}\n\n{"index": [9223372036854775808], "re": 1, "im": 0}\n'
                    '   \n{"index": [-1], "re": 2, "im": 0}\n')
    f = load_jsonl(path)
    assert f.idx.dtype == object and f.support() == [(-1,), (2**63,)]
    path.write_text('{"dim": 2}\n')
    assert load_jsonl(path) == sequence(2, [])


def test_cancelling_repeats_prune_and_sum_in_input_order():
    f = sequence(1, [(0, 1.0), (3, 1.0), (0, -1.0), (3, 1e-16), (3, -1.0)])
    # in input order 1 + 1e-16 rounds to 1 and the running sum ends at exactly
    # 0; in reverse, -1 + 1e-16 does not round to -1
    assert f.support() == [] and f == sequence(1, [])
    many = [(j, v) for v in (1.0, 1e-16, -1.0) for j in range(100)]
    assert len(sequence(1, many)) == 0 and len(sequence(2, [((j, -j), v) for j, v in many])) == 0
    g = sequence(1, [(0, -0.0j), (1, complex(1.0, -0.0))])
    assert g.support() == [(1,)] and str(g[1]) == "(1+0j)"


def test_entries_view_is_a_read_only_mapping():
    f = sequence(2, {(1, 2): 3j, (0, 5): 1.0})
    assert list(f.entries) == [(0, 5), (1, 2)]
    assert f.entries[(1, 2)] == 3j and (0, 0) not in f.entries and len(f.entries) == 2
    assert list(f.entries.items()) == [((0, 5), 1.0), ((1, 2), 3j)]
    assert list(f.entries.values()) == [1.0, 3j]
    with pytest.raises(KeyError):
        f.entries[(0, 0)]
    with pytest.raises(ValueError):
        f.val[0] = 2.0


# --- operations --------------------------------------------------------------

@settings(max_examples=150)
@given(
    st.integers(1, 2).flatmap(
        lambda d: st.tuples(st.just(d), pair_lists(d, max_size=8), pair_lists(d, max_size=8))
    )
)
def test_convolve_add_translate_scale_match_dict_oracle(case):
    dim, pf, pg = case
    f, g = sequence(dim, pf), sequence(dim, pg)
    df, dg = dict_sequence(pf), dict_sequence(pg)
    assert_matches(convolve(f, g), dict_convolve(df, dg), 0.0, exact=True)
    assert_matches(add(f, g), dict_sequence(itertools.chain(df.items(), dg.items())),
                   0.0, exact=True)
    assert_matches(from_arrays(f.idx, (0.5 - 0.25j) * f.val),
                   dict_sequence((i, (0.5 - 0.25j) * v) for i, v in df.items()), 0.0, exact=True)
    shift = (I64 - 2,) * dim
    moved = {tuple(a + b for a, b in zip(i, shift)): v for i, v in df.items()}
    assert_matches(translate(f, shift), moved, 0.0, exact=True)


@settings(max_examples=100)
@given(
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([1, 3, 1000, 10**6]),
)
def test_convolve_random_values_match_dict_oracle(dim, seed, nf, ng, spread):
    # dense boxes take the box path, spread ones the pair path
    rng = np.random.default_rng(seed)

    def rand(n):
        pts = rng.integers(-spread, spread + 1, size=(n, dim))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return [(tuple(p), complex(v)) for p, v in zip(pts.tolist(), vals)]

    pf, pg = rand(nf), rand(ng)
    df, dg = dict_sequence(pf), dict_sequence(pg)
    mass = sum(map(abs, df.values())) * sum(map(abs, dg.values()))
    assert_matches(convolve(sequence(dim, pf), sequence(dim, pg)), dict_convolve(df, dg), mass)


def test_convolve_box_path_beyond_int64_is_exact():
    # dense enough for the box path, but the sums pass 2^63 - 1
    f = sequence(1, [(I64 - 100 + i, 1.0) for i in range(100)])
    g = sequence(1, [(i, 1.0 + i) for i in range(100)])
    want = dict_convolve(dict(f.items()), dict(g.items()))
    assert_matches(convolve(f, g), want, 0.0, exact=True)
    assert convolve(f, g).idx.dtype == object


def test_convolve_dense_box_matches_pairs():
    rng = np.random.default_rng(3)
    f = sequence(1, enumerate(rng.standard_normal(300) + 1j * rng.standard_normal(300)))
    g = sequence(1, enumerate(rng.standard_normal(200)))
    want = dict_convolve(dict(f.items()), dict(g.items()))
    mass = lp_norm(f, 1) * lp_norm(g, 1)
    assert_matches(convolve(f, g), want, mass)
    assert_matches(convolve(g, f), want, mass)


@settings(max_examples=150)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
    st.integers(-60, 60),
    st.sampled_from([0, 1, 30, 400, 10**4, 10**6]),
)
def test_apply_fractional_matches_dict_oracle(k, seed, count, lo, width):
    if k == 1:
        width = min(width, 10**4)  # keeps the oracle's Python loop short
    rng = np.random.default_rng(seed)
    params = FractionalParams(k, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0, 2)))
    pts = rng.choice(np.arange(-50, 51), size=count, replace=False)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    pairs = [((int(p),), complex(v)) for p, v in zip(pts, vals)]
    want = dict_apply_fractional(params, dict_sequence(pairs), lo, lo + width)
    got = apply_fractional(params, sequence(1, pairs), box(lo, lo + width))
    assert_matches(got, want, sum(map(abs, want.values())))


def test_apply_fractional_at_the_int64_edges():
    params = FractionalParams(1, 0.5, 0.2)
    for s, lo, hi in ((-I64 + 5, I64 - 10, I64 - 1), (I64 - 3, -I64, I64 - 1),
                      (-I64, -I64 + 1, -I64 + 40)):
        f = sequence(1, {s: 1 - 2j})
        want = dict_apply_fractional(params, dict(f.items()), lo, hi)
        assert_matches(apply_fractional(params, f, box(lo, hi)), want, 1.0)
    with pytest.raises(ValueError, match="int64"):
        apply_fractional(params, delta(I64), box(0, 5))
    with pytest.raises(ValueError, match="int64"):
        apply_fractional(params, delta(0), box(0, I64))


finite = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=150)
@given(
    st.integers(1, 2).flatmap(
        lambda d: st.tuples(st.just(d), pair_lists(d, values=finite))
    ),
    st.floats(1.0, 6.0),
)
def test_norms_match_dict_oracle_bit_for_bit(case, p):
    dim, pairs = case
    f, mags = sequence(dim, pairs), dict_magnitudes(dict_sequence(pairs))
    assert np.array_equal(f.magnitudes(), mags)
    if len(mags) == 0:
        return
    j = np.arange(1, len(mags) + 1, dtype=np.float64)
    desc = np.sort(mags)[::-1]
    assert weak_norm(f, p) == float(np.max(j ** (1.0 / p) * desc))
    r = p / 2.0
    if np.min(mags) ** p >= len(mags) * np.finfo(np.float64).tiny:  # no power underflows
        assert lp_norm(f, p) == float(np.sum(mags**p) ** (1.0 / p))
        want = np.max(j ** (1.0 / p - 1.0 / r) * np.cumsum(desc**r) ** (1.0 / r))
        assert equivalent_seminorm(f, p) == float(want)
    else:  # where the plain sums lose digits (lp of {2.2e-313} was 0), the defining sums
        mpmath = pytest.importorskip("mpmath")
        m, p_, r_ = [mpmath.mpf(float(x)) for x in desc], mpmath.mpf(p), mpmath.mpf(r)
        lp = mpmath.fsum(x**p_ for x in m) ** (1 / p_)
        semi = max(mpmath.mpf(s) ** (1 / p_ - 1 / r_) * mpmath.fsum(x**r_ for x in m[:s])
                   ** (1 / r_) for s in range(1, len(m) + 1))
        got = (lp_norm(f, p), equivalent_seminorm(f, p))
        assert got == pytest.approx((float(lp), float(semi)), rel=1e-13, abs=0)


def test_restrict_matches_dict_oracle():
    f = sequence(1, {-I64 - 1: 1.0, 0: 2.0, 5: 3.0, I64: 4.0})
    assert f.idx.dtype == object
    g = restrict(f, box(0, I64 - 1))
    assert g.idx.dtype == np.int64 and dict(g.entries) == {(0,): 2.0, (5,): 3.0}
    assert restrict(f, box(-(2**70), 2**70)) == f


# --- the size budget ---------------------------------------------------------

def _peak(call) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size budget"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_size_budget_is_checked_before_allocating():
    side = 8193  # side^2 pairs just exceed 2^26
    assert side * side > MAX_ELEMENTS >= (side - 1) ** 2
    spread = sequence(1, [(i * 10**6, 1.0) for i in range(side)])
    calls = [
        lambda: convolve(spread, spread),
        # k=1 convolves with a 10^9-term kernel, k=2 scatters 2^31 shifts
        lambda: apply_fractional(FractionalParams(1, 0.5), delta(0), box(1, 10**9)),
        lambda: apply_fractional(FractionalParams(2, 0.5), delta(0), box(0, 2**62)),
        lambda: Window(2, (0, 0), (2**13, 2**13)).indices(),
        lambda: Window(1, (0,), (10**12,)).points(),
    ]
    for call in calls:
        assert _peak(call) < 8 * 2**20


# --- the alias check by arithmetic -------------------------------------------

def set_alias_free(points, M) -> bool:
    points = set(points)
    return len({tuple(c % M for c in p) for p in points}) == len(points)


@settings(max_examples=300)
@given(
    st.integers(1, 2).flatmap(
        lambda d: st.tuples(
            st.lists(st.tuples(*[st.integers(-20, 20)] * d), max_size=6),
            st.tuples(*[st.integers(-12, 12)] * d),
            st.tuples(*[st.integers(1, 9)] * d),
        )
    ),
    st.integers(2, 8),
)
def test_alias_free_window_matches_listing_it(case, M):
    points, lo, widths = case
    window = Window(len(lo), lo, tuple(l + w - 1 for l, w in zip(lo, widths)))
    want = set_alias_free(list(points) + window.points(), M)
    dim = window.dim
    assert alias_free(np.array(points, dtype=np.int64).reshape(-1, dim), M, window) == want
    assert alias_free(points + window.points(), M) == want


def test_alias_check_of_a_huge_window_lists_nothing():
    far = Window(1, (I64 + 10,), (I64 + 12,))
    assert alias_free(np.array([[0]]), 64, far)
    assert not alias_free(np.array([[(I64 + 10) % 64]]), 64, far)
    tracemalloc.start()
    try:
        assert not alias_free(np.array([[0]]), 64, box(0, 10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- window outputs in window order ------------------------------------------

def assert_same_bytes(f: LatticeSequence, g: LatticeSequence):
    assert f.idx.dtype == g.idx.dtype and f.idx.shape == g.idx.shape
    assert f.idx.tobytes() == g.idx.tobytes()
    assert f.val.dtype == g.val.dtype and f.val.tobytes() == g.val.tobytes()


# signed zeros and exact zeros, which the window path must add 0j to and prune
edge_values = st.builds(complex, st.sampled_from([0.0, -0.0, 1.5, -2.0]),
                        st.sampled_from([0.0, -0.0, 0.25]))
window_lo = st.one_of(st.integers(-6, 6), st.integers(I64 - 8, I64 - 1),
                      st.integers(-I64, -I64 + 3))


@st.composite
def windows(draw, dim):
    lo = draw(st.tuples(*[window_lo] * dim))
    widths = draw(st.tuples(*[st.integers(1, 5)] * dim))
    return Window(dim, lo, tuple(min(l + w - 1, I64 - 1) for l, w in zip(lo, widths)))


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(windows))
def test_window_indices_match_np_indices(window):
    got = window.indices()
    want = np.indices(window.widths).reshape(window.dim, -1).T + np.array(window.lo)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_window_indices_reach_the_int64_edges():
    assert Window(1, (I64 - 3,), (I64 - 1,)).points() == [(I64 - 3,), (I64 - 2,), (I64 - 1,)]
    assert Window(1, (-I64,), (-I64,)).points() == [(-I64,)]


@settings(max_examples=200)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(windows(d), st.integers(1, 6))),
       st.lists(edge_values, min_size=36, max_size=36))
@example((Window(1, (I64 - 1,), (I64 - 1,)), 3), [-0.0j, 0j, complex(-0.0, 0.25)] * 12)
def test_window_outputs_equal_from_arrays_of_the_same_values(case, values):
    """inverse_dft and apply_pdo build their outputs by from_sorted; with
    from_arrays in its place the same values give the same bytes."""
    window, M = case
    grid = TorusGrid(window.dim, M)
    F = TorusSamples(grid, np.array(values[:grid.node_count], dtype=np.complex128))
    a = PdoSymbol(window.dim, lambda n, xi: 0j, rows=lambda n, g: F.values[None, :])
    f = delta((0,) * window.dim)
    direct = inverse_dft(F, window), apply_pdo(a, f, grid, window)
    with mock.patch.object(torus, "from_sorted", from_arrays), \
            mock.patch.object(operators, "from_sorted", from_arrays):
        sorted_ = inverse_dft(F, window), apply_pdo(a, f, grid, window)
    for got, want in zip(direct, sorted_):
        assert_same_bytes(got, want)


@settings(max_examples=200)
@given(st.integers(1, 2).flatmap(windows), st.data())
def test_from_sorted_equals_from_arrays(window, data):
    pts = window.indices()
    val = data.draw(st.lists(edge_values, min_size=len(pts), max_size=len(pts)))
    assert_same_bytes(from_sorted(pts, val), from_arrays(pts, val))
