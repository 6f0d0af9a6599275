import numpy as np
import pytest

from latmult.fractional import FractionalParams, fractional_kernel
from latmult.lattice import box, centered_window, delta, from_arrays, sequence, translate
from latmult.norms import lp_norm
from latmult.torus import (
    TorusGrid,
    alias_free,
    TorusSamples,
    dft,
    inverse_dft,
    load_csv,
    lq_torus_norm,
    save_csv,
    to_grid,
)


def on_nodes(grid, fn):
    """fn evaluated node by node on the grid: a scalar oracle for grid samples."""
    return TorusSamples(grid, np.array([fn(x) for x in grid.nodes()], dtype=np.complex128))


def random_seq(rng, span=6, count=5):
    pts = rng.choice(np.arange(-span, span + 1), size=count, replace=False)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return sequence(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def test_dft_of_delta_is_constant_one():
    F = dft(delta(0), TorusGrid(1, 8))
    assert np.allclose(F.values, 1.0, atol=0)


def test_dft_of_shifted_delta_is_phase():
    grid = TorusGrid(1, 8)
    F = dft(delta(1), grid)
    xi = grid.nodes()[:, 0]
    assert np.max(np.abs(F.values - np.exp(-2j * np.pi * xi))) < 1e-15


def test_dft_matches_direct_summation_oracle():
    rng = np.random.default_rng(21)
    grid = TorusGrid(1, 16)
    f = random_seq(rng, count=5)
    F = dft(f, grid)
    for node, value in zip(grid.nodes(), F.values):
        acc = sum(
            v * np.exp(-2j * np.pi * idx[0] * node[0]) for idx, v in f.items()
        )
        assert abs(value - acc) <= 1e-13 * max(abs(acc), 1.0)


def test_to_grid_rows_are_dfts_of_their_sequences():
    # repeated points and points far beyond M fold like the sum does
    rng = np.random.default_rng(26)
    for dim, M in ((1, 16), (2, 8)):
        grid = TorusGrid(dim, M)
        points = rng.integers(-20, 20, size=(12, dim))
        points[3] = points[7]
        points[5] += 10**12
        values = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        rows = to_grid(values, points, grid)
        assert rows.shape == (4, grid.node_count)
        for row, vals in zip(rows, values):
            want = dft(from_arrays(points, vals), grid).values
            assert np.max(np.abs(row - want)) <= 1e-12


def test_dft_dim2():
    grid = TorusGrid(2, 4)
    f = delta((1, -1))
    F = dft(f, grid)
    for node, value in zip(grid.nodes(), F.values):
        expect = np.exp(-2j * np.pi * (node[0] - node[1]))
        assert abs(value - expect) < 1e-14


def test_inverse_dft_recovers_delta():
    grid = TorusGrid(1, 8)
    out = inverse_dft(dft(delta(0), grid), centered_window(3))
    assert abs(out[(0,)] - 1.0) < 1e-14
    assert all(abs(out[(n,)]) < 1e-13 for n in range(-3, 4) if n != 0)


def test_inverse_dft_round_trip():
    rng = np.random.default_rng(22)
    grid = TorusGrid(1, 16)
    f = random_seq(rng, span=3, count=5)
    g = inverse_dft(dft(f, grid), box((-8,), (7,)))
    for n in range(-8, 8):
        assert abs(g[(n,)] - f[(n,)]) < 1e-12


def test_inverse_dft_aliasing_contract():
    # a delta at M e_1 folds onto the origin: e^{-2 pi i M xi} = 1 at all nodes
    M = 16
    grid = TorusGrid(1, M)
    out = inverse_dft(dft(delta(M), grid), centered_window(2))
    assert abs(out[(0,)] - 1.0) < 1e-13


def test_alias_free_needs_congruence_on_every_axis():
    assert alias_free([(0,), (63,)], 64)
    assert not alias_free([(0,), (64,)], 64)
    assert not alias_free([(-1,), (63,)], 64)
    assert alias_free([(3,), (3,), (4,)], 64)  # a repeated point is one point
    assert alias_free([(0, 0), (64, 1)], 64)
    assert not alias_free([(0, 0), (64, -64)], 64)


def test_lq_norm_constant_and_unimodular():
    grid = TorusGrid(1, 32)
    c = TorusSamples(grid, np.full(32, 3.0 - 4.0j))
    for q in (1.0, 2.0, 4.0):
        assert lq_torus_norm(c, q) == pytest.approx(5.0, rel=1e-14)
    wave = on_nodes(grid, lambda x: np.exp(2j * np.pi * x[0]))
    assert lq_torus_norm(wave, 4.0) == pytest.approx(1.0, rel=1e-14)


def test_lq_norm_parseval_two_deltas():
    for M in (2, 5, 16):
        grid = TorusGrid(1, M)
        F = dft(sequence(1, {(0,): 1.0, (1,): 1.0}), grid)
        assert lq_torus_norm(F, 2.0) == pytest.approx(np.sqrt(2), rel=1e-13)


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
def test_lq_norm_of_a_constant_at_the_edges_of_the_float_range(c, q):
    # the plain sum of |F|^q gave inf (with a RuntimeWarning) at 1e200 and 0 at 1e-200, q = 2
    assert lq_torus_norm(TorusSamples(TorusGrid(1, 4), np.full(4, c)), q) == c


def test_lq_norm_of_zero_samples_is_zero():
    assert lq_torus_norm(TorusSamples(TorusGrid(2, 4), np.zeros(16)), 2.0) == 0.0


def test_lq_norm_rejects_small_q():
    grid = TorusGrid(1, 4)
    with pytest.raises(ValueError):
        lq_torus_norm(TorusSamples(grid, np.ones(4)), 0.5)


def test_parseval_random():
    rng = np.random.default_rng(23)
    grid = TorusGrid(1, 16)
    for _ in range(50):
        f = random_seq(rng)
        assert lq_torus_norm(dft(f, grid), 2.0) == pytest.approx(
            lp_norm(f, 2.0), rel=1e-12
        )


def test_modulation_law():
    rng = np.random.default_rng(24)
    grid = TorusGrid(1, 16)
    xi = grid.nodes()[:, 0]
    for shift in (-3, 1, 5):
        f = random_seq(rng)
        lhs = dft(translate(f, shift), grid).values
        rhs = np.exp(-2j * np.pi * shift * xi) * dft(f, grid).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(np.max(np.abs(rhs)), 1.0)


def test_node_cap_enforced():
    with pytest.raises(ValueError):
        TorusGrid(2, 3000)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    grid = TorusGrid(1, 8)
    F = TorusSamples(
        grid, rng.standard_normal(8) + 1j * rng.standard_normal(8)
    )
    path = tmp_path / "samples.csv"
    save_csv(F, path)
    G = load_csv(path)
    assert G == F


def test_csv_round_trip_dim2(tmp_path):
    rng = np.random.default_rng(26)
    grid = TorusGrid(2, 3)
    F = TorusSamples(
        grid, rng.standard_normal(9) + 1j * rng.standard_normal(9)
    )
    path = tmp_path / "samples2.csv"
    save_csv(F, path)
    assert load_csv(path) == F


GOOD_ROWS = ["0,1.0,0.0", "1,2.0,0.5", "2,3.0,0.0", "3,4.0,-1.0"]


@pytest.mark.parametrize(
    "rows",
    [
        GOOD_ROWS[:3],
        GOOD_ROWS[:2] + ["1,7.0,0.0"] + GOOD_ROWS[2:],
        GOOD_ROWS[:3] + ["4,4.0,-1.0"],
        GOOD_ROWS[:3] + ["-1,4.0,-1.0"],
        GOOD_ROWS[:3] + ["3,4.0"],
        GOOD_ROWS[:3] + ["3,4.0,-1.0,0.0"],
        GOOD_ROWS[:3] + ["x,4.0,-1.0"],
        GOOD_ROWS[:3] + ["3,4.0,oops"],
    ],
    ids=[
        "missing-node",
        "duplicate-row",
        "index-above-range",
        "index-below-range",
        "too-few-fields",
        "too-many-fields",
        "bad-index",
        "bad-value",
    ],
)
def test_load_csv_rejects_bad_rows(tmp_path, rows):
    path = tmp_path / "samples.csv"
    path.write_text("M=4,dim=1\nj1,re,im\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_load_csv_accepts_rows_in_any_order(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("M=4,dim=1\nj1,re,im\n" + "\n".join(GOOD_ROWS[::-1]) + "\n")
    assert load_csv(path) == TorusSamples(
        TorusGrid(1, 4), np.array([1.0, 2.0 + 0.5j, 3.0, 4.0 - 1.0j])
    )


def test_dft_of_index_beyond_int64_is_exact_mod_m():
    # m^5 passes int64 from m = 6209 on; to_grid folds the exact indices mod M.
    # Oracle: every phase m^5 j / M reduced mod M in integers before the float.
    terms, M = 10**4, 64
    kern = fractional_kernel(FractionalParams(5, 0.5), terms)
    assert kern.idx.dtype == object
    m = np.arange(1, terms + 1)
    residues = np.array([pow(int(c), 5, M) for c in m], dtype=np.int64)
    phase = np.outer(np.arange(M), residues) % M
    want = np.exp(-2j * np.pi * phase / M) @ m**-0.5
    got = dft(kern, TorusGrid(1, M)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(kern.val))
