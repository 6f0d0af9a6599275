"""The array forms of the catalog symbols against their scalar definitions.

The oracles below are the scalar evaluators the catalog used before its
symbols carried kernels and array formulas: one Python call per (point,
node), phases formed in floats.  Agreement is required entrywise within
1e-12, except where a test says the comparison is exact.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from latmult import catalog
from latmult.fractional import FractionalParams
from latmult.lattice import Window, centered_window, sequence
from latmult.operators import (
    PdoSymbol,
    _symbol_rows,
    apply_pdo,
    conjugation_residual,
    multiplier_as_pdo,
    pdo_matrix,
    sample_multiplier,
)
from latmult.symbols import _shell_points, cv_check, gohberg_decay
from latmult.torus import TorusGrid, inverse_dft
from latmult.verification import _band_symbol

TOL = 1e-12


def oracle_modulation(shift):
    a = np.array(shift, dtype=np.float64)
    return lambda xi: np.exp(-2j * np.pi * float(xi @ a))


def oracle_kernel(k):
    idx, val = k.arrays()
    return lambda xi: complex(np.exp(-2j * np.pi * (idx @ xi)) @ val)


def oracle_fractional(params, terms):
    m = np.arange(1, terms + 1, dtype=np.float64)
    powers = m**params.power
    coeff = m ** (-params.decay) * np.exp(-1j * params.oscillation * np.log(m))
    return lambda xi: complex(np.exp(-2j * np.pi * xi[0] * powers) @ coeff)


ORACLE_PDO = {
    "inverse-distance": lambda n, xi: 1.0 / (1.0 + max(abs(c) for c in n)),
    "one": lambda n, xi: 1.0 + 0j,
    "oscillating-decay": lambda n, xi: np.exp(
        2j * np.pi * 0.3 * np.sin(2 * np.pi * xi[0])
    ) / (1.0 + abs(n[0])),
    "smooth-decay": lambda n, xi: (0.5 + 0.5 * np.cos(2 * np.pi * xi[0]))
    / (1.0 + n[0] ** 2),
    "coordinate": lambda n, xi: complex(n[0]),
}
DIM2_PDO = ("inverse-distance", "one")


def random_kernel(rng, dim, radius):
    pts = list(itertools.product(range(-radius, radius + 1), repeat=dim))
    vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    return sequence(dim, {p: complex(v) for p, v in zip(pts, vals)})


def scalar_samples(ev, grid):
    return np.array([ev(x) for x in grid.nodes()], dtype=np.complex128)


def scalar_rows(ev, points, grid):
    return np.array(
        [[ev(tuple(n), x) for x in grid.nodes()] for n in points], dtype=np.complex128
    )


def never(*args):
    raise AssertionError("scalar eval called on a symbol with an array form")


def multiplier_cases():
    rng = np.random.default_rng(7)
    for dim, M in ((1, 64), (2, 16)):
        shift = (3, -5)[:dim]
        k = random_kernel(rng, dim, 2)
        yield catalog.identity_multiplier(dim), lambda xi: 1.0 + 0j, M
        yield catalog.modulation_multiplier(shift), oracle_modulation(shift), M
        yield catalog.kernel_multiplier(k), oracle_kernel(k), M
    for k, terms in ((1, 30), (2, 10)):
        params = FractionalParams(k, 0.6, 0.4)
        m = catalog.fractional_multiplier(params, terms)
        yield m, oracle_fractional(params, terms), 256


@pytest.mark.parametrize("case", range(8))
def test_catalog_multipliers_match_scalar_oracle(case):
    m, oracle, M = list(multiplier_cases())[case]
    grid = TorusGrid(m.dim, M)
    want = scalar_samples(oracle, grid)
    assert np.max(np.abs(sample_multiplier(m, grid).values - want)) <= TOL
    # eval keeps its scalar meaning
    assert np.max(np.abs(scalar_samples(m.eval, grid) - want)) <= TOL
    # and sampling never calls it: the kernel gives the samples
    quiet = dataclasses.replace(m, eval=never)
    assert np.array_equal(sample_multiplier(quiet, grid).values,
                          sample_multiplier(m, grid).values)


def test_fractional_multiplier_k3_phases_are_exact_mod_m():
    # Oracle: every phase m^3 j / M reduced mod M in integers before the float.
    params, terms, M = FractionalParams(3, 0.5), 400, 1024
    m = np.arange(1, terms + 1)
    residues = np.array([pow(int(c), 3, M) for c in m], dtype=np.int64)
    phase = np.outer(np.arange(M), residues) % M
    want = np.exp(-2j * np.pi * phase / M) @ m ** -0.5
    got = sample_multiplier(catalog.fractional_multiplier(params, terms), TorusGrid(1, M))
    assert np.max(np.abs(got.values - want)) <= TOL


@pytest.mark.parametrize(
    "name,dim", [(n, 1) for n in ORACLE_PDO] + [(n, 2) for n in DIM2_PDO]
)
def test_catalog_pdo_rows_match_scalar_oracle(name, dim):
    maker = catalog.PDO_BUILTINS[name]
    sym = maker(dim) if dim == 2 else maker()
    grid = TorusGrid(dim, 16 if dim == 1 else 8)
    pts = centered_window(9 if dim == 1 else 3, dim).indices()
    want = scalar_rows(ORACLE_PDO[name], pts.tolist(), grid)
    quiet = dataclasses.replace(sym, eval=never)
    assert np.max(np.abs(_symbol_rows(quiet, pts, grid) - want)) <= TOL
    assert np.max(np.abs(scalar_rows(sym.eval, pts.tolist(), grid) - want)) <= TOL


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_as_pdo_rows_broadcast_one_sample_row(dim):
    rng = np.random.default_rng(11)
    k = random_kernel(rng, dim, 1)
    grid = TorusGrid(dim, 16 if dim == 1 else 8)
    pts = centered_window(4 if dim == 1 else 2, dim).indices()
    oracle = oracle_kernel(k)
    want = scalar_rows(lambda n, xi: oracle(xi), pts.tolist(), grid)
    got = _symbol_rows(multiplier_as_pdo(catalog.kernel_multiplier(k)), pts, grid)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


def oracle_band(rng):
    """verify's random band symbol as it was first written, one scalar call per entry."""
    coeffs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    thetas = rng.uniform(0.0, 1.0, 5)

    def ev(n, xi):
        total = 0j
        for u in range(-2, 3):
            c = coeffs[u + 2, 0] + coeffs[u + 2, 1] * np.exp(
                2j * np.pi * thetas[u + 2] * n[0]
            ) / (1.0 + abs(n[0]))
            total += c * np.exp(2j * np.pi * u * xi[0])
        return total

    return ev


@pytest.mark.parametrize("lo", [-8, 0, 10**6, 10**12])
def test_band_symbol_rows_match_scalar_oracle(lo):
    grid, pts = TorusGrid(1, 64), np.arange(lo, lo + 17, dtype=np.int64)[:, None]
    for seed in range(10):
        sym = _band_symbol(np.random.default_rng(seed))
        want = scalar_rows(oracle_band(np.random.default_rng(seed)), pts.tolist(), grid)
        got = _symbol_rows(dataclasses.replace(sym, eval=never), pts, grid)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(scalar_rows(sym.eval, pts[:2].tolist(), grid) - want[:2])) <= (
            1e-15 * np.max(np.abs(want)))


def test_multiplier_as_pdo_section_keeps_exact_phases():
    # k=3 phases m^3 xi lost 3.1e-9 when the section sampled m through eval
    m = catalog.fractional_multiplier(FractionalParams(3, 0.5), 400)
    grid, window = TorusGrid(1, 1024), centered_window(8)
    k = inverse_dft(sample_multiplier(m, grid), centered_window(16))
    pts = [p[0] for p in window.points()]
    want = np.array([[k[(a - b,)] for b in pts] for a in pts])
    got = pdo_matrix(multiplier_as_pdo(m), window, grid).entries
    assert np.max(np.abs(got - want)) <= TOL


def test_pdo_callers_sample_catalog_symbols_without_scalar_eval():
    grid, window = TorusGrid(1, 32), centered_window(6)
    for name in ORACLE_PDO:
        sym = catalog.PDO_BUILTINS[name]()
        quiet = dataclasses.replace(sym, eval=never)
        scalar = PdoSymbol(1, ORACLE_PDO[name])
        assert np.max(np.abs(pdo_matrix(quiet, window, grid).entries
                              - pdo_matrix(scalar, window, grid).entries)) <= TOL
        f = sequence(1, {(0,): 1.0, (2,): -0.5j})
        got, want = apply_pdo(quiet, f, grid, window), apply_pdo(scalar, f, grid, window)
        assert all(abs(got[p] - want[p]) <= TOL for p in window.points())
        assert conjugation_residual(quiet, grid, window) == pytest.approx(
            conjugation_residual(scalar, grid, window), abs=TOL)
        for rho in (0.0, 0.5):
            fast = cv_check(quiet, rho, 2, 2, window, grid)
            slow = cv_check(scalar, rho, 2, 2, window, grid)
            assert fast.verdict == slow.verdict
            for a, b in zip(fast.rows, slow.rows):
                assert abs(a.constant - b.constant) <= TOL * max(1.0, b.constant)


def oracle_shell(dim, radius):
    if radius == 0:
        return [(0,) * dim]
    pts = itertools.product(range(-radius, radius + 1), repeat=dim)
    return [p for p in pts if max(abs(c) for c in p) == radius]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shell_points_are_the_filtered_cube_boundary(dim):
    for radius in range(5):
        got = _shell_points(dim, radius)
        assert got.dtype == np.int64
        assert sorted(map(tuple, got.tolist())) == oracle_shell(dim, radius)


def test_gohberg_shells_in_dim_2_match_scalar_oracle():
    grid, radii = TorusGrid(2, 4), [0, 1, 2, 5, 9]
    nodes = grid.nodes()

    def oracle(ev):
        return [max(abs(ev(p, x)) for p in oracle_shell(2, r) for x in nodes)
                for r in radii]

    # exact, as criterion 8 requires in dim 1
    report = gohberg_decay(catalog.inverse_distance_pdo(2), grid, radii)
    assert report.values == oracle(ORACLE_PDO["inverse-distance"])
    assert report.values == [1.0 / (1.0 + r) for r in radii]

    def user(n, xi):
        return np.exp(2j * np.pi * (n[0] * xi[1] - 0.3 * xi[0])) * (1 + n[1]) / (
            1.0 + n[0] ** 2 + n[1] ** 2)

    got = gohberg_decay(PdoSymbol(2, user), grid, radii).values
    assert np.max(np.abs(np.array(got) - oracle(user))) <= TOL


def test_gohberg_rejects_negative_radius():
    with pytest.raises(ValueError, match=">= 0"):
        gohberg_decay(catalog.inverse_distance_pdo(), TorusGrid(1, 4), [-1, 0])


def test_pdo_window_beyond_int64_raises_value_error():
    big = Window(1, (2**63 + 1,), (2**63 + 2,))
    sym, grid = catalog.constant_one_pdo(), TorusGrid(1, 8)
    for call in (lambda: pdo_matrix(sym, big, grid),
                 lambda: apply_pdo(sym, sequence(1, {(0,): 1.0}), grid, big)):
        with pytest.raises(ValueError, match="int64"):
            call()
