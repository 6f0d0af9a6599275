"""The FFT transforms against the dense phase-matrix sums they replaced.

The oracles below form every phase e^{+-2 pi i n.xi_j} in floats and sum it
against the values as one matrix product: the definitions written out, with
no folding mod M and no FFT.  Agreement is required entrywise within 1e-12.
"""

import numpy as np
import pytest

from latmult.lattice import Window, box, centered_window, sequence
from latmult.operators import PdoSymbol, apply_pdo, pdo_matrix
from latmult.torus import TorusGrid, TorusSamples, dft, inverse_dft

TOL = 1e-12


def dense_dft(f, grid):
    if len(f) == 0:
        return np.zeros(grid.node_count, dtype=np.complex128)
    idx, val = f.arrays()
    return np.exp(-2j * np.pi * (grid.nodes() @ idx.T)) @ val


def dense_inverse_dft(values, grid, window):
    pts = np.array(window.points(), dtype=np.int64)
    phase = np.exp(2j * np.pi * (pts @ grid.nodes().T))
    return dict(zip(window.points(), phase @ values / grid.node_count))


def dense_apply_pdo(a, f, grid, out):
    F = dense_dft(f, grid)
    nodes = grid.nodes()
    entries = {}
    for n in out.points():
        sym = np.array([a.eval(n, x) for x in nodes], dtype=np.complex128)
        phase = np.exp(2j * np.pi * (nodes @ np.array(n, dtype=np.float64)))
        entries[n] = np.sum(phase * sym * F) / grid.node_count
    return entries


def dense_pdo_matrix(a, window, grid):
    pts = np.array(window.points(), dtype=np.float64)
    nodes = grid.nodes()
    phase_out = np.exp(2j * np.pi * (pts @ nodes.T))
    sym = np.array(
        [[a.eval(tuple(int(c) for c in n), x) for x in nodes] for n in pts],
        dtype=np.complex128,
    )
    phase_in = np.exp(-2j * np.pi * (pts @ nodes.T))
    return (phase_out * sym) @ phase_in.T / grid.node_count


def random_sequence(rng, window, count):
    pts = window.points()
    chosen = rng.choice(len(pts), size=min(count, len(pts)), replace=False)
    vals = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    return sequence(window.dim, {pts[i]: complex(v) for i, v in zip(chosen, vals)})


def pdo_symbol(dim, seed):
    """Band-limited in xi, oscillating and decaying in the lattice variable."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    theta = rng.uniform(0.0, 1.0, dim)

    def ev(n, xi):
        n = np.array(n, dtype=np.float64)
        osc = np.exp(2j * np.pi * theta @ n) / (1.0 + np.abs(n).max())
        return sum(
            (c[u + 1, 0] + c[u + 1, 1] * osc) * np.exp(2j * np.pi * u * xi.sum())
            for u in (-1, 0, 1)
        )

    return PdoSymbol(dim, ev)


# (grid, support box of the input, output windows): negative, offset and
# wider-than-M windows in dimensions 1 and 2; supports also exceed M.
CASES = [
    (
        TorusGrid(1, 16),
        box((-40,), (40,)),
        [box((-30,), (-20,)), box((50,), (70,)), centered_window(20)],
    ),
    (
        TorusGrid(2, 4),
        box((-6, -6), (6, 6)),
        [box((-9, -5), (-7, -2)), box((3, 8), (6, 10)), box((-3, -5), (4, 2))],
    ),
]


@pytest.mark.parametrize("grid,support,windows", CASES, ids=["dim1", "dim2"])
def test_dft_and_inverse_match_dense_phases(grid, support, windows):
    rng = np.random.default_rng(grid.dim)
    for count in (0, 1, 7, 30):
        f = random_sequence(rng, support, count)
        F = dft(f, grid)
        assert np.max(np.abs(F.values - dense_dft(f, grid))) <= TOL
        for window in windows:
            got = inverse_dft(F, window)
            want = dense_inverse_dft(F.values, grid, window)
            assert max(abs(got[p] - v) for p, v in want.items()) <= TOL


@pytest.mark.parametrize("grid,support,windows", CASES, ids=["dim1", "dim2"])
def test_apply_pdo_and_pdo_matrix_match_dense_phases(grid, support, windows):
    rng = np.random.default_rng(10 + grid.dim)
    a = pdo_symbol(grid.dim, grid.dim)
    for window in windows:
        A = pdo_matrix(a, window, grid)
        assert np.max(np.abs(A.entries - dense_pdo_matrix(a, window, grid))) <= TOL
        for count in (0, 9):
            f = random_sequence(rng, support, count)
            got = apply_pdo(a, f, grid, window)
            want = dense_apply_pdo(a, f, grid, window)
            assert max(abs(got[p] - v) for p, v in want.items()) <= TOL


def test_empty_sequence_transforms_to_zero():
    for grid in (TorusGrid(1, 8), TorusGrid(2, 3)):
        f = sequence(grid.dim, {})
        assert np.array_equal(dft(f, grid).values, dense_dft(f, grid))
        window = Window(grid.dim, (-5,) * grid.dim, (5,) * grid.dim)
        assert len(inverse_dft(TorusSamples(grid, dense_dft(f, grid)), window)) == 0
