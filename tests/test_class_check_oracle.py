"""The array class check against the scalar loop it replaced.

`oracle_class_check` is the former `symbols.class_check`: one scalar call
per (lattice point, node) into a dict of rows, then a Python loop over probe
point x alpha x beta with one FFT per triple.  The library now samples the
extended probe window once and forms differences and derivatives on the
whole array; constants must agree within 1e-12 relative, verdicts and
`growing` flags exactly.
"""

import itertools
import math

import numpy as np
import pytest

from latmult import catalog
from latmult.lattice import Window, centered_window
from latmult.operators import PdoSymbol
from latmult.symbols import class_check, cv_check
from latmult.torus import TorusGrid

REL = 1e-12


def oracle_derivative(values, beta, M, dim):
    spec = np.fft.fftn(values.reshape([M] * dim))
    freqs = np.fft.fftfreq(M, d=1.0 / M)
    for axis, order in enumerate(beta):
        if order:
            shape = [1] * dim
            shape[axis] = M
            spec = spec * (2j * np.pi * freqs.reshape(shape)) ** order
    return np.fft.ifftn(spec).ravel()


def oracle_weights(alpha):
    out = []
    for b in itertools.product(*(range(ai + 1) for ai in alpha)):
        coeff = (-1) ** (sum(alpha) - sum(b))
        for ai, bi in zip(alpha, b):
            coeff *= math.comb(ai, bi)
        out.append((b, float(coeff)))
    return out


def oracle_weight(xi, style):
    norm = math.sqrt(sum(c * c for c in xi))
    return math.sqrt(1.0 + norm * norm) if style == "japanese-bracket" else 1.0 + norm


def oracle_orders(dim, total):
    out = [a for a in itertools.product(range(total + 1), repeat=dim) if sum(a) <= total]
    return sorted(out, key=lambda a: (sum(a), a))


def oracle_class_check(ev, dim, order_m, rho, delta, n1, n2, probe, grid, weight,
                       tolerance=1e3, growth_margin=0.10):
    """ev(x, xi) scalar; returns (rows as (alpha, beta, constant, inner, growing), verdict)."""
    M, nodes = grid.resolution, grid.nodes()
    extended = Window(dim, probe.lo, tuple(h + n1 for h in probe.hi))
    cache = {xi: np.array([ev(x, xi) for x in nodes], dtype=np.complex128)
             for xi in extended.points()}
    points = probe.points()
    inner_radius = max(max(abs(c) for c in xi) for xi in points) // 2
    alphas, betas = oracle_orders(dim, n1), oracle_orders(dim, n2)
    full = {(a, b): 0.0 for a in alphas for b in betas}
    inner = dict(full)
    for xi in points:
        is_inner = max(abs(c) for c in xi) <= inner_radius
        for al in alphas:
            diff = np.zeros(len(nodes), dtype=np.complex128)
            for off, w in oracle_weights(al):
                diff = diff + w * cache[tuple(x + o for x, o in zip(xi, off))]
            for be in betas:
                vals = diff if sum(be) == 0 else oracle_derivative(diff, be, M, dim)
                expo = order_m - rho * sum(al) + delta * sum(be)
                value = float(np.max(np.abs(vals))) * oracle_weight(xi, weight) ** (-expo)
                full[(al, be)] = max(full[(al, be)], value)
                if is_inner:
                    inner[(al, be)] = max(inner[(al, be)], value)
    rows = []
    for key in full:
        c_full, c_inner = full[key], inner[key]
        growing = c_full > 1e-9 and c_full > c_inner * (1.0 + growth_margin) + 1e-12
        rows.append((*key, c_full, c_inner, growing))
    bounded = all(not g and c <= tolerance for *_, c, _, g in rows)
    return rows, "bounded" if bounded else "unbounded"


def assert_matches(report, oracle):
    rows, verdict = oracle
    assert report.verdict == verdict
    assert len(report.rows) == len(rows)
    for got, (al, be, c_full, c_inner, growing) in zip(report.rows, rows):
        assert (got.alpha, got.beta, got.growing) == (al, be, growing)
        assert abs(got.constant - c_full) <= REL * c_full
        assert abs(got.inner_constant - c_inner) <= REL * c_inner


def probes(dim):
    """A centred window and an off-centre one whose inner half misses the origin."""
    if dim == 1:
        return centered_window(6), Window(1, (3,), (11,))
    return centered_window(1, 2), Window(2, (-1, 2), (1, 4))


def grid_for(dim):
    return TorusGrid(dim, 16 if dim == 1 else 8)


ORDERS = [(n1, n2) for n1 in range(3) for n2 in range(3)]

# ev(x, xi) with the torus point first, as the oracle calls it
TOROIDAL = {
    1: [
        lambda x, xi: (1.0 + xi[0] ** 2) ** 0.75 * np.exp(2j * np.pi * x[0]),
        lambda x, xi: np.cos(2 * np.pi * x[0]) * xi[0] + 1j / (1.0 + abs(xi[0])),
    ],
    2: [
        lambda x, xi: np.exp(2j * np.pi * (x[0] - 2 * x[1])) / (1.0 + xi[0] ** 2 + xi[1] ** 2),
        lambda x, xi: (xi[0] - 3 * xi[1]) * np.sin(2 * np.pi * x[1]) + np.cos(2 * np.pi * x[0]),
    ],
}


@pytest.mark.parametrize("dim,case", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_class_check_matches_scalar_loop(dim, case):
    ev, grid = TOROIDAL[dim][case], grid_for(dim)
    sym = PdoSymbol(dim, lambda xi, x: ev(x, xi))
    for probe in probes(dim):
        for n1, n2 in ORDERS:
            args = (1.5 * case - 0.5, 0.5, 0.25, n1, n2, probe, grid)
            report = class_check(sym, *args)
            assert_matches(report, oracle_class_check(ev, dim, *args, "japanese-bracket"))


def user_pdo(n, xi):
    return np.exp(2j * np.pi * (0.2 * n[0] * xi[0] - xi[-1])) / (1.0 + abs(n[-1]))


PDO_CASES = (
    [(1, name) for name in catalog.PDO_BUILTINS]
    + [(2, "inverse-distance"), (2, "one"), (1, "user"), (2, "user")]
)


@pytest.mark.parametrize("dim,name", PDO_CASES)
def test_cv_check_matches_scalar_loop_on_rotated_symbol(dim, name):
    if name == "user":
        sym = PdoSymbol(dim, user_pdo)
    else:
        maker = catalog.PDO_BUILTINS[name]
        sym = maker(dim) if dim == 2 else maker()
    grid = grid_for(dim)

    def rotated(x, xi):
        return np.conj(sym.eval(tuple(-c for c in xi), x))

    for probe in probes(dim):
        for n1, n2 in ORDERS:
            report = cv_check(sym, 0.5, n1, n2, probe, grid)
            want = oracle_class_check(rotated, dim, 0.0, 0.5, 0.5, n1, n2, probe,
                                      grid, "one-plus-norm")
            assert_matches(report, want)
