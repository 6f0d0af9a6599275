"""Built-in symbols used by the CLI and the verification suite.

Every multiplier is kernel_multiplier(k), whose grid samples are dft(k): exact
mod M, however far the support reaches.  Every pdo symbol is written once, as
an array formula f(n, xi) over (K, dim) lattice points and (N, dim) torus
points; its rows(n, grid) is f at the grid nodes, its eval f at one (n, xi).
"""

from __future__ import annotations

import numpy as np

from .fractional import FractionalParams, fractional_kernel
from .lattice import LatticeSequence, delta
from .operators import MultiplierSymbol, PdoSymbol


def kernel_multiplier(k: LatticeSequence) -> MultiplierSymbol:
    """Band-limited symbol dft(k), evaluated exactly from the finite kernel."""

    def ev(xi):
        # idx @ xi is formed in floats, so eval refuses indices beyond int64;
        # grid samples are dft(k), which folds any index mod M exactly
        idx, val = k.arrays()
        return complex(np.exp(-2j * np.pi * (idx @ xi)) @ val)

    return MultiplierSymbol(ev, k)


def identity_multiplier(dim: int = 1) -> MultiplierSymbol:
    return kernel_multiplier(delta((0,) * dim))


def modulation_multiplier(shift) -> MultiplierSymbol:
    """Symbol e^{-2 pi i xi.a}; the operator is translation by a."""
    return kernel_multiplier(delta(shift))


def fractional_multiplier(params: FractionalParams, terms: int) -> MultiplierSymbol:
    """Truncated fractional symbol sum_{m<=terms} e^{-2 pi i m^k xi} m^{-lam-i gam}."""
    return kernel_multiplier(fractional_kernel(params, terms))


def _array_pdo(dim: int, formula) -> PdoSymbol:
    """The pdo symbol with array formula `formula`; rows and eval both derive from it."""

    def ev(n, xi):
        one = formula(np.array([n], dtype=np.int64), np.reshape(xi, (1, dim)))
        return complex(np.asarray(one).flat[0])

    return PdoSymbol(dim, ev, lambda n, grid: formula(n, grid.nodes()))


def inverse_distance_pdo(dim: int = 1) -> PdoSymbol:
    """m(n', xi) = (1 + |n'|_inf)^{-1}: the standard Gohberg-decaying example."""
    return _array_pdo(
        dim, lambda n, xi: 1.0 / (1.0 + np.abs(n).max(axis=1, keepdims=True))
    )


def constant_one_pdo(dim: int = 1) -> PdoSymbol:
    return _array_pdo(dim, lambda n, xi: np.ones((len(n), len(xi))))


def oscillating_decay_pdo() -> PdoSymbol:
    """e^{2 pi i 0.3 sin(2 pi xi)} / (1 + |n'|): analytic in xi, decaying in n'."""

    def rows(n, xi):
        return np.exp(2j * np.pi * 0.3 * np.sin(2 * np.pi * xi[:, 0])) / (
            1.0 + np.abs(n)
        )

    return _array_pdo(1, rows)


def smooth_decay_pdo() -> PdoSymbol:
    """(0.5 + 0.5 cos(2 pi xi)) / (1 + n'^2): trig-polynomial in xi."""

    def rows(n, xi):
        return (0.5 + 0.5 * np.cos(2 * np.pi * xi[:, 0])) / (
            1.0 + n.astype(np.float64) ** 2
        )

    return _array_pdo(1, rows)


def coordinate_pdo() -> PdoSymbol:
    """m(n', xi) = n'_1: the canonical unbounded-constant failure case."""
    return _array_pdo(1, lambda n, xi: n.astype(np.float64))


PDO_BUILTINS = {
    "inverse-distance": inverse_distance_pdo,
    "one": constant_one_pdo,
    "oscillating-decay": oscillating_decay_pdo,
    "smooth-decay": smooth_decay_pdo,
    "coordinate": coordinate_pdo,
}
