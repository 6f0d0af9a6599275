"""Built-in symbols used by the CLI and the verification suite."""

from __future__ import annotations

import numpy as np

from .fractional import FractionalParams, _terms
from .lattice import LatticeSequence, as_index
from .operators import MultiplierSymbol, PdoSymbol
from .torus import TorusGrid, dft


def identity_multiplier(dim: int = 1) -> MultiplierSymbol:
    return MultiplierSymbol(dim, lambda xi: 1.0 + 0j)


def modulation_multiplier(shift) -> MultiplierSymbol:
    """Symbol e^{-2 pi i xi.a}; the operator is translation by a."""
    a = np.array(as_index(shift), dtype=np.float64)
    return MultiplierSymbol(len(a), lambda xi: np.exp(-2j * np.pi * float(xi @ a)))


def kernel_multiplier(k: LatticeSequence) -> MultiplierSymbol:
    """Band-limited symbol dft(k), evaluated exactly from the finite kernel."""
    idx, val = k.arrays()

    def ev(xi):
        return complex(np.exp(-2j * np.pi * (idx @ xi)) @ val)

    return MultiplierSymbol(k.dim, ev)


def fractional_multiplier(params: FractionalParams, terms: int) -> MultiplierSymbol:
    """Truncated fractional symbol sum_{m<=terms} e^{-2 pi i m^k xi} m^{-lam-i gam}."""
    powers, coeff = _terms(params, terms)
    powers = np.array(powers, dtype=np.float64)

    def ev(xi):
        return complex(np.exp(-2j * np.pi * xi[0] * powers) @ coeff)

    return MultiplierSymbol(1, ev)


def inverse_distance_pdo(dim: int = 1) -> PdoSymbol:
    """m(n', xi) = (1 + |n'|_inf)^{-1}: the standard Gohberg-decaying example."""
    return PdoSymbol(dim, lambda n, xi: 1.0 / (1.0 + max(abs(c) for c in n)))


def constant_one_pdo(dim: int = 1) -> PdoSymbol:
    return PdoSymbol(dim, lambda n, xi: 1.0 + 0j)


def oscillating_decay_pdo() -> PdoSymbol:
    """e^{2 pi i 0.3 sin(2 pi xi)} / (1 + |n'|): analytic in xi, decaying in n'."""

    def ev(n, xi):
        return np.exp(2j * np.pi * 0.3 * np.sin(2 * np.pi * xi[0])) / (
            1.0 + abs(n[0])
        )

    return PdoSymbol(1, ev)


def smooth_decay_pdo() -> PdoSymbol:
    """(0.5 + 0.5 cos(2 pi xi)) / (1 + n'^2): trig-polynomial in xi."""

    def ev(n, xi):
        return (0.5 + 0.5 * np.cos(2 * np.pi * xi[0])) / (1.0 + n[0] ** 2)

    return PdoSymbol(1, ev)


def coordinate_pdo() -> PdoSymbol:
    """m(n', xi) = n'_1: the canonical unbounded-constant failure case."""
    return PdoSymbol(1, lambda n, xi: complex(n[0]))


PDO_BUILTINS = {
    "inverse-distance": inverse_distance_pdo,
    "one": constant_one_pdo,
    "oscillating-decay": oscillating_decay_pdo,
    "smooth-decay": smooth_decay_pdo,
    "coordinate": coordinate_pdo,
}
