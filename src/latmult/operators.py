"""Multiplier and pseudo-differential operators on Z^n.

Operators are applied either on the frequency side (quadrature of the
xi-integral against the dft of the input) or on the kernel side (exact
convolution, lattice.convolve).  Finite sections are dense matrices on a
window.  The l^1 -> l^{p,inf} and l^1 -> l^p operator norms are the norms of
k = F^{-1} m, attained by delta inputs: exact when m carries k, else read off a
grid with a truncation certificate.

Symbols are sampled at the nodes of a grid, by one function: _symbol_rows
samples a pdo symbol (or a toroidal one, through a pdo adapter) on (lattice
points) x (grid nodes) through its `rows(n, grid)` when it has one, and
through the scalar `eval` otherwise.  sample_multiplier takes a multiplier
with a finite `kernel` as dft(kernel), one FFT that is exact on the grid, and
any other multiplier as the one row of multiplier_as_pdo(m) at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeSequence, Window, check_budget, from_sorted
from .norms import lp_norm, weak_norm
from .torus import TorusGrid, TorusSamples, dft, from_grid, inverse_dft, lq_torus_norm, to_grid

MATRIX_CAP = 4096
# Largest (lattice points) x (grid nodes) array of pdo symbol samples, 64 MiB.
MAX_SYMBOL_SAMPLES = 2**22


@dataclass(frozen=True)
class MultiplierSymbol:
    """Bounded evaluator xi in [0,1)^dim -> complex.

    `kernel`, when given, is the finite sequence whose dft the symbol is;
    grid samples are then dft(kernel) instead of one eval call per node.
    """

    dim: int
    eval: Callable[[np.ndarray], complex]
    kernel: LatticeSequence | None = None


@dataclass(frozen=True)
class PdoSymbol:
    """Evaluator (n', xi) -> complex for a pseudo-differential operator.

    `rows`, when given, is the same symbol sampled on a grid: rows(n, grid)
    with n a (K, dim) int64 array of lattice points returns a complex array
    broadcastable to (K, grid.node_count), columns in the grid's node order.
    """

    dim: int
    eval: Callable[[tuple, np.ndarray], complex]
    rows: Callable[[np.ndarray, TorusGrid], np.ndarray] | None = None


def multiplier_as_pdo(m: MultiplierSymbol) -> PdoSymbol:
    """a(n', xi) = m(xi); given a kernel, rows is its one dft row for every point."""

    def rows(n, grid):
        return sample_multiplier(m, grid).values[None, :]

    return PdoSymbol(m.dim, lambda n, xi: m.eval(xi), None if m.kernel is None else rows)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Finite section of an operator: dense (out point, in point) matrix."""

    window: Window
    entries: np.ndarray

    def __post_init__(self):
        side = self.window.cardinality
        if self.entries.shape != (side, side):
            raise ValueError(
                f"matrix shape {self.entries.shape} != window side {side}"
            )


def sample_multiplier(m: MultiplierSymbol, grid: TorusGrid) -> TorusSamples:
    if m.dim != grid.dim:
        raise ValueError("dimension mismatch")
    if m.kernel is not None:
        return dft(m.kernel, grid)
    origin = np.zeros((1, m.dim), dtype=np.int64)
    return TorusSamples(grid, _symbol_rows(multiplier_as_pdo(m), origin, grid)[0])


def apply_multiplier(
    m: MultiplierSymbol, f: LatticeSequence, grid: TorusGrid, out: Window
) -> LatticeSequence:
    """t_m f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} m(xi_j) (dft f)(xi_j)."""
    if m.dim != f.dim:
        raise ValueError("dimension mismatch")
    F = dft(f, grid)
    MF = TorusSamples(grid, sample_multiplier(m, grid).values * F.values)
    return inverse_dft(MF, out)


def _symbol_rows(a: PdoSymbol, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(K, M^dim) samples a(n, xi) at K int64 lattice points n and the grid nodes xi.

    The only place a symbol is sampled on a grid: through a.rows when the
    symbol has it, one scalar a.eval call per entry otherwise.
    """
    shape = (len(points), grid.node_count)
    check_budget(shape[0] * shape[1], "symbol samples", MAX_SYMBOL_SAMPLES)
    if a.rows is not None:
        rows = np.asarray(a.rows(points, grid), dtype=np.complex128)
        return np.broadcast_to(rows, shape)
    nodes = grid.nodes()
    return np.array(
        [[a.eval(n, x) for x in nodes] for n in map(tuple, points.tolist())],
        dtype=np.complex128,
    ).reshape(shape)


def apply_pdo(
    a: PdoSymbol, f: LatticeSequence, grid: TorusGrid, out: Window
) -> LatticeSequence:
    """t_a f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} a(n, xi_j) (dft f)(xi_j).

    The output is built in the window's lexicographic order by from_sorted,
    with no re-sort.
    """
    if a.dim != f.dim:
        raise ValueError("dimension mismatch")
    check_budget(out.cardinality * grid.node_count, "symbol samples", MAX_SYMBOL_SAMPLES)
    F = dft(f, grid)
    pts = out.indices()
    rows = _symbol_rows(a, pts, grid) * F.values
    return from_sorted(pts, from_grid(rows, pts[:, None, :], grid)[:, 0])


def _section_points(window: Window) -> np.ndarray:
    if window.cardinality > MATRIX_CAP:
        raise ValueError(f"window cardinality {window.cardinality} exceeds cap {MATRIX_CAP}")
    return window.indices()


def pdo_matrix(a: PdoSymbol, window: Window, grid: TorusGrid) -> OperatorMatrix:
    """Dense finite section: entry (n, n'') = quadrature of e^{2pi i(n-n'').xi} a(n, xi)."""
    idx = _section_points(window)
    rows = _symbol_rows(a, idx, grid)
    return OperatorMatrix(window, from_grid(rows, idx[:, None] - idx[None], grid))


@dataclass(frozen=True)
class OpNormEstimate:
    """Operator-norm value with a truncation certificate.

    Exact, certified and with nothing discarded when the multiplier carries its
    kernel.  Otherwise certified=False means l^1 mass escaped the dilated kernel
    window, seen in its shell or as l^2 mass on the grid (Parseval) beyond it,
    so the value is only a lower bound on the true norm over all of Z^n.
    """

    value: float
    certified: bool
    discarded_mass: float


def _kernel_with_certificate(
    m: MultiplierSymbol, grid: TorusGrid, window: Window
) -> tuple[LatticeSequence, bool, float]:
    if m.kernel is not None:
        return m.kernel, True, 0.0
    # Kernel computed on a 3x-radius window; the margin shell must carry less
    # than 1e-9 of the total l^1 mass, and the window the grid's Parseval mass
    # to 1e-9 (the shell misses a kernel that jumps past it), to be certified.
    wide = window.dilate(3)
    samples = sample_multiplier(m, grid)
    k = inverse_dft(samples, wide)
    total = lp_norm(k, 1)
    shell = sum(k.magnitudes()[~window.contains(k.idx)].tolist())
    parseval = lq_torus_norm(samples, 2.0) ** 2
    certified = abs(parseval - lp_norm(k, 2) ** 2) <= 1e-9 * parseval and (
        total == 0 or shell < 1e-9 * total)
    return k, certified, shell


def opnorm_l1_weakp(
    m: MultiplierSymbol, p: float, grid: TorusGrid, window: Window
) -> OpNormEstimate:
    """||t_m||_{B(l^1, l^{p,inf})} = weak norm of the kernel F^{-1} m."""
    k, certified, shell = _kernel_with_certificate(m, grid, window)
    return OpNormEstimate(weak_norm(k, p), certified, shell)


def opnorm_l1_lp(
    m: MultiplierSymbol, p: float, grid: TorusGrid, window: Window
) -> OpNormEstimate:
    """||t_m||_{B(l^1, l^p)} = l^p norm of the kernel F^{-1} m."""
    k, certified, shell = _kernel_with_certificate(m, grid, window)
    return OpNormEstimate(lp_norm(k, p), certified, shell)


def opnorm_l2(A: OperatorMatrix) -> float:
    """Largest singular value of the finite section (LAPACK matrix 2-norm)."""
    return float(np.linalg.norm(A.entries, 2))


def conjugation_residual(
    a: PdoSymbol, grid: TorusGrid, window: Window
) -> float:
    """Max entrywise deviation between the finite section of t_a and F^{-1} A* F.

    F takes delta_n to e^{-2 pi i n.x}, of frequency -n, so the periodic
    operator A has the frequency set -W and the symbol
    a_per(x, k) = conj(a(-k, x)); A* on the grid is the analysis
    (1/M^n) sum_j a(n, xi_j) e^{2 pi i n.xi_j} g(xi_j) at n in W followed by
    to_grid.  Every phase is exact mod M, so a small residual certifies the
    conjugation identity on any window, however far from the origin.
    """
    if a.dim != grid.dim or a.dim != window.dim:
        raise ValueError("dimension mismatch")
    pts = _section_points(window)
    rows = _symbol_rows(a, pts, grid)
    direct = from_grid(rows, pts[:, None] - pts[None], grid)
    fwd = to_grid(np.eye(len(pts)), pts, grid)  # F delta_m on the grid, row m
    analysed = (rows * fwd.conj()) @ fwd.T / grid.node_count  # (n, m)
    conjugated = from_grid(to_grid(analysed.T, pts, grid), pts[None], grid).T
    return float(np.max(np.abs(direct - conjugated)))
