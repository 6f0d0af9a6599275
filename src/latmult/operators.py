"""Multiplier and pseudo-differential operators on Z^n.

Operators are applied either on the frequency side (quadrature of the
xi-integral against the dft of the input) or on the kernel side (exact
convolution, lattice.convolve).  Finite sections are dense matrices on a
window.  A multiplier is the dft of its finite kernel k = F^{-1} m, so its
l^1 -> l^{p,inf} and l^1 -> l^p operator norms, attained by delta inputs, are
the norms of k, exact.

Every symbol is a PdoSymbol a(n, xi), lattice point first.  One function,
_symbol_rows, samples it on (lattice points) x (grid nodes); its docstring
states what the scalar route asks of `eval`.  sample_multiplier is
dft(kernel), one FFT that is exact on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeSequence, Window, check_budget, from_sorted
from .norms import lp_norm, weak_norm
from .torus import TorusGrid, TorusSamples, dft, from_grid, inverse_dft, to_grid

MATRIX_CAP = 4096
# Largest (lattice points) x (grid nodes) array of pdo symbol samples, 64 MiB.
MAX_SYMBOL_SAMPLES = 2**22


@dataclass(frozen=True)
class MultiplierSymbol:
    """The multiplier dft(kernel): `eval` is its value at one xi in [0,1)^dim.

    Built by catalog.kernel_multiplier; grid samples are dft(kernel).
    """

    eval: Callable[[np.ndarray], complex]
    kernel: LatticeSequence

    @property
    def dim(self) -> int:
        return self.kernel.dim


@dataclass(frozen=True)
class PdoSymbol:
    """Evaluator (n', xi) -> complex for a pseudo-differential operator; see
    _symbol_rows for what the library assumes of `eval`.

    `rows`, when given, is the same symbol sampled on a grid: rows(n, grid)
    with n a (K, dim) int64 array of lattice points returns a complex array
    broadcastable to (K, grid.node_count), columns in the grid's node order.
    """

    dim: int
    eval: Callable[[tuple, np.ndarray], complex]
    rows: Callable[[np.ndarray, TorusGrid], np.ndarray] | None = None


def multiplier_as_pdo(m: MultiplierSymbol) -> PdoSymbol:
    """a(n', xi) = m(xi); rows is the kernel's one dft row for every point."""
    return PdoSymbol(m.dim, lambda n, xi: m.eval(xi),
                     lambda n, grid: sample_multiplier(m, grid).values[None, :])


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
    return dft(m.kernel, grid)


def apply_multiplier(
    m: MultiplierSymbol, f: LatticeSequence, grid: TorusGrid, out: Window
) -> LatticeSequence:
    """t_m f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} m(xi_j) (dft f)(xi_j)."""
    F = dft(f, grid)
    MF = TorusSamples(grid, sample_multiplier(m, grid).values * F.values)
    return inverse_dft(MF, out)


# The scalar route's samples at the last (symbol, grid) it was asked for:
# (symbol, grid, {lattice point: complex128 row at the grid nodes}).
_last_block: tuple = (None, None, {})


def _symbol_rows(a: PdoSymbol, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(K, M^dim) samples a(n, xi) at K int64 lattice points n and the grid nodes xi.

    The only place a symbol is sampled on a grid, and the one place its
    dimension is checked: ValueError unless a.dim == grid.dim ==
    points.shape[1].  Samples come through a.rows when the symbol has it.
    Otherwise each entry is one scalar a.eval call, on these terms:
    - a.eval must be a pure function of (n, xi): samples are reused within a
      call and across calls.
    - One block is kept: the rows of the last symbol (matched by identity) on
      the last grid (matched by equality).  Only the rows it lacks are
      evaluated, in point and node order.
    - The block holds at most MAX_SYMBOL_SAMPLES samples: a different symbol
      or grid, or new rows that would pass the cap, start a new block.
    """
    global _last_block
    if not a.dim == grid.dim == points.shape[1]:
        raise ValueError(f"dimension mismatch: symbol {a.dim}, grid {grid.dim}, "
                         f"points {points.shape[1]}")
    shape = (len(points), grid.node_count)
    check_budget(shape[0] * shape[1], "symbol samples", MAX_SYMBOL_SAMPLES)
    if a.rows is not None:
        rows = np.asarray(a.rows(points, grid), dtype=np.complex128)
        return np.broadcast_to(rows, shape)
    keys = list(map(tuple, points.tolist()))
    wanted = dict.fromkeys(keys)
    sym, last_grid, kept = _last_block
    if sym is not a or last_grid != grid:
        kept = {}
    # a new dict on every call: the shared block is replaced, never changed in place
    if len(kept.keys() | wanted.keys()) * shape[1] <= MAX_SYMBOL_SAMPLES:
        block = dict(kept)
    else:
        block = {n: kept[n] for n in wanted if n in kept}
    nodes = grid.nodes()
    for n in wanted:
        if n not in block:
            block[n] = np.array([a.eval(n, x) for x in nodes], dtype=np.complex128)
    _last_block = (a, grid, block)
    return np.array([block[n] for n in keys], dtype=np.complex128).reshape(shape)


def apply_pdo(
    a: PdoSymbol, f: LatticeSequence, grid: TorusGrid, out: Window
) -> LatticeSequence:
    """t_a f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} a(n, xi_j) (dft f)(xi_j).

    The output is built in the window's lexicographic order by from_sorted,
    with no re-sort.
    """
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
    """Operator-norm value; the norms of a finite kernel are exact, so
    `certified` is True and `discarded_mass` 0."""

    value: float
    certified: bool
    discarded_mass: float


def opnorm_l1_weakp(
    m: MultiplierSymbol, p: float, grid: TorusGrid, window: Window
) -> OpNormEstimate:
    """||t_m||_{B(l^1, l^{p,inf})} = weak norm of the kernel F^{-1} m; grid, window unused."""
    return OpNormEstimate(weak_norm(m.kernel, p), True, 0.0)


def opnorm_l1_lp(
    m: MultiplierSymbol, p: float, grid: TorusGrid, window: Window
) -> OpNormEstimate:
    """||t_m||_{B(l^1, l^p)} = l^p norm of the kernel F^{-1} m; grid, window unused."""
    return OpNormEstimate(lp_norm(m.kernel, p), True, 0.0)


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
    pts = _section_points(window)
    rows = _symbol_rows(a, pts, grid)
    direct = from_grid(rows, pts[:, None] - pts[None], grid)
    fwd = to_grid(np.eye(len(pts)), pts, grid)  # F delta_m on the grid, row m
    analysed = (rows * fwd.conj()) @ fwd.T / grid.node_count  # (n, m)
    conjugated = from_grid(to_grid(analysed.T, pts, grid), pts[None], grid).T
    return float(np.max(np.abs(direct - conjugated)))
