"""Multiplier and pseudo-differential operators on Z^n.

Operators are applied either on the frequency side (quadrature of the
xi-integral against the dft of the input) or on the kernel side (exact
convolution).  Finite sections are dense matrices on a window; the l^1 ->
l^{p,inf} and l^1 -> l^p operator norms come for free from the kernel, since
both equal the corresponding norm of k = F^{-1} m and are attained by delta
inputs.

Symbols are sampled in one place each, always at the nodes of a grid.
sample_multiplier takes a multiplier with a finite `kernel` as dft(kernel),
one FFT that is exact on the grid, and any other multiplier node by node
through its scalar `eval`.  _symbol_rows samples a pdo symbol (or a toroidal
one, through a pdo adapter) on (lattice points) x (grid nodes) through its
`rows(n, grid)` when it has one, and through the scalar `eval` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import LatticeSequence, Window, convolve, sequence
from .norms import lp_norm, weak_norm
from .torus import TorusGrid, TorusSamples, dft, from_grid, inverse_dft, sample_function

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
    """a(n', xi) = m(xi); its rows are the one sample_multiplier row for all points."""
    return PdoSymbol(
        m.dim,
        lambda n, xi: m.eval(xi),
        lambda n, grid: sample_multiplier(m, grid).values[None, :],
    )


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
    return sample_function(grid, m.eval)


def apply_multiplier(
    m: MultiplierSymbol, f: LatticeSequence, grid: TorusGrid, out: Window
) -> LatticeSequence:
    """t_m f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} m(xi_j) (dft f)(xi_j)."""
    if m.dim != f.dim:
        raise ValueError("dimension mismatch")
    F = dft(f, grid)
    MF = TorusSamples(grid, sample_multiplier(m, grid).values * F.values)
    return inverse_dft(MF, out)


def apply_by_kernel(k: LatticeSequence, f: LatticeSequence) -> LatticeSequence:
    """Kernel-side application t f(n) = sum_m k(n-m) f(m)."""
    return convolve(k, f)


def _check_samples(size: int) -> None:
    if size > MAX_SYMBOL_SAMPLES:
        raise ValueError(f"{size} symbol samples exceed the cap {MAX_SYMBOL_SAMPLES}")


def _symbol_rows(a: PdoSymbol, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(K, M^dim) samples a(n, xi) at K int64 lattice points n and the grid nodes xi.

    The only place a pdo symbol is sampled: through a.rows when the symbol
    has it, one scalar a.eval call per entry otherwise.
    """
    shape = (len(points), grid.node_count)
    _check_samples(shape[0] * shape[1])
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
    """t_a f(n) = (1/M^n) sum_j e^{2 pi i n.xi_j} a(n, xi_j) (dft f)(xi_j)."""
    if a.dim != f.dim:
        raise ValueError("dimension mismatch")
    _check_samples(out.cardinality * grid.node_count)
    F = dft(f, grid)
    pts = out.indices()
    rows = _symbol_rows(a, pts, grid) * F.values
    vals = from_grid(rows, pts[:, None, :], grid)[:, 0]
    return sequence(out.dim, zip(map(tuple, pts.tolist()), vals))


def _section_points(window: Window, cap: int) -> np.ndarray:
    if window.cardinality > cap:
        raise ValueError(f"window cardinality {window.cardinality} exceeds cap {cap}")
    return window.indices()


def pdo_matrix(
    a: PdoSymbol, window: Window, grid: TorusGrid, cap: int = MATRIX_CAP
) -> OperatorMatrix:
    """Dense finite section: entry (n, n'') = quadrature of e^{2pi i(n-n'').xi} a(n, xi)."""
    idx = _section_points(window, cap)
    rows = _symbol_rows(a, idx, grid)
    return OperatorMatrix(window, from_grid(rows, idx[:, None] - idx[None], grid))


def apply_matrix(A: OperatorMatrix, f: LatticeSequence) -> LatticeSequence:
    pts = A.window.points()
    vec = np.array([f[p] for p in pts], dtype=np.complex128)
    out = A.entries @ vec
    return sequence(A.window.dim, zip(pts, out))


@dataclass(frozen=True)
class OpNormEstimate:
    """Operator-norm value with a truncation certificate.

    certified=False means l^1 mass escaped the dilated kernel window, so the
    value is only a lower bound on the true norm over all of Z^n.
    """

    value: float
    certified: bool
    discarded_mass: float


def _kernel_with_certificate(
    m: MultiplierSymbol, grid: TorusGrid, window: Window
) -> tuple[LatticeSequence, bool, float]:
    # Kernel computed on a 3x-radius window; the margin shell must carry
    # less than 1e-9 of the total l^1 mass for the truncation to be certified.
    wide = window.dilate(3)
    k = inverse_dft(sample_multiplier(m, grid), wide)
    total = lp_norm(k, 1)
    shell = sum(abs(v) for i, v in k.entries.items() if i not in window)
    certified = total == 0 or shell < 1e-9 * total
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
    """Max entrywise deviation between the finite section of t_m and F^{-1} A* F.

    The periodic operator A acts on grid samples with frequency set equal to
    the window, using the symbol a_per(x, k) = conj(a(-k, x)); small residual
    certifies the conjugation identity numerically.
    """
    if a.dim != grid.dim or a.dim != window.dim:
        raise ValueError("dimension mismatch")
    pts = _section_points(window, MATRIX_CAP)
    K, n_nodes = len(pts), grid.node_count
    union, where = np.unique(np.concatenate([pts, -pts]), axis=0, return_inverse=True)
    where = where.reshape(-1)
    # One cap for the union x nodes samples and the nodes x nodes A_grid below.
    _check_samples(max(len(union), n_nodes) * n_nodes)
    nodes = grid.nodes()
    rows = _symbol_rows(a, union, grid)
    direct = from_grid(rows[where[:K]], pts[:, None] - pts[None], grid)

    freqs = pts.astype(np.float64)
    # a_per[j, k] = conj(a(-k, x_j))
    a_per = rows[where[K:]].T.conj()
    synth = np.exp(2j * np.pi * (nodes @ freqs.T))        # x-synthesis phases
    analy = np.exp(-2j * np.pi * (freqs @ nodes.T)) / n_nodes  # torus Fourier coeffs
    A_grid = (synth * a_per) @ analy
    fwd = np.exp(-2j * np.pi * (nodes @ freqs.T))          # lattice dft, window -> grid
    inv = np.exp(2j * np.pi * (freqs @ nodes.T)) / n_nodes  # quadrature inverse
    conjugated = inv @ A_grid.conj().T @ fwd
    return float(np.max(np.abs(direct - conjugated)))


def save_matrix_csv(A: OperatorMatrix, path) -> None:
    """CSV export (row,col,re,im) with a window header line."""
    w = A.window
    with open(path, "w") as fh:
        fh.write(
            f"dim={w.dim},lo={':'.join(map(str, w.lo))},hi={':'.join(map(str, w.hi))}\n"
        )
        fh.write("row,col,re,im\n")
        side = w.cardinality
        for i in range(side):
            for j in range(side):
                v = A.entries[i, j]
                fh.write(f"{i},{j},{v.real!r},{v.imag!r}\n")
