"""Transforms between the lattice Z^n and uniform grids on the torus T^n.

The forward transform is F(xi_j) = sum_n e^{-2 pi i n.xi_j} f(n) on the nodes
xi_j = j/M; the inverse is the left-endpoint quadrature (1/M^n) sum_j
e^{2 pi i n.xi_j} F(xi_j).  As e^{2 pi i n.j/M} depends on n only mod M, each
is one exact FFT over the M^n box: the forward transform folds the support
into the box by integer indices mod M (to_grid), taken exactly for indices
beyond int64 too, and the inverse reads the box at lattice points mod M
(from_grid), which are window points and so int64.  No other module moves
between the lattice and the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSequence, Window, exact_indices, from_arrays, from_sorted
from .norms import power_mean

MAX_NODES = 2**22


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid xi_j = j/M per axis on [0,1)^dim, lexicographic order."""

    dim: int
    resolution: int

    def __post_init__(self):
        if self.dim < 1 or self.resolution < 1:
            raise ValueError("dim and resolution must be positive")
        if self.resolution**self.dim > MAX_NODES:
            raise ValueError(
                f"grid has {self.resolution ** self.dim} nodes, cap is {MAX_NODES}"
            )

    @property
    def node_count(self) -> int:
        return self.resolution**self.dim

    def node_indices(self) -> np.ndarray:
        """(M^dim, dim) array of integer node indices j, lexicographic."""
        return np.indices((self.resolution,) * self.dim).reshape(self.dim, -1).T

    def nodes(self) -> np.ndarray:
        """(M^dim, dim) array of node coordinates j/M in [0,1)."""
        return self.node_indices() / self.resolution


@dataclass(frozen=True, eq=False)
class TorusSamples:
    """Complex samples on a TorusGrid, in the grid's lexicographic order."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} values, got {len(self.values)}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusSamples)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )


def alias_free(points, resolution: int, window: Window | None = None) -> bool:
    """True when no two distinct points of `points` and `window` are congruent mod M.

    Congruent means congruent on every axis; points may lie beyond int64.
    The window is checked by arithmetic, without listing it: an axis wider
    than M aliases at once; otherwise a point off the window collides with it
    exactly when its residues fall in the window's residue box on every axis.
    """
    M, pts = resolution, exact_indices(points)
    if window is not None:
        if max(window.widths) > M:
            return False
        pts = pts.reshape(-1, window.dim)
        pts = pts[~window.contains(pts)]
        offset = np.mod(np.mod(pts, M).astype(np.int64) - [l % M for l in window.lo], M)
        if np.all(offset < window.widths, axis=1).any():
            return False
    if len(pts) < 2:
        return True
    pts = from_arrays(pts, np.ones(len(pts))).idx  # distinct points, exact
    return len(np.unique(np.mod(pts, M).astype(np.int64), axis=0)) == len(pts)


def _boxes_fft(fft, boxes: np.ndarray) -> np.ndarray:
    """np.fft.fft or ifft along each box axis of (R, M, ..., M), last axis first, as
    fftn runs it; fftn(axes=...) costs more than the transform on small grids."""
    for axis in range(boxes.ndim - 1, 0, -1):
        boxes = fft(boxes, axis=axis)
    return boxes


def to_grid(values: np.ndarray, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """sum_p e^{-2 pi i n_p.xi_j} values[r, p] at every node xi_j, for each row r.

    values is (R, P) and points the (P, dim) lattice points n_p, int64 or
    exact Python ints.  Each row is folded into an M^dim box by its points mod
    M, taken exactly, colliding points adding as they do in the sum, and the R
    boxes are transformed together.  The result is (R, M^dim) in node order,
    exact for any points; the dual of from_grid.
    """
    R, M, dim = len(values), grid.resolution, grid.dim
    box = np.zeros((R,) + (M,) * dim, dtype=np.complex128)
    folded = np.mod(points, M).astype(np.intp, copy=False)
    np.add.at(box, (np.arange(R)[:, None], *[folded[:, d] for d in range(dim)]), values)
    return _boxes_fft(np.fft.fft, box).reshape(R, -1)


def dft(f: LatticeSequence, grid: TorusGrid) -> TorusSamples:
    """F(xi_j) = sum_n e^{-2 pi i n.xi_j} f(n), by to_grid of f's one row."""
    if f.dim != grid.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {grid.dim}")
    return TorusSamples(grid, to_grid(f.val[None], f.idx, grid)[0])


def from_grid(rows: np.ndarray, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(1/M^dim) sum_j e^{2 pi i n.xi_j} rows[r, j] at each integer point n of row r.

    rows is (R, M^dim) in node order, points (R, P, dim) or broadcastable to
    it; the result is (R, P), exact for any points.
    """
    R, M, dim = len(rows), grid.resolution, grid.dim
    coeffs = _boxes_fft(np.fft.ifft, rows.reshape((R,) + (M,) * dim))
    return coeffs[(np.arange(R)[:, None], *[points[..., d] % M for d in range(dim)])]


def inverse_dft(F: TorusSamples, window: Window) -> LatticeSequence:
    """Quadrature inverse (1/M^n) sum_j e^{2 pi i n.xi_j} F(xi_j) on a window.

    Recovery is exact when F = dft(f) and no two points of support(f) union
    the window are congruent mod M on every axis (see alias_free); aliasing
    is the caller's contract, not an error.  The output is built in the
    window's lexicographic order by from_sorted, with no re-sort.
    """
    if F.grid.dim != window.dim:
        raise ValueError("dimension mismatch")
    pts = window.indices()
    return from_sorted(pts, from_grid(F.values[None, :], pts[None], F.grid)[0])


def lq_torus_norm(F: TorusSamples, q: float) -> float:
    """Riemann-sum L^q(T^n) norm ((1/M^n) sum |F|^q)^{1/q}."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return power_mean(np.abs(F.values), q, F.grid.node_count)


def save_csv(F: TorusSamples, path) -> None:
    """CSV with columns j1..jn,re,im under a header row M=<res>,dim=<n>."""
    g = F.grid
    with open(path, "w") as fh:
        fh.write(f"M={g.resolution},dim={g.dim}\n")
        cols = [f"j{i + 1}" for i in range(g.dim)] + ["re", "im"]
        fh.write(",".join(cols) + "\n")
        for j, v in zip(g.node_indices(), F.values):
            fields = [str(int(c)) for c in j] + [repr(float(v.real)), repr(float(v.imag))]
            fh.write(",".join(fields) + "\n")


def load_csv(path) -> TorusSamples:
    """Inverse of save_csv.  Every grid node must appear exactly once.

    Raises ValueError for a malformed header or row, an index outside
    [0, M), a duplicate row, or a missing node.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            meta = dict(kv.split("=") for kv in header.split(","))
            grid = TorusGrid(int(meta["dim"]), int(meta["M"]))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: bad header {header!r}: {exc}") from None
        fh.readline()  # column names
        M, dim = grid.resolution, grid.dim
        values = np.zeros(grid.node_count, dtype=np.complex128)
        seen = np.zeros(grid.node_count, dtype=bool)
        for lineno, line in enumerate(fh, start=3):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != dim + 2:
                raise ValueError(f"{path}: line {lineno}: expected {dim + 2} fields")
            try:
                j = [int(c) for c in parts[:dim]]
                v = complex(float(parts[-2]), float(parts[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if any(not 0 <= c < M for c in j):
                raise ValueError(f"{path}: line {lineno}: index {j} not in [0, {M})")
            flat = np.ravel_multi_index(j, (M,) * dim)
            if seen[flat]:
                raise ValueError(f"{path}: line {lineno}: duplicate node {j}")
            seen[flat] = True
            values[flat] = v
    missing = grid.node_count - int(np.count_nonzero(seen))
    if missing:
        raise ValueError(f"{path}: {missing} of {grid.node_count} grid nodes missing")
    return TorusSamples(grid, values)
