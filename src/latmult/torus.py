"""Transforms between the lattice Z^n and uniform grids on the torus T^n.

The forward transform is F(xi_j) = sum_n e^{-2 pi i n.xi_j} f(n) on the nodes
xi_j = j/M; the inverse is the left-endpoint quadrature (1/M^n) sum_j
e^{2 pi i n.xi_j} F(xi_j).  As e^{2 pi i n.j/M} depends on n only mod M, each
is one exact FFT over the M^n box: the forward transform folds the support
into the box by integer indices mod M, the inverse reads the box at lattice
points mod M.  No other module moves between the lattice and the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSequence, Window, sequence

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


def alias_free(points, resolution: int) -> bool:
    """True when no two distinct points are congruent mod `resolution` on every axis."""
    points = set(points)
    return len({tuple(c % resolution for c in p) for p in points}) == len(points)


def dft(f: LatticeSequence, grid: TorusGrid) -> TorusSamples:
    """F(xi_j) = sum_n e^{-2 pi i n.xi_j} f(n), by one FFT of f folded mod M.

    Colliding points add, as they do in the sum, so this is exact for any support.
    """
    if f.dim != grid.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {grid.dim}")
    idx, val = f.arrays()
    box = np.zeros((grid.resolution,) * grid.dim, dtype=np.complex128)
    np.add.at(box, tuple(np.mod(idx, grid.resolution).T), val)
    return TorusSamples(grid, np.fft.fftn(box).ravel())


def from_grid(rows: np.ndarray, points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(1/M^dim) sum_j e^{2 pi i n.xi_j} rows[r, j] at each integer point n of row r.

    rows is (R, M^dim) in node order, points (R, P, dim) or broadcastable to
    it; the result is (R, P), exact for any points.
    """
    R, M, dim = len(rows), grid.resolution, grid.dim
    coeffs = np.fft.ifftn(rows.reshape((R,) + (M,) * dim), axes=range(1, dim + 1))
    idx = np.moveaxis(np.mod(points, M), -1, 0)
    return coeffs[(np.arange(R)[:, None], *idx)]


def inverse_dft(F: TorusSamples, window: Window) -> LatticeSequence:
    """Quadrature inverse (1/M^n) sum_j e^{2 pi i n.xi_j} F(xi_j) on a window.

    Recovery is exact when F = dft(f) and no two points of support(f) union
    the window are congruent mod M on every axis (see alias_free); aliasing
    is the caller's contract, not an error.
    """
    if F.grid.dim != window.dim:
        raise ValueError("dimension mismatch")
    pts = window.indices()
    vals = from_grid(F.values[None, :], pts[None], F.grid)[0]
    return sequence(window.dim, zip(map(tuple, pts.tolist()), vals))


def lq_torus_norm(F: TorusSamples, q: float) -> float:
    """Riemann-sum L^q(T^n) norm ((1/M^n) sum |F|^q)^{1/q}."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    mags = np.abs(F.values)
    return float((np.sum(mags**q) / F.grid.node_count) ** (1.0 / q))


def sample_function(grid: TorusGrid, fn) -> TorusSamples:
    """Evaluate a node-wise function xi -> complex on every grid node."""
    nodes = grid.nodes()
    vals = np.array([fn(x) for x in nodes], dtype=np.complex128)
    return TorusSamples(grid, vals)


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
