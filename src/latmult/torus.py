"""Discrete Fourier transform to the torus and grid quadrature.

The forward transform evaluates F(xi) = sum_n e^{-2 pi i n.xi} f(n) exactly
over the (finite) support.  Integrals over [0,1)^n are left-endpoint Riemann
sums on a uniform grid of M points per axis; for trigonometric polynomials of
degree < M per axis this quadrature is exact, which is the regime every
identity here relies on.  No FFT: supports are sparse and correctness wins
over speed at these sizes.
"""

from __future__ import annotations

import itertools
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
        axes = [np.arange(self.resolution) for _ in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

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


def dft(f: LatticeSequence, grid: TorusGrid) -> TorusSamples:
    """F(xi_j) = sum_n e^{-2 pi i n.xi_j} f(n), exact finite sum per node."""
    if f.dim != grid.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {grid.dim}")
    if len(f) == 0:
        return TorusSamples(grid, np.zeros(grid.node_count, dtype=np.complex128))
    idx, val = f.arrays()
    phase = np.exp(-2j * np.pi * (grid.nodes() @ idx.T))
    return TorusSamples(grid, phase @ val)


def inverse_dft(F: TorusSamples, window: Window) -> LatticeSequence:
    """Quadrature inverse (1/M^n) sum_j e^{2 pi i n.xi_j} F(xi_j) on a window.

    Recovery is exact when F = dft(f) and no two points of support(f) union
    the window are congruent mod M on every axis; aliasing is the caller's
    contract, not an error.
    """
    if F.grid.dim != window.dim:
        raise ValueError("dimension mismatch")
    pts = np.array(window.points(), dtype=np.int64)
    phase = np.exp(2j * np.pi * (pts @ F.grid.nodes().T))
    vals = phase @ F.values / F.grid.node_count
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
