"""Finitely supported complex sequences on the integer lattice Z^n.

Sequences are stored as exact maps from lattice points (tuples of ints) to
complex doubles.  Zero entries are pruned at construction; iteration over a
support is always sorted lexicographically so every reduction downstream is
deterministic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

MultiIndex = tuple


def as_index(point) -> MultiIndex:
    """Coerce an int or an iterable of ints to a lattice multi-index."""
    if isinstance(point, (int, np.integer)):
        return (int(point),)
    return tuple(int(c) for c in point)


def add_index(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def index_array(points, dim: int) -> np.ndarray:
    """(len(points), dim) int64 array of lattice points.

    Raises ValueError when a coordinate does not fit in int64.
    """
    try:
        return np.array(points, dtype=np.int64).reshape(len(points), dim)
    except OverflowError:
        raise ValueError("lattice index does not fit in int64") from None


@dataclass(frozen=True, eq=False)
class LatticeSequence:
    """Finitely supported complex function on Z^dim."""

    dim: int
    entries: Mapping[MultiIndex, complex]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for idx in self.entries:
            if len(idx) != self.dim:
                raise ValueError(f"index {idx} does not have dim {self.dim}")

    def support(self) -> list[MultiIndex]:
        return sorted(self.entries)

    def __getitem__(self, point) -> complex:
        return self.entries.get(as_index(point), 0j)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple[MultiIndex, complex]]:
        for idx in self.support():
            yield idx, self.entries[idx]

    def magnitudes(self) -> np.ndarray:
        """|f| over the support, in lexicographic support order."""
        return np.array([abs(self.entries[i]) for i in self.support()])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) in lexicographic support order.

        Raises ValueError when an index does not fit in int64.
        """
        sup = self.support()
        val = np.array([self.entries[i] for i in sup], dtype=np.complex128)
        return index_array(sup, self.dim), val

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeSequence)
            and self.dim == other.dim
            and dict(self.entries) == dict(other.entries)
        )


def sequence(dim: int, entries: Mapping | Iterable) -> LatticeSequence:
    """Build a sequence, normalizing indices and pruning exact zeros."""
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    pruned: dict[MultiIndex, complex] = {}
    for point, value in pairs:
        idx = as_index(point)
        v = complex(value)
        if v != 0:
            pruned[idx] = pruned.get(idx, 0j) + v
            if pruned[idx] == 0:
                del pruned[idx]
    return LatticeSequence(dim, pruned)


def delta(point, dim: int | None = None) -> LatticeSequence:
    """Characteristic function of a single lattice point."""
    idx = as_index(point)
    return LatticeSequence(dim if dim is not None else len(idx), {idx: 1.0 + 0j})


def translate(f: LatticeSequence, shift) -> LatticeSequence:
    """(tau_shift f)(x) = f(x - shift); support moves by +shift."""
    s = as_index(shift)
    if len(s) != f.dim:
        raise ValueError(f"shift dim {len(s)} != sequence dim {f.dim}")
    return LatticeSequence(f.dim, {add_index(i, s): v for i, v in f.entries.items()})


def scale(f: LatticeSequence, c: complex) -> LatticeSequence:
    return sequence(f.dim, {i: c * v for i, v in f.entries.items()})


def add(f: LatticeSequence, g: LatticeSequence) -> LatticeSequence:
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    out = dict(f.entries)
    for i, v in g.entries.items():
        out[i] = out.get(i, 0j) + v
    return sequence(f.dim, out)


def convolve(f: LatticeSequence, g: LatticeSequence) -> LatticeSequence:
    """Exact convolution (f*g)(x) = sum_y f(x-y) g(y) by direct double loop."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    out: dict[MultiIndex, complex] = {}
    for i, fv in f.entries.items():
        for j, gv in g.entries.items():
            k = add_index(i, j)
            out[k] = out.get(k, 0j) + fv * gv
    return sequence(f.dim, out)


@dataclass(frozen=True)
class Window:
    """Inclusive box prod_i [lo_i, hi_i] in Z^dim, iterated lexicographically."""

    dim: int
    lo: MultiIndex
    hi: MultiIndex

    def __post_init__(self):
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise ValueError("window bounds must match dim")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty window: lo={self.lo} hi={self.hi}")

    @property
    def cardinality(self) -> int:
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l + 1
        return n

    def points(self) -> list[MultiIndex]:
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return list(itertools.product(*ranges))

    def indices(self) -> np.ndarray:
        """points() as a (cardinality, dim) int64 array; ValueError beyond int64."""
        return index_array(self.points(), self.dim)

    def __contains__(self, point) -> bool:
        idx = as_index(point)
        return len(idx) == self.dim and all(
            l <= c <= h for l, c, h in zip(self.lo, idx, self.hi)
        )

    def dilate(self, factor: int) -> "Window":
        """Widen each axis about its center so the radius grows by `factor`."""
        lo, hi = [], []
        for l, h in zip(self.lo, self.hi):
            r = max((h - l + 1) // 2, 1)
            lo.append(l - (factor - 1) * r)
            hi.append(h + (factor - 1) * r)
        return Window(self.dim, tuple(lo), tuple(hi))


def box(lo, hi) -> Window:
    l, h = as_index(lo), as_index(hi)
    return Window(len(l), l, h)


def centered_window(radius: int, dim: int = 1) -> Window:
    return Window(dim, (-radius,) * dim, (radius,) * dim)


def restrict(f: LatticeSequence, window: Window) -> LatticeSequence:
    return LatticeSequence(
        f.dim, {i: v for i, v in f.entries.items() if i in window}
    )


def save_jsonl(f: LatticeSequence, path) -> None:
    """JSON Lines: header {"dim": n}, then one object per support point."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"dim": f.dim}) + "\n")
        for idx, v in f.items():
            fh.write(
                json.dumps({"index": list(idx), "re": v.real, "im": v.imag}) + "\n"
            )


def load_jsonl(path) -> LatticeSequence:
    with open(path) as fh:
        header = json.loads(fh.readline())
        dim = int(header["dim"])
        entries = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            entries[tuple(row["index"])] = complex(row["re"], row["im"])
    return sequence(dim, entries)
