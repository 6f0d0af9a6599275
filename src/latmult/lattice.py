"""Finitely supported complex sequences on the integer lattice Z^n.

A sequence is two arrays: its support as an (n, dim) index array, sorted
lexicographically with no point repeated, and the n complex128 values there,
none of them exactly zero.  Indices are int64; when one does not fit, the
whole index array holds exact Python ints instead.  The grid transforms fold
such indices mod M exactly; `arrays()` raises ValueError for them, so
apply_fractional and a kernel multiplier's scalar eval refuse them.  Building
a sequence sums repeated points in input order and prunes exact zeros.  Every
allocation whose size typed input controls is checked against MAX_ELEMENTS
first and raises ValueError above it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

MultiIndex = tuple

# Largest array (convolution pairs or box, fractional shifts or kernel terms,
# window points) built from typed input: 2^26 complex128 values are 1 GiB.
MAX_ELEMENTS = 2**26


def check_budget(size: int, what: str, limit: int = MAX_ELEMENTS) -> None:
    if size > limit:
        raise ValueError(f"{size} {what} exceed the size budget {limit}")


def as_index(point) -> MultiIndex:
    """Coerce an int or an iterable of ints to a lattice multi-index."""
    if isinstance(point, (int, np.integer)):
        return (int(point),)
    return tuple(int(c) for c in point)


def _fits(lo, hi) -> bool:
    return -(2**63) <= min(lo) and max(hi) < 2**63


def exact_indices(points) -> np.ndarray:
    """Integer array of `points`: int64 when every entry fits, else Python ints."""
    try:
        return np.asarray(points, dtype=np.int64)
    except OverflowError:
        return np.asarray(points, dtype=object)


def _span(idx: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-axis minimum and maximum of a nonempty (n, dim) index array."""
    return idx.min(0).tolist(), idx.max(0).tolist()


def _sum_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for broadcastable (..., dim) index arrays, exact: int64 never wraps."""
    if a.dtype == b.dtype == np.int64:
        if not (a.size and b.size):
            return a + b
        a_lo, a_hi = _span(a.reshape(-1, a.shape[-1]))
        b_lo, b_hi = _span(b.reshape(-1, b.shape[-1]))
        if _fits([x + y for x, y in zip(a_lo, b_lo)], [x + y for x, y in zip(a_hi, b_hi)]):
            return a + b
    return exact_indices(a.astype(object) + b.astype(object))


@dataclass(frozen=True, eq=False)
class LatticeSequence:
    """Finitely supported complex function on Z^dim, in the canonical form above.

    Build one with `sequence`, `from_arrays` or the operations below; the
    constructor takes the two arrays as they are.
    """

    idx: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        if self.idx.ndim != 2 or self.idx.shape[1] < 1:
            raise ValueError(f"dim must be >= 1, got index shape {self.idx.shape}")
        if self.val.shape != (len(self.idx),):
            raise ValueError("one value per support point")
        self.idx.setflags(write=False)
        self.val.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.idx.shape[1]

    @property
    def entries(self) -> Mapping[MultiIndex, complex]:
        """Read-only {point: value} dict, in support order, built on each call:
        look one point up with `f[point]`."""
        return MappingProxyType(dict(self.items()))

    def support(self) -> list[MultiIndex]:
        return list(map(tuple, self.idx.tolist()))

    def _row(self, point) -> int | None:
        """Row of point in the support, by binary search one axis at a time."""
        key = as_index(point)
        if len(key) != self.dim:
            raise ValueError(f"point {key} does not have dim {self.dim}")
        lo, hi = 0, len(self.val)
        for d, c in enumerate(key):
            col = self.idx[lo:hi, d]
            lo, hi = lo + np.searchsorted(col, c), lo + np.searchsorted(col, c, "right")
        return lo if lo < hi else None

    def __getitem__(self, point) -> complex:
        """f(point); 0 off the support, ValueError for a point of another dim."""
        row = self._row(point)
        return 0j if row is None else complex(self.val[row])

    def __len__(self) -> int:
        return len(self.val)

    def items(self) -> Iterator[tuple[MultiIndex, complex]]:
        return zip(self.support(), self.val.tolist())

    def magnitudes(self) -> np.ndarray:
        """|f| over the support, in support order, rounded as abs(complex) is.

        Read-only, computed once per sequence and returned by every call.
        """
        return self._magnitudes

    @cached_property
    def _magnitudes(self) -> np.ndarray:
        mags = np.hypot(self.val.real, self.val.imag)  # np.abs may differ by an ulp
        mags.setflags(write=False)
        return mags

    @cached_property
    def rearranged(self) -> np.ndarray:
        """|f|*: magnitudes() sorted nonincreasing, read-only, computed once.

        The reversed view of an ascending sorted copy, not a contiguous
        array: numpy rounds some array powers of the two layouts differently,
        and the norms are pinned to this one.  The arrays are read-only, so
        neither cache can go stale.
        """
        mags = np.sort(self.magnitudes())
        mags.setflags(write=False)
        return mags[::-1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) in support order, read-only; ValueError beyond int64."""
        if self.idx.dtype == object:
            raise ValueError("lattice index does not fit in int64")
        return self.idx, self.val

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeSequence)
            and self.dim == other.dim
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.val, other.val)
        )


def from_arrays(idx: np.ndarray, val) -> LatticeSequence:
    """The sequence with values val at the rows of idx.

    Rows are sorted lexicographically, repeated rows summed in input order
    from 0, as a running sum would, and exact zeros pruned.  Rows known to be
    sorted and distinct, such as a window's, take `from_sorted` instead.
    """
    val = np.asarray(val, dtype=np.complex128)
    # any sort groups repeated rows; bincount then sums each group in input order
    if idx.shape[1] == 1:
        order = np.argsort(idx[:, 0])
        idx = idx[order]
        new = idx[1:, 0] != idx[:-1, 0]
    else:
        order = np.lexsort(idx.T[::-1])
        idx = idx[order]
        new = np.any(idx[1:] != idx[:-1], axis=1)
    if new.all():
        return from_sorted(idx, val[order])
    first = np.ones(len(order), dtype=bool)
    first[1:] = new
    group, idx = np.empty(len(order), dtype=np.intp), idx.compress(first, axis=0)
    group[order] = np.cumsum(first) - 1
    sums = np.empty(len(idx), dtype=np.complex128)
    sums.real = np.bincount(group, val.real, len(idx))
    sums.imag = np.bincount(group, val.imag, len(idx))
    return from_sorted(idx, sums)


def from_sorted(idx: np.ndarray, val) -> LatticeSequence:
    """from_arrays(idx, val) for rows already sorted lexicographically and
    distinct, as Window.indices() emits them: kept in their order, no re-sort."""
    val = np.asarray(val, dtype=np.complex128) + 0j  # as in a sum from 0, -0.0 becomes 0.0
    keep = val != 0
    if not keep.all():
        idx, val = idx.compress(keep, axis=0), val[keep]
    return LatticeSequence(exact_indices(idx), val)


def sequence(dim: int, entries: Mapping | Iterable) -> LatticeSequence:
    """Build a sequence from {point: value} or (point, value) pairs."""
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    points, values = [], []
    for point, value in pairs:
        points.append(as_index(point))
        values.append(complex(value))
        if len(points[-1]) != dim:
            raise ValueError(f"index {points[-1]} does not have dim {dim}")
    return from_arrays(exact_indices(points).reshape(len(points), dim), values)


def delta(point) -> LatticeSequence:
    """Characteristic function of a single lattice point."""
    return LatticeSequence(exact_indices([as_index(point)]), np.ones(1, dtype=np.complex128))


def translate(f: LatticeSequence, shift) -> LatticeSequence:
    """(tau_shift f)(x) = f(x - shift); support moves by +shift."""
    s = as_index(shift)
    if len(s) != f.dim:
        raise ValueError(f"shift dim {len(s)} != sequence dim {f.dim}")
    return LatticeSequence(_sum_indices(f.idx, exact_indices([s])), f.val)


def add(f: LatticeSequence, g: LatticeSequence) -> LatticeSequence:
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    return from_arrays(np.concatenate([f.idx, g.idx]), np.concatenate([f.val, g.val]))


def convolve(f: LatticeSequence, g: LatticeSequence) -> LatticeSequence:
    """Exact convolution (f*g)(x) = sum_y f(x-y) g(y), a direct sum either way.

    Over bounding boxes, one shifted copy of the box of the operand with more
    points per point of the other, when the output box and those copies take
    at most four entries per pair of support points; otherwise over the
    pairs, summed by `from_arrays`.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    pairs = len(f) * len(g)
    if pairs and f.idx.dtype == g.idx.dtype == np.int64 and all(
        np.isfinite(h.val).all() for h in (f, g)
    ):
        if len(f) > len(g):  # loop over the operand with fewer points
            f, g = g, f
        (f_lo, f_hi), (g_lo, g_hi) = _span(f.idx), _span(g.idx)
        g_size = math.prod(h - l + 1 for l, h in zip(g_lo, g_hi))
        lo = [a + b for a, b in zip(f_lo, g_lo)]
        hi = [a + b for a, b in zip(f_hi, g_hi)]
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        if math.prod(shape) + len(f) * g_size <= 4 * pairs and _fits(lo, hi):
            check_budget(math.prod(shape), "convolution box entries")
            g_box = np.zeros(tuple(g.idx.max(0) - g_lo + 1), dtype=np.complex128)
            g_box[tuple((g.idx - g_lo).T)] = g.val
            out = np.zeros(shape, dtype=np.complex128)
            for i, v in zip((f.idx - f_lo).tolist(), f.val.tolist()):
                out[tuple(slice(a, a + w) for a, w in zip(i, g_box.shape))] += v * g_box
            pts = np.argwhere(out)  # in C order, which is lexicographic order
            return LatticeSequence(pts + lo, out[tuple(pts.T)])
    check_budget(pairs, "point sums")
    idx = _sum_indices(f.idx[:, None], g.idx[None]).reshape(-1, f.dim)
    return from_arrays(idx, np.multiply.outer(f.val, g.val).ravel())


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
    def widths(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def cardinality(self) -> int:
        return math.prod(self.widths)

    def points(self) -> list[MultiIndex]:
        return list(map(tuple, self.indices().tolist()))

    def indices(self) -> np.ndarray:
        """(cardinality, dim) int64 points, lexicographic and distinct, so
        `from_sorted` builds a sequence on them without a re-sort; ValueError
        over the size budget or beyond int64."""
        check_budget(self.cardinality, "window points")
        if not _fits(self.lo, self.hi):
            raise ValueError("lattice index does not fit in int64")
        if self.dim == 1:
            return np.arange(self.lo[0], self.hi[0] + 1, dtype=np.int64)[:, None]
        return np.indices(self.widths).reshape(self.dim, -1).T + np.array(self.lo)

    def contains(self, idx: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (n, dim) index array that lie in the window."""
        inside = np.ones(len(idx), dtype=bool)
        for d, (l, h) in enumerate(zip(self.lo, self.hi)):
            inside &= (idx[:, d] >= l) & (idx[:, d] <= h)
        return inside

    def __contains__(self, point) -> bool:
        idx = as_index(point)
        return len(idx) == self.dim and all(
            l <= c <= h for l, c, h in zip(self.lo, idx, self.hi)
        )


def box(lo, hi) -> Window:
    l, h = as_index(lo), as_index(hi)
    return Window(len(l), l, h)


def centered_window(radius: int, dim: int = 1) -> Window:
    return Window(dim, (-radius,) * dim, (radius,) * dim)


def restrict(f: LatticeSequence, window: Window) -> LatticeSequence:
    keep = window.contains(f.idx)
    return LatticeSequence(exact_indices(f.idx[keep]), f.val[keep])


def save_jsonl(f: LatticeSequence, path) -> None:
    """JSON Lines: header {"dim": n}, then one object per support point, each
    written as json.dumps writes it; ValueError for a non-finite value."""
    if not np.isfinite(f.val).all():
        raise ValueError("JSON cannot hold a non-finite value")
    rows = [
        f'{{"index": [{", ".join(map(str, i))}], "re": {v.real!r}, "im": {v.imag!r}}}\n'
        for i, v in zip(f.idx.tolist(), f.val.tolist())
    ]
    with open(path, "w") as fh:
        fh.write(f'{{"dim": {f.dim}}}\n')
        fh.writelines(rows)


def _has_boolean(x) -> bool:
    """Whether x, or an entry of x at any depth of nested lists, is a bool."""
    return type(x) is bool or type(x) is list and any(map(_has_boolean, x))


def load_jsonl(path) -> LatticeSequence:
    """Inverse of save_jsonl; a repeated index keeps its last row.

    ValueError for a header that is not one object with an integer `dim` >= 1,
    for a line that is not one object with an integer `index` of that dim and
    numbers `re`, `im` (JSON's true and false are not numbers here), and for a
    value that is not finite (JSON's NaN and Infinity tokens, and integers
    beyond the float range, included).
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        dim = header.get("dim") if type(header) is dict else None
        if type(dim) is not int or dim < 1:
            raise ValueError('the header must be one object {"dim": n} with an integer n >= 1')
        lines = [line for line in fh if line.strip()]
    text = "[" + ",".join(lines) + "]"
    rows = json.loads(text)
    try:
        points = [r["index"] for r in rows]
        val = np.array([complex(r["re"], r["im"]) for r in rows], dtype=np.complex128)
        # a JSON boolean is spelled true or false, so most files skip the row scan
        if ("true" in text or "false" in text) and _has_boolean(
            [[r["index"], r["re"], r["im"]] for r in rows]
        ):
            raise ValueError("indices and values must be numbers, not true or false")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed row: {exc!r}") from None
    except OverflowError:
        raise ValueError("values must be finite") from None
    idx = np.asarray(points)
    if idx.dtype != np.int64 or idx.ndim > 2:  # beyond int64, or not all integers
        flat = [c for p in points for c in (p if type(p) is list else [p])]
        if not all(isinstance(c, int) for c in flat):
            raise ValueError("indices must be integers")
        idx = exact_indices(flat)
    idx = idx.reshape(-1, dim)
    if len(rows) != len(lines) or len(idx) != len(rows):
        raise ValueError(f"each line must be one object with an index of dim {dim}")
    if not np.isfinite(val).all():
        raise ValueError("values must be finite")
    # stable sort: the last of each run of equal points is its last row
    order = np.lexsort(idx.T[::-1])
    last = np.ones(len(order), dtype=bool)
    last[:-1] = np.any(idx[order[1:]] != idx[order[:-1]], axis=1)
    return from_sorted(idx[order[last]], val[order[last]])
