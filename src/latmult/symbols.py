"""Symbol-class diagnostics: difference calculus, class bounds, compactness.

Symbols live on T^n x Z^n.  Forward differences act on the lattice variable
and spectral derivatives on the torus variable; weighted suprema over a
finite probe domain produce observed class constants.  Everything here is a
finite-domain certificate, never a proof over all of Z^n, and the reports say
so by carrying their probe ranges.

Every symbol is sampled by operators._symbol_rows at the grid nodes, once per
check: the class check takes the whole (extended probe window) x (nodes)
array, forms each lattice difference as a weighted sum of shifted blocks and
each torus derivative as one batched FFT over the node axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .lattice import MultiIndex, Window, as_index, check_budget
from .operators import MAX_SYMBOL_SAMPLES, OperatorMatrix, PdoSymbol, _symbol_rows
from .torus import TorusGrid

# A class constant above CLASS_TOLERANCE, or one that grows by more than
# GROWTH_MARGIN from the inner half of the probe window to the whole, makes the
# class check's verdict "unbounded".
CLASS_TOLERANCE = 1e3
GROWTH_MARGIN = 0.10


@dataclass(frozen=True)
class ToroidalSymbol:
    """Evaluator (x in [0,1)^dim, xi in Z^dim) -> complex."""

    dim: int
    eval: Callable[[np.ndarray, MultiIndex], complex]


def _difference_weights(alpha: MultiIndex) -> list[tuple[MultiIndex, float]]:
    """(b, (-1)^{|alpha-b|} prod C(alpha_i, b_i)) for 0 <= b <= alpha: the forward
    difference Delta^alpha sigma(xi) is the sum of the weights times sigma(xi + b)."""
    weights = []
    for b in itertools.product(*(range(ai + 1) for ai in alpha)):
        sign = (-1) ** (sum(alpha) - sum(b))
        coeff = 1
        for ai, bi in zip(alpha, b):
            coeff *= math.comb(ai, bi)
        weights.append((b, float(sign * coeff)))
    return weights


def _derivative_factor(beta: MultiIndex, M: int, dim: int) -> np.ndarray:
    """prod_i (2 pi i xi_i)^{beta_i} on the symmetric frequencies of the M^dim box."""
    freqs = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    factor = np.ones((1,) * dim, dtype=np.complex128)
    for axis_freqs, order in zip(np.ix_(*[freqs] * dim), beta):
        factor = factor * axis_freqs**order
    return factor


@dataclass(frozen=True)
class ClassRow:
    alpha: MultiIndex
    beta: MultiIndex
    constant: float
    weight_exponent: float
    inner_constant: float
    growing: bool


@dataclass(frozen=True)
class ClassReport:
    """Observed class constants over a probe domain, with a verdict.

    `growing` rows are those whose weighted supremum keeps increasing from
    the inner half of the lattice probe window to the full window; any such
    row, or any constant above the tolerance, makes the verdict "unbounded".
    """

    rows: list[ClassRow]
    verdict: str
    order: float
    rho: float
    delta: float
    weight: str
    tolerance: float
    probe_window: Window
    resolution: int

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"

    def constant(self, alpha, beta) -> float:
        a, b = as_index(alpha), as_index(beta)
        for row in self.rows:
            if row.alpha == a and row.beta == b:
                return row.constant
        raise KeyError((alpha, beta))


def _weights(points: np.ndarray, style: str) -> np.ndarray:
    """w(xi) at each row of a (..., dim) array of lattice points."""
    norm = np.sqrt(np.sum(points.astype(np.float64) ** 2, axis=-1))
    if style == "japanese-bracket":
        return np.sqrt(1.0 + norm * norm)
    if style == "one-plus-norm":
        return 1.0 + norm
    raise ValueError(f"unknown weight style {style!r}")


def _orders_up_to(dim: int, total: int) -> list[MultiIndex]:
    out = [a for a in itertools.product(range(total + 1), repeat=dim) if sum(a) <= total]
    return sorted(out, key=lambda a: (sum(a), a))


def _class_report(
    sample: Callable[[np.ndarray], np.ndarray],
    dim: int,
    order_m: float,
    rho: float,
    delta: float,
    n1: int,
    n2: int,
    probe_window: Window,
    grid: TorusGrid,
    weight: str,
) -> ClassReport:
    """The class check on sample(xi) = (K, M^dim) symbol rows at K int64 points xi."""
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if n1 < 0 or n2 < 0:
        raise ValueError(f"n1 and n2 must be >= 0, got {n1}, {n2}")
    if dim != probe_window.dim or dim != grid.dim:
        raise ValueError("dimension mismatch")

    extended = Window(dim, probe_window.lo, tuple(h + n1 for h in probe_window.hi))
    check_budget(extended.cardinality * grid.node_count, "symbol samples", MAX_SYMBOL_SAMPLES)
    M = grid.resolution
    widths = tuple(h - l + 1 for l, h in zip(probe_window.lo, probe_window.hi))
    points = probe_window.indices().reshape(widths + (dim,))
    w = _weights(points, weight)
    sup = np.max(np.abs(points), axis=-1)
    inner = sup <= int(sup.max()) // 2
    if not inner.any():
        raise ValueError(f"no point of the probe window {probe_window} is in its inner half")

    # (probe axes + n1) x (node axes): a lattice shift is a slice of the probe axes
    block = sample(extended.indices()).reshape(
        tuple(k + n1 for k in widths) + (M,) * dim
    )
    node_axes = tuple(range(dim, 2 * dim))

    rows = []
    for al in _orders_up_to(dim, n1):
        diff = sum(
            c * block[tuple(slice(o, o + n) for o, n in zip(off, widths))]
            for off, c in _difference_weights(al)
        )
        spec = np.fft.fftn(diff, axes=node_axes)
        for be in _orders_up_to(dim, n2):
            vals = (diff if sum(be) == 0
                    else np.fft.ifftn(spec * _derivative_factor(be, M, dim), axes=node_axes))
            expo = order_m - rho * sum(al) + delta * sum(be)
            weighted = np.max(np.abs(vals), axis=node_axes) * w ** (-expo)
            c_full = float(np.max(weighted, initial=0.0))
            c_inner = float(np.max(weighted, where=inner, initial=0.0))
            growing = c_full > 1e-9 and c_full > c_inner * (1.0 + GROWTH_MARGIN) + 1e-12
            rows.append(ClassRow(alpha=al, beta=be, constant=c_full, weight_exponent=expo,
                                 inner_constant=c_inner, growing=growing))
    bounded = all(not r.growing and r.constant <= CLASS_TOLERANCE for r in rows)
    return ClassReport(
        rows=rows,
        verdict="bounded" if bounded else "unbounded",
        order=order_m,
        rho=rho,
        delta=delta,
        weight=weight,
        tolerance=CLASS_TOLERANCE,
        probe_window=probe_window,
        resolution=grid.resolution,
    )


def class_check(
    a: ToroidalSymbol,
    order_m: float,
    rho: float,
    delta: float,
    n1: int,
    n2: int,
    probe_window: Window,
    grid: TorusGrid,
    weight: str = "japanese-bracket",
) -> ClassReport:
    """Probe |Delta_xi^alpha d_x^beta a| . w(xi)^{-(m - rho|alpha| + delta|beta|)}.

    Constants are suprema over probe_window x grid for |alpha| <= n1,
    |beta| <= n2.  Verdict "bounded" requires every constant at most
    CLASS_TOLERANCE and no growth beyond GROWTH_MARGIN from the inner
    half-window to the full window; a probe window with no point in its
    inner half raises ValueError.
    """
    pdo = PdoSymbol(a.dim, lambda n, x: a.eval(x, n))
    return _class_report(
        lambda xi: _symbol_rows(pdo, xi, grid), a.dim, order_m, rho, delta,
        n1, n2, probe_window, grid, weight,
    )


def cv_check(
    m_sym: PdoSymbol,
    rho: float,
    n1: int,
    n2: int,
    probe_window: Window,
    grid: TorusGrid,
    weight: str = "one-plus-norm",
) -> ClassReport:
    """L^2-boundedness condition with weight exponent (|beta| - |alpha|) rho.

    The pdo symbol m(n', xi) is rotated onto T^n x Z^n via the conjugation
    rule a(x, xi) = conj(m(-xi, x)), placing the difference operator and the
    weight on the (unbounded) lattice variable.
    """
    return _class_report(
        lambda xi: np.conj(_symbol_rows(m_sym, -xi, grid)), m_sym.dim, 0.0, rho,
        rho, n1, n2, probe_window, grid, weight,
    )


@dataclass(frozen=True)
class GohbergReport:
    radii: list[int]
    values: list[float]
    verdict: str
    tolerance: float


def _shell_points(dim: int, radius: int) -> np.ndarray:
    """(K, dim) int64 array of the points with |n|_inf = radius, face by face.

    Face `axis` holds the points with |n_axis| = radius and |n_j| < radius
    for j < axis, so every shell point lies on exactly one face.
    """
    if radius == 0:
        return np.zeros((1, dim), dtype=np.int64)
    inner = np.arange(-radius + 1, radius)
    full = np.arange(-radius, radius + 1)
    faces = []
    for axis in range(dim):
        axes = [inner] * axis + [np.array([-radius, radius])] + [full] * (dim - 1 - axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        faces.append(np.stack([m.ravel() for m in mesh], axis=-1))
    return np.concatenate(faces)


def gohberg_decay(
    m_sym: PdoSymbol,
    grid: TorusGrid,
    radii: Iterable[int],
    tolerance: float = 0.05,
) -> GohbergReport:
    """d(R) = max_{|n'|_inf = R} sup_xi |m(n', xi)| on the probed radii.

    Every shell is sampled in one _symbol_rows call; the shell sizes are
    counted against the sample budget before a shell is built or a range listed.
    Verdict "consistent" (with compactness) when the second half of d is
    nonincreasing and ends below the tolerance; otherwise "not-compact".  A
    tolerance that is negative or not finite raises ValueError.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    radii = radii if isinstance(radii, range) else list(radii)
    total = 0
    for r in map(abs, radii):  # (2r+1)^dim - (2r-1)^dim points on the shell |n|_inf = r
        total += 1 if r == 0 else (2 * r + 1) ** grid.dim - (2 * r - 1) ** grid.dim
        check_budget(total * grid.node_count, "symbol samples", MAX_SYMBOL_SAMPLES)
    radii = list(radii)
    if radii != sorted(radii):
        raise ValueError("radii must be increasing")
    if not radii or radii[0] < 0:
        raise ValueError(f"radii must be nonempty and >= 0, got {radii[:1]}")
    shells = [_shell_points(grid.dim, r) for r in radii]
    peaks = np.abs(_symbol_rows(m_sym, np.concatenate(shells), grid)).max(axis=1)
    starts = np.cumsum([0] + [len(shell) for shell in shells[:-1]])
    values = np.maximum.reduceat(peaks, starts).tolist()
    tail = values[len(values) // 2:]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    verdict = "consistent" if nonincreasing and tail[-1] <= tolerance else "not-compact"
    return GohbergReport(radii, values, verdict, tolerance)


def singular_tail(A: OperatorMatrix, count: int) -> list[float]:
    """Top `count` singular values of the finite section (LAPACK SVD), nonincreasing."""
    side = A.window.cardinality
    if not 0 <= count <= side:
        raise ValueError(f"count {count} not in [0, matrix side {side}]")
    return np.linalg.svd(A.entries, compute_uv=False)[:count].tolist()
