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
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import MultiIndex, Window, as_index, add_index
from .operators import OperatorMatrix, PdoSymbol, _check_samples, _symbol_rows
from .torus import TorusGrid, TorusSamples


@dataclass(frozen=True)
class ToroidalSymbol:
    """Evaluator (x in [0,1)^dim, xi in Z^dim) -> complex."""

    dim: int
    eval: Callable[[np.ndarray, MultiIndex], complex]


def difference(sigma: Callable[[MultiIndex], complex], alpha, xi) -> complex:
    """Iterated forward difference of a lattice-variable function.

    Equals sum over 0 <= b <= alpha of (-1)^{|alpha-b|} prod C(alpha_i, b_i)
    sigma(xi + b).
    """
    a = as_index(alpha)
    point = as_index(xi)
    if any(c < 0 for c in a):
        raise ValueError(f"alpha must be componentwise >= 0, got {a}")
    return sum(
        (w * sigma(add_index(point, b)) for b, w in _difference_weights(a)), 0j
    )


def _difference_weights(alpha: MultiIndex) -> list[tuple[MultiIndex, float]]:
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
    if any(c < 0 for c in beta):
        raise ValueError(f"beta must be componentwise >= 0, got {beta}")
    freqs = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    factor = np.ones((1,) * dim, dtype=np.complex128)
    for axis_freqs, order in zip(np.ix_(*[freqs] * dim), beta):
        factor = factor * axis_freqs**order
    return factor


def torus_derivative(F: TorusSamples, beta) -> TorusSamples:
    """Spectral derivative d^beta/dx^beta of band-limited grid samples.

    Coefficients are taken on the symmetric frequency range of the grid and
    multiplied by prod (2 pi i xi_i)^{beta_i}; the band-limit below Nyquist is
    the caller's contract.
    """
    b = as_index(beta)
    g = F.grid
    if len(b) != g.dim:
        raise ValueError("beta must match the grid dimension")
    M, n = g.resolution, g.dim
    spec = np.fft.fftn(F.values.reshape([M] * n)) * _derivative_factor(b, M, n)
    return TorusSamples(g, np.fft.ifftn(spec).ravel())


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

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "order": self.order,
            "rho": self.rho,
            "delta": self.delta,
            "weight": self.weight,
            "tolerance": self.tolerance,
            "probe_window": {"lo": list(self.probe_window.lo),
                             "hi": list(self.probe_window.hi)},
            "resolution": self.resolution,
            "rows": [
                {
                    "alpha": list(r.alpha),
                    "beta": list(r.beta),
                    "constant": r.constant,
                    "weight_exponent": r.weight_exponent,
                }
                for r in self.rows
            ],
        }


def save_class_report(report: ClassReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def _weights(points: np.ndarray, style: str) -> np.ndarray:
    """w(xi) at each row of a (..., dim) array of lattice points."""
    norm = np.sqrt(np.sum(points.astype(np.float64) ** 2, axis=-1))
    if style == "japanese-bracket":
        return np.sqrt(1.0 + norm * norm)
    if style == "one-plus-norm":
        return 1.0 + norm
    raise ValueError(f"unknown weight style {style!r}")


def _orders_up_to(dim: int, total: int) -> list[MultiIndex]:
    out = []
    for a in itertools.product(range(total + 1), repeat=dim):
        if sum(a) <= total:
            out.append(a)
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
    tolerance: float,
    growth_margin: float,
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

    extended = Window(
        dim, probe_window.lo, tuple(h + n1 for h in probe_window.hi)
    )
    _check_samples(extended.cardinality * grid.node_count)
    M = grid.resolution
    widths = tuple(h - l + 1 for l, h in zip(probe_window.lo, probe_window.hi))
    points = probe_window.indices().reshape(widths + (dim,))
    w = _weights(points, weight)
    sup = np.max(np.abs(points), axis=-1)
    inner = sup <= int(sup.max()) // 2

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
            if sum(be) == 0:
                vals = diff
            else:
                vals = np.fft.ifftn(
                    spec * _derivative_factor(be, M, dim), axes=node_axes
                )
            expo = order_m - rho * sum(al) + delta * sum(be)
            weighted = np.max(np.abs(vals), axis=node_axes) * w ** (-expo)
            c_full = float(np.max(weighted, initial=0.0))
            c_inner = float(np.max(weighted, where=inner, initial=0.0))
            growing = (
                c_full > 1e-9
                and c_full > c_inner * (1.0 + growth_margin) + 1e-12
            )
            rows.append(
                ClassRow(
                    alpha=al,
                    beta=be,
                    constant=c_full,
                    weight_exponent=expo,
                    inner_constant=c_inner,
                    growing=growing,
                )
            )
    bounded = all(not r.growing and r.constant <= tolerance for r in rows)
    return ClassReport(
        rows=rows,
        verdict="bounded" if bounded else "unbounded",
        order=order_m,
        rho=rho,
        delta=delta,
        weight=weight,
        tolerance=tolerance,
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
    tolerance: float = 1e3,
    growth_margin: float = 0.10,
) -> ClassReport:
    """Probe |Delta_xi^alpha d_x^beta a| . w(xi)^{-(m - rho|alpha| + delta|beta|)}.

    Constants are suprema over probe_window x grid for |alpha| <= n1,
    |beta| <= n2.  Verdict "bounded" requires every constant at most
    `tolerance` and no growth from the inner half-window to the full window.
    """
    pdo = PdoSymbol(a.dim, lambda n, x: a.eval(x, n))
    return _class_report(
        lambda xi: _symbol_rows(pdo, xi, grid), a.dim, order_m, rho, delta,
        n1, n2, probe_window, grid, weight, tolerance, growth_margin,
    )


def cv_check(
    m_sym: PdoSymbol,
    rho: float,
    n1: int,
    n2: int,
    probe_window: Window,
    grid: TorusGrid,
    weight: str = "one-plus-norm",
    tolerance: float = 1e3,
    growth_margin: float = 0.10,
) -> ClassReport:
    """L^2-boundedness condition with weight exponent (|beta| - |alpha|) rho.

    The pdo symbol m(n', xi) is rotated onto T^n x Z^n via the conjugation
    rule a(x, xi) = conj(m(-xi, x)), placing the difference operator and the
    weight on the (unbounded) lattice variable.
    """
    return _class_report(
        lambda xi: np.conj(_symbol_rows(m_sym, -xi, grid)), m_sym.dim, 0.0, rho,
        rho, n1, n2, probe_window, grid, weight, tolerance, growth_margin,
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
    radii: list[int],
    tolerance: float = 0.05,
) -> GohbergReport:
    """d(R) = max_{|n'|_inf = R} sup_xi |m(n', xi)| on the probed radii.

    Verdict "consistent" (with compactness) when the second half of d is
    nonincreasing and ends below the tolerance; otherwise "not-compact".
    """
    radii = list(radii)
    if radii != sorted(radii):
        raise ValueError("radii must be increasing")
    if not radii or radii[0] < 0:
        raise ValueError(f"radii must be nonempty and >= 0, got {radii[:1]}")
    values = [
        float(np.max(np.abs(_symbol_rows(m_sym, _shell_points(grid.dim, r), grid))))
        for r in radii
    ]
    half = len(values) // 2
    tail = values[half:]
    nonincreasing = all(
        b <= a + 1e-12 for a, b in zip(tail, tail[1:])
    )
    consistent = nonincreasing and tail[-1] <= tolerance
    return GohbergReport(
        radii=radii,
        values=values,
        verdict="consistent" if consistent else "not-compact",
        tolerance=tolerance,
    )


def singular_tail(A: OperatorMatrix, count: int) -> list[float]:
    """Top `count` singular values of the finite section (LAPACK SVD), nonincreasing."""
    side = A.window.cardinality
    if not 0 <= count <= side:
        raise ValueError(f"count {count} not in [0, matrix side {side}]")
    return np.linalg.svd(A.entries, compute_uv=False)[:count].tolist()
