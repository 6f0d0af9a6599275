"""Symbol-class diagnostics: difference calculus, class bounds, compactness.

Symbols live on T^n x Z^n.  Forward differences act on the lattice variable
and spectral derivatives on the torus variable; weighted suprema over a
finite probe domain produce observed class constants.  Everything here is a
finite-domain certificate, never a proof over all of Z^n, and the reports say
so by carrying their probe ranges.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import MultiIndex, Window, as_index, add_index, neg_index
from .operators import OperatorMatrix, PdoSymbol, _symbol_rows
from .torus import TorusGrid, TorusSamples


@dataclass(frozen=True)
class ToroidalSymbol:
    """Evaluator (x in [0,1)^dim, xi in Z^dim) -> complex.

    `rows`, when given, is the same symbol on arrays: rows(xi, x) with xi a
    (K, dim) int64 array of lattice points and x an (N, dim) array of torus
    points returns a complex array broadcastable to (K, N).
    """

    dim: int
    eval: Callable[[np.ndarray, MultiIndex], complex]
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


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
    spec = np.fft.fftn(F.values.reshape([M] * n))
    freqs = np.fft.fftfreq(M, d=1.0 / M)
    for axis, order in enumerate(b):
        if order:
            shape = [1] * n
            shape[axis] = M
            spec = spec * (2j * np.pi * freqs.reshape(shape)) ** order
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


def _weight_value(xi: MultiIndex, style: str) -> float:
    norm = math.sqrt(sum(c * c for c in xi))
    if style == "japanese-bracket":
        return math.sqrt(1.0 + norm * norm)
    if style == "one-plus-norm":
        return 1.0 + norm
    raise ValueError(f"unknown weight style {style!r}")


def _orders_up_to(dim: int, total: int) -> list[MultiIndex]:
    out = []
    for a in itertools.product(range(total + 1), repeat=dim):
        if sum(a) <= total:
            out.append(a)
    return sorted(out, key=lambda a: (sum(a), a))


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
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if a.dim != probe_window.dim or a.dim != grid.dim:
        raise ValueError("dimension mismatch")

    dim = a.dim
    nodes = grid.nodes()
    extended = Window(
        dim, probe_window.lo, tuple(h + n1 for h in probe_window.hi)
    )
    keys = extended.points()
    if a.rows is not None:
        rows = a.rows(extended.indices(), nodes)
        samples = np.broadcast_to(rows, (len(keys), len(nodes)))
    else:
        samples = [[a.eval(x, xi) for x in nodes] for xi in keys]
    cache = dict(zip(keys, np.asarray(samples, dtype=np.complex128)))

    probe_points = probe_window.points()
    radius = max(max(abs(c) for c in xi) for xi in probe_points)
    inner_radius = radius // 2

    alphas = _orders_up_to(dim, n1)
    betas = _orders_up_to(dim, n2)
    full = {(al, be): 0.0 for al in alphas for be in betas}
    inner = {(al, be): 0.0 for al in alphas for be in betas}

    for xi in probe_points:
        is_inner = max(abs(c) for c in xi) <= inner_radius
        for al in alphas:
            diff = np.zeros(len(nodes), dtype=np.complex128)
            for off, w in _difference_weights(al):
                diff = diff + w * cache[add_index(xi, off)]
            base = TorusSamples(grid, diff)
            for be in betas:
                if sum(be) == 0:
                    vals = base.values
                else:
                    vals = torus_derivative(base, be).values
                expo = order_m - rho * sum(al) + delta * sum(be)
                weighted = float(np.max(np.abs(vals))) * _weight_value(
                    xi, weight
                ) ** (-expo)
                key = (al, be)
                full[key] = max(full[key], weighted)
                if is_inner:
                    inner[key] = max(inner[key], weighted)

    rows = []
    for al in alphas:
        for be in betas:
            c_full, c_inner = full[(al, be)], inner[(al, be)]
            growing = (
                c_full > 1e-9
                and c_full > c_inner * (1.0 + growth_margin) + 1e-12
            )
            rows.append(
                ClassRow(
                    alpha=al,
                    beta=be,
                    constant=c_full,
                    weight_exponent=order_m - rho * sum(al) + delta * sum(be),
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
    tilde = ToroidalSymbol(
        m_sym.dim,
        lambda x, xi: np.conj(m_sym.eval(neg_index(xi), x)),
        lambda xi, x: np.conj(_symbol_rows(m_sym, -xi, x)),
    )
    return class_check(
        tilde,
        order_m=0.0,
        rho=rho,
        delta=rho,
        n1=n1,
        n2=n2,
        probe_window=probe_window,
        grid=grid,
        weight=weight,
        tolerance=tolerance,
        growth_margin=growth_margin,
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
    if radii and radii[0] < 0:
        raise ValueError(f"radii must be >= 0, got {radii[0]}")
    nodes = grid.nodes()
    values = [
        float(np.max(np.abs(_symbol_rows(m_sym, _shell_points(grid.dim, r), nodes))))
        for r in radii
    ]
    half = len(values) // 2
    tail = values[half:]
    nonincreasing = all(
        b <= a + 1e-12 for a, b in zip(tail, tail[1:])
    )
    consistent = nonincreasing and (not tail or tail[-1] <= tolerance)
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
