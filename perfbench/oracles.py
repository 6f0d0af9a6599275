"""Reference computations made apart from latmult.

Every function here works on plain numpy arrays, Python ints or mpmath
numbers and never imports latmult, so a fault in the library cannot hide in
its own oracle.  Fractional coefficients are formed as the complex power
exp(-(lam + i gam) ln m) rather than latmult's product of a real power and a
phase, and phases on grids are reduced modulo M in integers.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30


def coeff(m: np.ndarray, lam: float, gam: float) -> np.ndarray:
    """m^{-lam - i gam} for positive integers m."""
    return np.exp(-(lam + 1j * gam) * np.log(m.astype(np.float64)))


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n (0 when n < 1)."""
    if n < 1:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def power_range(s: int, k: int, lo: int, hi: int) -> tuple[int, int]:
    """Inclusive range of m >= 1 with lo <= s + m^k <= hi (empty when a > b)."""
    top = iroot(hi - s, k)
    bottom = 1 if lo - s <= 1 else iroot(lo - s - 1, k) + 1
    return bottom, top


def _accumulate(keys: np.ndarray, vals: np.ndarray) -> dict:
    uniq, inv = np.unique(keys, return_inverse=True)
    out = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(out, inv, vals)
    return {(int(n),): complex(v) for n, v in zip(uniq, out)}


def fractional_apply(
    points: list[int], values: list[complex], k: int, lam: float, gam: float,
    lo: int, hi: int, terms: int | None = None,
) -> dict:
    """Scatter-add of v * m^{-lam-i gam} at s + m^k over the window [lo, hi].

    `terms` truncates the kernel at m <= terms; None keeps every m.
    """
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.complex128)]
    for s, v in zip(points, values):
        a, b = power_range(s, k, lo, hi)
        if terms is not None:
            b = min(b, terms)
        if a > b:
            continue
        m = np.arange(a, b + 1, dtype=np.int64)
        keys.append(s + m**k)
        vals.append(v * coeff(m, lam, gam))
    return _accumulate(np.concatenate(keys), np.concatenate(vals))


def sparse_convolve(ia, va, ib, vb) -> dict:
    """1-D convolution of two sparse sequences by an outer sum of indices."""
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    va, vb = np.asarray(va), np.asarray(vb)
    return _accumulate(
        (ia[:, None] + ib[None, :]).ravel(), (va[:, None] * vb[None, :]).ravel()
    )


def max_dict_diff(got: dict, want: dict) -> float:
    """Largest |got - want| over the union of keys, missing keys read as 0."""
    worst = 0.0
    for key in set(got) | set(want):
        worst = max(worst, abs(got.get(key, 0j) - want.get(key, 0j)))
    return worst


def scale(values) -> float:
    mags = np.abs(np.asarray(list(values), dtype=np.complex128))
    return max(1.0, float(mags.max())) if len(mags) else 1.0


def close(got: dict, want: dict, tol: float) -> bool:
    return max_dict_diff(got, want) <= tol * scale(want.values())


def lp(values, p: float) -> float:
    mags = np.abs(np.asarray(list(values), dtype=np.complex128))
    return float(np.sum(mags**p) ** (1.0 / p))


def weak(values, p: float) -> float:
    mags = np.sort(np.abs(np.asarray(list(values), dtype=np.complex128)))[::-1]
    j = np.arange(1, len(mags) + 1, dtype=np.float64)
    return float(np.max(j ** (1.0 / p) * mags))


def sandwich(w: float, s: float, p: float, r: float) -> bool:
    """weak <= seminorm <= (p/(p-r))^{1/r} weak, up to rounding."""
    upper = (p / (p - r)) ** (1.0 / r) * w
    return w <= s * (1 + 1e-12) and s <= upper * (1 + 1e-12)


def partial_zeta(s: float, terms: int) -> float:
    """sum_{m<=terms} m^{-s} from Hurwitz zeta: zeta(s) - zeta(s, terms+1)."""
    if s == 1.0:
        return float(mpmath.harmonic(terms))
    return float(mpmath.zeta(s) - mpmath.zeta(s, terms + 1))


def zeta(s: float) -> float:
    return float(mpmath.zeta(s))


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def dft_by_fft(points: np.ndarray, values: np.ndarray, dim: int, M: int) -> np.ndarray:
    """sum_n f(n) e^{-2 pi i n.j/M} on the grid, by numpy.fft of f placed mod M.

    Returned in lexicographic node order (axis 0 slowest).
    """
    box = np.zeros((M,) * dim, dtype=np.complex128)
    np.add.at(box, tuple((points % M).T), values)
    return np.fft.fftn(box).ravel()


def grid_inverse(values: np.ndarray, M: int, window: np.ndarray) -> np.ndarray:
    """(1/M) sum_j e^{2 pi i n j/M} F_j at the 1-D points n, phases reduced mod M."""
    j = np.arange(M, dtype=np.int64)
    phase = np.outer(window % M, j) % M
    return np.exp(2j * np.pi * phase / M) @ values / M


def fractional_symbol(k: int, lam: float, gam: float, terms: int, M: int) -> np.ndarray:
    """sum_{m<=terms} e^{-2 pi i m^k j/M} m^{-lam-i gam}, with m^k j reduced mod M."""
    m = np.arange(1, terms + 1, dtype=np.int64)
    r = np.array([pow(int(x), k, M) for x in m], dtype=np.int64)
    j = np.arange(M, dtype=np.int64)
    phase = np.outer(j, r) % M
    return np.exp(-2j * np.pi * phase / M) @ coeff(m, lam, gam)


def kstar_k1(lam: float, terms: int) -> float:
    """L^2 norm of the k=1 symbol: Parseval, sqrt(sum m^{-2 lam})."""
    m = np.arange(1, terms + 1, dtype=np.float64)
    return math.sqrt(float(np.sum(m ** (-2.0 * lam))))


def kstar_k2(lam: float, terms: int) -> float:
    """L^4 norm of the k=2 symbol from sums of two squares.

    ||S||_4^4 = ||S^2||_2^2 = sum_n |c_n|^2 with
    c_n = sum_{m1^2 + m2^2 = n} a_{m1} a_{m2}, a_m = m^{-lam}.
    """
    m = np.arange(1, terms + 1, dtype=np.int64)
    a = m.astype(np.float64) ** (-lam)
    sq = m * m
    c = np.bincount(
        (sq[:, None] + sq[None, :]).ravel(), weights=(a[:, None] * a[None, :]).ravel()
    )
    return float(np.sum(c * c) ** 0.25)


def band_section(C: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Section of the pdo with symbol sum_u C[r, u] e^{2 pi i u xi}.

    Row r is the output point n_r, column c the input point; the entry is
    C[r, u] where the input sits at n_r + u, and 0 off the band.
    """
    side = C.shape[0]
    A = np.zeros((side, side), dtype=np.complex128)
    rows = np.arange(side)
    for ui, u in enumerate(U):
        cols = rows + u
        ok = (cols >= 0) & (cols < side)
        A[rows[ok], cols[ok]] = C[rows[ok], ui]
    return A


def toeplitz(kernel: dict, points: np.ndarray) -> np.ndarray:
    """T[r, c] = k(n_r - n_c) for a 1-D kernel given as {(n,): value}."""
    d = points[:, None] - points[None, :]
    out = np.zeros(d.shape, dtype=np.complex128)
    for (n,), v in kernel.items():
        out[d == n] = v
    return out
