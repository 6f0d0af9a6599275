"""Strong and weak sequence norms on Z^n.

The weak-l^{p,inf} quasinorm sup_a a.mu{|f|>a}^{1/p} is computed through the
decreasing rearrangement: it equals max_j j^{1/p} f*_j, which is exact and
tie-agnostic.  The equivalent seminorm (sup over finite subsets E) is reduced
to a prefix scan: for fixed |E| = s the inner r-sum is maximized by the s
largest magnitudes.  Both read f.rearranged, which a sequence sorts on first
use and keeps; lp_norm and distribution read f.magnitudes(), which a sequence
also computes once and keeps, and lp_norm sums |f|^p in support order.

Each norm is first taken by its plain formula.  Where that overflows, or
underflows far enough to lose digits, the same sums are taken relative to the
largest magnitude f*_1, in log form where a power could still overflow (with
expm1/log1p for the seminorm's mean of (f*_i/f*_1)^r).  So no norm comes out
as a spurious 0, inf or nan, and ValueError is raised only when the norm
itself lies beyond the largest float.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeSequence

_TINY = np.finfo(np.float64).tiny


def _finite(value: float) -> float:
    if value == math.inf:
        raise ValueError("the norm exceeds the largest float")
    return value


def _times_exp(scale: float, x: float) -> float:
    """scale * e^x for scale > 0; ValueError when it lies beyond the largest float."""
    with np.errstate(over="ignore"):
        return _finite(float(scale * np.exp(x) if x < 700 else np.exp(x + np.log(scale))))


def power_mean(mags: np.ndarray, p: float, count: int = 1) -> float:
    """((1/count) sum mags^p)^{1/p} of nonempty magnitudes, for 1 <= p < inf.

    The plain formula where it stays finite and all its underflow is below an
    ulp, else scaled by the largest magnitude.
    """
    with np.errstate(all="ignore"):
        total = np.sum(mags**p)
        if len(mags) * _TINY <= total < math.inf:  # no overflow; all underflow < an ulp
            return float((total / count) ** (1.0 / p))
        top = np.max(mags)
        if top == 0:
            return 0.0
        return _finite(float(top * (np.sum((mags / top) ** p) / count) ** (1.0 / p)))


def lp_norm(f: LatticeSequence, p: float) -> float:
    """(sum |f|^p)^{1/p}, exact finite sum over the support; max |f| at p = inf."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mags = f.magnitudes()
    if len(mags) == 0:
        return 0.0
    if p == np.inf:
        return float(np.max(mags))
    return power_mean(mags, p)


def distribution(f: LatticeSequence, alpha: float) -> int:
    """Counting measure of {n : |f(n)| > alpha}, strict inequality."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return int(np.count_nonzero(f.magnitudes() > alpha))


def weak_norm(f: LatticeSequence, p: float) -> float:
    """Weak-l^{p,inf} quasinorm, max_j j^{1/p} f*_j over the rearrangement."""
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    fstar = f.rearranged
    if len(fstar) == 0:
        return 0.0
    j = np.arange(1, len(fstar) + 1, dtype=np.float64)
    with np.errstate(all="ignore"):
        value = float(np.max(j ** (1.0 / p) * fstar))
        if value < math.inf:
            return value
        return _times_exp(fstar[0], np.max(np.log(j) / p + np.log(fstar / fstar[0])))


def equivalent_seminorm(f: LatticeSequence, p: float, r: float | None = None) -> float:
    """sup_E mu(E)^{1/p-1/r} (sum_E |f|^r)^{1/r} over finite nonempty E.

    Defaults to r = p/2, the midpoint of the admissible range (0, p).
    """
    if r is None:
        r = p / 2.0
    if not 0 < r < p:  # also rejects nan p or r
        raise ValueError(f"need 0 < r < p, got r={r}, p={p}")
    fstar = f.rearranged
    if len(fstar) == 0:
        return 0.0
    s = np.arange(1, len(fstar) + 1, dtype=np.float64)
    with np.errstate(all="ignore"):
        prefix = np.cumsum(fstar**r)
        # s^{1/p-1/r} falls and prefix^{1/r} rises with s, so their ends bound every
        # factor; below r = 1/8 the power 1/r would multiply the sums' rounding too far
        low, high = prefix[[0, -1]] ** (1.0 / r)
        if (r >= 0.125 and len(s) * _TINY <= prefix[0] and low >= _TINY and high < math.inf
                and len(s) ** (1.0 / p - 1.0 / r) >= _TINY):
            value = float(np.max(s ** (1.0 / p - 1.0 / r) * prefix ** (1.0 / r)))
            if value < math.inf:
                return value
        # the s-th value is f*_1 s^{1/p} (mean_{i<=s} t_i^r)^{1/r} with t = f*/f*_1;
        # below the smallest normal r it equals its r -> 0 limit to the last bit
        t, rr = fstar / fstar[0], max(r, _TINY)
        excess = np.cumsum(np.expm1(rr * np.log(t))) / s  # mean of t^r, minus 1
        log_mean = np.where(excess > -0.5, np.log1p(excess), np.log(np.cumsum(t**rr) / s))
        return _times_exp(fstar[0], np.max(np.log(s) / p + log_mean / rr))
