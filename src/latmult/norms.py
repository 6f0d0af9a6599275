"""Strong and weak sequence norms on Z^n.

The weak-l^{p,inf} quasinorm sup_a a.mu{|f|>a}^{1/p} is computed through the
decreasing rearrangement: it equals max_j j^{1/p} f*_j, which is exact and
tie-agnostic.  The equivalent seminorm (sup over finite subsets E) is reduced
to a prefix scan: for fixed |E| = s the inner r-sum is maximized by the s
largest magnitudes.  Both read f.rearranged, which a sequence sorts on first
use and keeps; lp_norm sums |f|^p in support order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSequence


@dataclass(frozen=True, eq=False)
class RearrangementProfile:
    """Magnitudes of f sorted nonincreasing (f*_1 >= f*_2 >= ...)."""

    sorted_magnitudes: np.ndarray
    cardinality: int


def rearrangement(f: LatticeSequence) -> RearrangementProfile:
    return RearrangementProfile(f.rearranged, len(f))


def lp_norm(f: LatticeSequence, p: float) -> float:
    """(sum |f|^p)^{1/p}, exact finite sum over the support; max |f| at p = inf."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mags = f.magnitudes()
    if len(mags) == 0:
        return 0.0
    if p == np.inf:
        return float(np.max(mags))
    return float(np.sum(mags**p) ** (1.0 / p))


def distribution(f: LatticeSequence, alpha: float) -> int:
    """Counting measure of {n : |f(n)| > alpha}, strict inequality."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return int(np.count_nonzero(f.magnitudes() > alpha))


def weak_norm(f: LatticeSequence, p: float) -> float:
    """Weak-l^{p,inf} quasinorm, max_j j^{1/p} f*_j over the rearrangement."""
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    prof = rearrangement(f)
    if prof.cardinality == 0:
        return 0.0
    j = np.arange(1, prof.cardinality + 1, dtype=np.float64)
    return float(np.max(j ** (1.0 / p) * prof.sorted_magnitudes))


def equivalent_seminorm(f: LatticeSequence, p: float, r: float | None = None) -> float:
    """sup_E mu(E)^{1/p-1/r} (sum_E |f|^r)^{1/r} over finite nonempty E.

    Defaults to r = p/2, the midpoint of the admissible range (0, p).
    """
    if r is None:
        r = p / 2.0
    if not 0 < r < p:  # also rejects nan p or r
        raise ValueError(f"need 0 < r < p, got r={r}, p={p}")
    prof = rearrangement(f)
    if prof.cardinality == 0:
        return 0.0
    s = np.arange(1, prof.cardinality + 1, dtype=np.float64)
    prefix = np.cumsum(prof.sorted_magnitudes**r)
    return float(np.max(s ** (1.0 / p - 1.0 / r) * prefix ** (1.0 / r)))
