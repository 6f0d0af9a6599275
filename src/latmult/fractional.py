"""Discrete fractional integral operators on Z.

The operator with parameters (k, lambda, gamma) convolves with the kernel
supported on the k-th powers m^k, m >= 1, with values m^{-lambda - i gamma}.
Closed-form strong and weak norms, boundedness classification, symbol partial
sums and the L^{2k} norm probe all live here.  Divergent norms are reported
through an explicit flag, never as a floating-point infinity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lattice import (
    MAX_ELEMENTS,
    LatticeSequence,
    Window,
    check_budget,
    convolve,
    from_arrays,
    restrict,
    sequence,
)
from .torus import TorusGrid, TorusSamples, to_grid


# Kernel terms run to m <= lattice.MAX_ELEMENTS = 2^26, so an index m^power
# has at most 26 * 512 = 13312 bits, 4008 decimal digits.
MAX_POWER = 512

# kstar_norm_probe peaks at 56 B per k-tuple at k = 1 and 40 B at k >= 2
# (tracemalloc), so each tuple is charged 4 of the budget's 16-byte elements.
KSTAR_TUPLE_ELEMENTS = 4


@dataclass(frozen=True)
class FractionalParams:
    """(power, decay, oscillation) = the textbook parameters (k, lambda, gamma).

    ValueError unless 1 <= power <= MAX_POWER = 512, before any m^power is
    formed: every kernel index m^power then stays within Python's default
    4300-digit limit on writing an int, and every integer power and root the
    operators take is cheap.  Also needs 0 < decay <= 1 and a finite
    oscillation.
    """

    power: int
    decay: float
    oscillation: float = 0.0

    def __post_init__(self):
        if not 1 <= self.power <= MAX_POWER:
            raise ValueError(f"power must lie in [1, {MAX_POWER}], got {self.power}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay}")
        if not math.isfinite(self.oscillation):
            raise ValueError(f"oscillation must be finite, got {self.oscillation}")


@dataclass(frozen=True)
class NormResult:
    """A norm value that may diverge; `value` is None iff divergent."""

    divergent: bool
    value: float | None = None

    def __float__(self) -> float:
        if self.divergent:
            raise ValueError("divergent norm has no finite value")
        return self.value


def _coefficients(params: FractionalParams, m: np.ndarray) -> np.ndarray:
    """Kernel values m^{-decay} e^{-i gamma ln m} for a float64 array of m >= 1.

    m is overwritten: every caller passes a fresh array, so the powers take
    no array of their own.
    """
    lam, gam = params.decay, params.oscillation
    z = -1j * gam * np.log(m)
    np.exp(z, out=z)
    m **= -lam
    z *= m
    return z


def _shift_coefficients(
    params: FractionalParams, m: np.ndarray, m_lo: int, m_hi: int
) -> np.ndarray:
    """_coefficients at each entry of the uint64 array m, m_lo <= m <= m_hi.

    One value per distinct m, gathered, when there are fewer distinct m than
    entries; otherwise one per entry, so no table is larger than m.
    """
    if m_hi - m_lo < len(m):
        table = np.arange(m_lo, m_hi + 1, dtype=np.uint64).astype(np.float64)
        return _coefficients(params, table)[m - m_lo]
    return _coefficients(params, m.astype(np.float64))


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n (0 when n < 1), exact integer Newton."""
    if n < 1:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _zeta_tail(s: float, N: int) -> float:
    """Upper bound N^{1-s}/(s-1) - N^{-s}/2 + s N^{-s-1}/12 on sum_{m > N} m^{-s}.

    Euler-Maclaurin through the first-derivative term, for s > 1; the
    remainder is negative because m^{-s} is completely monotone.  With a, b, c
    the three terms, adding 4 eps (a + b + c) covers the float rounding.
    """
    N = float(N)
    a, b, c = N ** (1 - s) / (s - 1), N**-s / 2.0, s * N ** (-s - 1) / 12.0
    return a - b + c + 4 * sys.float_info.epsilon * (a + b + c)


def _kernel(params: FractionalParams, first: int, last: int) -> LatticeSequence:
    """Kernel terms m^{-decay} e^{-i gamma ln m} at m^power, first <= m <= last."""
    terms = last - first + 1
    check_budget(terms, "kernel terms")
    top = last**params.power
    exact = top > np.iinfo(np.int64).max  # Python-int powers
    if exact:
        # a term then peaks at its index's size plus about 64 B (tracemalloc), so
        # it is charged that many of the budget's 16-byte elements
        per_term = -(-(sys.getsizeof(top) + 64) // 16)
        check_budget(terms * per_term, "16-byte elements for kernel terms with Python-int indices")
    coeff = _coefficients(params, np.arange(first, last + 1, dtype=np.float64))
    m = np.arange(first, last + 1, dtype=object if exact else np.int64)
    m **= params.power
    return LatticeSequence(m[:, None], coeff)


def fractional_kernel(params: FractionalParams, max_m: int) -> LatticeSequence:
    """Truncated kernel: value m^{-decay} e^{-i gamma ln m} at m^power, m <= max_m."""
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    return _kernel(params, 1, max_m)


def apply_fractional(
    params: FractionalParams, f: LatticeSequence, out: Window
) -> LatticeSequence:
    """Exact application on an output window: sum over m with n - m^power in supp(f).

    For each support point only finitely many shifts land inside the window,
    so there is no truncation error.  When the kernel's span over them is at
    most four entries per shift (k = 1, or a short window), f is convolved
    with the kernel cut to those m; otherwise the shifts are scattered, with
    one coefficient per distinct m when there are fewer distinct m than shifts.
    """
    if f.dim != 1 or out.dim != 1:
        raise ValueError("fractional operators act on dimension-1 sequences")
    k, lo, hi = params.power, out.lo[0], out.hi[0]
    s, v = f.arrays()
    if not -(2**63) <= lo <= hi < 2**63:
        raise ValueError("lattice index does not fit in int64")
    # m runs over lo <= s + m^k <= hi, found by exact integer roots.
    first = [1 if lo - t <= 1 else _iroot(lo - t - 1, k) + 1 for t in s[:, 0].tolist()]
    last = [_iroot(hi - t, k) for t in s[:, 0].tolist()]
    hit = [i for i, (a, b) in enumerate(zip(first, last)) if a <= b]
    if not hit:
        return sequence(1, [])
    counts = np.array([last[i] - first[i] + 1 for i in hit])
    shifts = int(counts.sum())
    m_lo, m_hi = min(first[i] for i in hit), max(last[i] for i in hit)
    if len(s) * (m_hi**k - m_lo**k + 1) <= 4 * shifts and m_hi**k < 2**63:
        return restrict(convolve(f, _kernel(params, m_lo, m_hi)), out)
    check_budget(shifts, "fractional shifts")
    step = np.arange(shifts) - np.repeat(np.cumsum(counts) - counts, counts)
    m = np.repeat(np.array([first[i] for i in hit], dtype=np.uint64), counts)
    m += step.astype(np.uint64)
    row = np.repeat(hit, counts)
    # uint64 wraps mod 2^64, so s + m^k is exact wherever it lands in the window
    n = (s[row, 0].view(np.uint64) + m**k).view(np.int64)
    return from_arrays(n[:, None], v[row] * _shift_coefficients(params, m, m_lo, m_hi))


def weak_norm_closed_form(params: FractionalParams, p: float) -> NormResult:
    """Weak-l^{p,inf} norm of the full kernel: 1 when weak type (1,p), else divergent.

    The alpha-supremum collapses to sup_{m>=1} m^{1/p - decay} because the
    rearranged kernel magnitudes are exactly j^{-decay}.
    """
    if classify_weak_and_strong(params, p).weak_1p:
        return NormResult(divergent=False, value=1.0)
    return NormResult(divergent=True)


# B_2j / (2j)! for j = 1..7: the Euler-Maclaurin coefficients that zeta uses.
_EM_COEFFS = (0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
              -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
              1.3382536530684679e-11)


def _em_derivatives(s: float, x: float) -> float:
    """-sum_j B_2j/(2j)! f^(2j-1)(x) for f(m) = m^{-s}, j = 1..7."""
    total, term = 0.0, x**-s * s / x
    for j, b in enumerate(_EM_COEFFS):
        total += b * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    return total


def zeta(s: float, terms: float = math.inf) -> float:
    """sum_{1 <= m <= terms} m^{-s}; the Riemann zeta function for infinite terms.

    m < 32 are summed directly, the rest by Euler-Maclaurin on [32, terms]:
    the integral, the two end values and B_2 ... B_14 at both ends.  The
    integral is written with expm1 and log, so s = 1 and s near 1 lose no
    digits.  Needs s > 1 only when terms is infinite.
    """
    if terms == math.inf and not s > 1:
        raise ValueError(f"zeta needs s > 1, got {s}")
    N = 32.0
    head = [m**-s for m in range(1, int(min(terms, N - 1)) + 1)]
    if terms < N or N**-s == 0.0:  # no tail, or one below the smallest float
        return math.fsum(head)
    if terms == math.inf:
        return math.fsum(head + [N ** (1 - s) / (s - 1), N**-s / 2, _em_derivatives(s, N)])
    T = float(terms)
    u = math.log(T / N)
    x = (1 - s) * u
    integral = N ** (1 - s) * (math.expm1(x) / (1 - s) if x else u)
    ends = [(N**-s + T**-s) / 2, _em_derivatives(s, N), -_em_derivatives(s, T)]
    return math.fsum(head + [integral] + ends)


def strong_norm_closed_form(params: FractionalParams, p: float) -> NormResult:
    """l^p norm of the full kernel: zeta(decay*p)^{1/p} when l^1 -> l^p bounded.

    Raises ValueError in the one-ulp band where decay > 1/p but the float
    decay*p is not above 1.
    """
    if not classify_weak_and_strong(params, p).strong_1p:
        return NormResult(divergent=True)
    s = params.decay * p
    if not s > 1:
        raise ValueError(f"decay > 1/p, but the float decay * p = {s!r} is not above 1")
    return NormResult(divergent=False, value=zeta(s) ** (1.0 / p))


@dataclass(frozen=True)
class TypeVerdict:
    weak_1p: bool
    strong_1p: bool


def classify_weak_and_strong(params: FractionalParams, p: float) -> TypeVerdict:
    """Weak type (1,p) iff decay >= 1/p; l^1 -> l^p bounded iff decay > 1/p.

    The one place these thresholds are written; the closed-form norms follow it.
    """
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    return TypeVerdict(
        weak_1p=params.decay >= 1.0 / p, strong_1p=params.decay > 1.0 / p
    )


def classify_conjecture1(p: float, q: float, lam: float, k: int) -> bool:
    """Predicted l^q -> l^p boundedness for the fractional operator.

    Conjunction of 1/p <= 1/q - (1-lam)/k with 1/p < lam and 1/q > 1 - lam.
    At q = 1 this reduces to the proven strong-type threshold lam > 1/p.
    """
    if not (1 <= q < p):
        raise ValueError(f"need 1 <= q < p, got q={q}, p={p}")
    if not 0 < lam < 1:
        raise ValueError(f"need 0 < lam < 1, got {lam}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return 1.0 / p <= 1.0 / q - (1.0 - lam) / k and 1.0 / p < lam and 1.0 / q > 1.0 - lam


@dataclass(frozen=True, eq=False)
class SymbolPartialSum:
    """Partial sum of the fractional symbol with its L^2 truncation tail.

    l2_tail bounds the L^2(T) distance to the full symbol via Parseval; it is
    None when decay <= 1/2 (the tail series diverges there).
    """

    samples: TorusSamples
    terms: int
    l2_tail: float | None


def symbol_partial_sum(
    params: FractionalParams, terms: int, grid: TorusGrid
) -> SymbolPartialSum:
    """sum_{m<=terms} e^{-2 pi i m^power xi} / m^{decay + i oscillation} on the grid."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if grid.dim != 1:
        raise ValueError("fractional symbols live on the 1-dimensional torus")
    kern = fractional_kernel(params, terms)
    # m^power mod M in exact integers keeps every phase exact on the grid.
    residues = np.asarray(kern.idx % grid.resolution, dtype=np.int64)
    vals = to_grid(kern.val[None], residues, grid)[0]
    if params.decay > 0.5:
        tail = math.sqrt(max(_zeta_tail(2.0 * params.decay, terms), 0.0))
    else:
        tail = None
    return SymbolPartialSum(TorusSamples(grid, vals), terms, tail)


def kstar_norm_probe(k: int, lam: float, terms: int, grid: TorusGrid | None = None) -> float:
    """L^{2k}(T) norm of the truncated symbol, the Hypothesis-K* diagnostic.

    ||S||_{2k}^{2k} = sum_n r(n)^2 by Parseval, where r(n) sums prod m_i^{-lam}
    over the k-tuples 1 <= m_i <= terms with m_1^k + ... + m_k^k = n.  All
    terms^k tuples are formed and their weights added per n; no grid is
    sampled, and `grid` is ignored (kept for callers that pass it).  Purely a
    probe: no convergence in `terms` is asserted anywhere.  ValueError unless
    1/2 < lam < 1, 1 <= k <= MAX_POWER, terms >= 1 and the tuples fit the size
    budget, all decided before any array is allocated.
    """
    if not 0.5 < lam < 1:
        raise ValueError(f"lam must lie in (1/2, 1), got {lam}")
    FractionalParams(k, lam)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    # terms^k >= 2^{k (bits - 1)}, so past this bound the tuples are over budget
    if k * (terms.bit_length() - 1) > MAX_ELEMENTS.bit_length():
        raise ValueError(f"k={k}, terms={terms}: over {MAX_ELEMENTS} k-tuples")
    check_budget(terms**k * KSTAR_TUPLE_ELEMENTS, "16-byte elements for K* k-tuples")
    # within budget terms^k <= 2^24 and k <= 24 unless terms = 1, so every n fits int64
    powers, weights = np.arange(1, terms + 1) ** k, np.arange(1, terms + 1) ** -lam
    n, w = powers, weights
    for _ in range(k - 1):
        n = (n[:, None] + powers).ravel()
        w = (w[:, None] * weights).ravel()
    order = np.argsort(n)
    n, w = n[order], w[order]
    r = np.add.reduceat(w, np.flatnonzero(np.diff(n, prepend=0)))
    return math.fsum(r * r) ** (1.0 / (2 * k))
