"""Acceptance checks: closed-form identities and thresholds at desk scale.

Each criterion is a function `check(rng, fault)` that returns its measurement,
`(passed, measured)`.  `run_all` is the one place that turns measurements into
CheckResults: it numbers, names and times each criterion, hands it a fresh
generator seeded with `seed`, and applies its runtime bound.  The CLI `verify`
command and the acceptance test module both run this list; `fault="kernel"`
deliberately corrupts one kernel value in criterion 1 so the harness can
demonstrate failure detection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import catalog
from .fractional import (
    FractionalParams,
    classify_conjecture1,
    classify_weak_and_strong,
    fractional_kernel,
    kstar_norm_probe,
)
from .lattice import (
    LatticeSequence,
    Window,
    add,
    centered_window,
    convolve,
    delta,
    from_arrays,
    translate,
)
from .norms import equivalent_seminorm, lp_norm, weak_norm
from .operators import (
    PdoSymbol,
    apply_multiplier,
    conjugation_residual,
    opnorm_l2,
    pdo_matrix,
    sample_multiplier,
)
from .symbols import cv_check, gohberg_decay, singular_tail
from .torus import TorusGrid, dft, inverse_dft, lq_torus_norm


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: str
    tolerance: str
    elapsed: float


Measurement = tuple[bool, str]  # what each criterion returns: (passed, measured)


def _random_sequence(rng, span: int = 6, max_points: int = 8) -> LatticeSequence:
    count = int(rng.integers(1, max_points + 1))
    points = rng.choice(2 * span + 1, size=count, replace=False) - span
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return from_arrays(points[:, None], vals)


def _random_kernel(rng, span: int = 4) -> LatticeSequence:
    points = np.arange(-span, span + 1)
    vals = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    return from_arrays(points[:, None], vals)


def _window_values(f: LatticeSequence, window: Window) -> np.ndarray:
    """f at the window's points in lexicographic order, 0 off the support;
    f is supported in the window."""
    dense = np.zeros(window.widths, dtype=np.complex128)
    dense[tuple((f.idx - window.lo).T)] = f.val
    return dense.ravel()


def _kernel_weak_l2(k: int, decay: float, terms: int, fault: str | None = None) -> float:
    """Weak l^2 norm of a truncated kernel that dies on return, so that only one
    10^5-term kernel and its cached rearrangement are alive at a time."""
    kern = fractional_kernel(FractionalParams(k, decay), terms)
    if fault == "kernel":
        kern = add(kern, delta(1))  # the value at m = 1 becomes 2
    return weak_norm(kern, 2.0)


def check_weak_norm_threshold(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 1: weak-norm of the truncated fractional kernel.

    decay = 1/p gives exactly 1 at every truncation; decay < 1/p grows like
    M^{1/p - decay}.
    """
    worst = worst_div = 0.0
    for k in (1, 2, 3):
        for terms in (10, 10**3, 10**5):
            worst = max(worst, abs(_kernel_weak_l2(k, 0.5, terms, fault) - 1.0))
            expect = terms**0.1
            worst_div = max(worst_div, abs(_kernel_weak_l2(k, 0.4, terms) - expect) / expect)
    return (
        worst <= 1e-12 and worst_div <= 1e-9,
        f"max |w-1|={worst:.3e} (decay=1/p), max rel dev={worst_div:.3e} (decay<1/p)",
    )


def check_strong_norm_value(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 2: l^1 -> l^2 norm of the truncated cube operator vs zeta(2)^{1/2}.

    By the norm characterisation the truncated operator's norm is the l^2 norm
    of its truncated kernel.
    """
    value = lp_norm(fractional_kernel(FractionalParams(3, 1.0), 10**5), 2.0)
    target = math.sqrt(math.pi**2 / 6.0)
    err = abs(value - target)
    return err <= 2e-3, f"|{value:.10f} - {target:.10f}| = {err:.3e}"


def check_characterisation(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 3: delta extremality and the kernel-norm characterisation."""
    grid = TorusGrid(1, 64)
    window = centered_window(8)
    worst_delta = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        kern = _random_kernel(rng, span=4)
        m = catalog.kernel_multiplier(kern)
        out = apply_multiplier(m, delta(0), grid, window)
        recon = inverse_dft(sample_multiplier(m, grid), window)
        diff = _window_values(out, window) - _window_values(recon, window)
        worst_delta = max(worst_delta, float(np.hypot(diff.real, diff.imag).max()))
        # max weak-norm ratio over delta inputs; each gives a translate of k.
        target = weak_norm(kern, 2.0)
        best = 0.0
        for shift in range(-2, 3):
            img = apply_multiplier(m, delta(shift), grid, window)
            best = max(best, weak_norm(img, 2.0))
        worst_ratio = max(worst_ratio, abs(best - target))
    return (
        worst_delta <= 1e-12 and worst_ratio <= 1e-10,
        f"max entrywise dev={worst_delta:.3e}, max ratio dev={worst_ratio:.3e}",
    )


def check_weak_young(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 4: weak Young probe with the seminorm constant 2 at p=2, r=1.

    The empirical max of ||k*f||_{2,inf} / (||k||_{2,inf} ||f||_1) is reported;
    constant 1 is the conjectured sharp value but is probed, not asserted.
    """
    violations = 0
    max_ratio = 0.0
    for _ in range(500):
        k = _random_sequence(rng)
        f = _random_sequence(rng)
        lhs = weak_norm(convolve(k, f), 2.0)
        k_weak, f_l1 = weak_norm(k, 2.0), lp_norm(f, 1.0)
        if lhs > 2.0 * k_weak * f_l1 + 1e-12:
            violations += 1
        max_ratio = max(max_ratio, lhs / (k_weak * f_l1))
    return violations == 0, f"violations={violations}, empirical max ratio={max_ratio:.6f}"


def _band_symbol(rng: np.random.Generator) -> PdoSymbol:
    """Random symbol sum_{|u| <= 2} c_u(n) e^{2 pi i u xi}, band-limited in xi, with
    c_u(n) = a_u + b_u e^{2 pi i theta_u n} / (1 + |n|)."""
    coeffs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    thetas = rng.uniform(0.0, 1.0, 5)
    u = np.arange(-2, 3)

    def formula(n, xi):  # (K, 1) points, (N, 1) torus points -> (K, N)
        c = coeffs[:, 0] + coeffs[:, 1] * np.exp(2j * np.pi * thetas * n) / (1.0 + np.abs(n))
        return c @ np.exp(2j * np.pi * u[:, None] * xi[:, 0])

    return catalog._array_pdo(1, formula)


def check_conjugation(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 5: t_m = F^{-1} A* F for random band-limited pdo symbols."""
    grid = TorusGrid(1, 64)
    window = centered_window(8)
    worst = 0.0
    for _ in range(20):
        worst = max(worst, conjugation_residual(_band_symbol(rng), grid, window))
    return worst <= 1e-10, f"max residual={worst:.3e}"


def check_parseval_modulation(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 6: discrete Parseval and the modulation law, 1000 sequences."""
    grid = TorusGrid(1, 16)
    nodes = grid.nodes()[:, 0]
    worst = 0.0
    for _ in range(1000):
        f = _random_sequence(rng, span=6)
        F = dft(f, grid)
        f_l2 = lp_norm(f, 2.0)
        pars = abs(lq_torus_norm(F, 2.0) - f_l2) / max(f_l2, 1e-300)
        shift = int(rng.integers(-3, 4))
        G = dft(translate(f, shift), grid)
        mod = np.max(
            np.abs(G.values - np.exp(-2j * np.pi * shift * nodes) * F.values)
        )
        worst = max(worst, pars, float(mod))
    return worst <= 1e-12, f"max deviation={worst:.3e}"


def _seminorm_subset_oracle(f: LatticeSequence, p: float, r: float) -> float:
    """The seminorm's sup over every nonempty subset E of the support, one 0/1
    mask row per subset: exhaustive, with no sort and no prefix scan."""
    mags = f.magnitudes()
    masks = (np.arange(1, 1 << len(mags))[:, None] >> np.arange(len(mags))) & 1
    values = masks.sum(1) ** (1.0 / p - 1.0 / r) * (masks @ mags**r) ** (1.0 / r)
    return float(np.max(values, initial=0.0))


def check_seminorm_sandwich(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 7: seminorm sandwich plus the exhaustive-subset oracle."""
    worst_slack = 0.0
    for _ in range(1000):
        f = _random_sequence(rng, span=8, max_points=10)
        for p in (1.5, 2.0, 3.0):
            r = p / 2.0
            w = weak_norm(f, p)
            s = equivalent_seminorm(f, p, r)
            upper = (p / (p - r)) ** (1.0 / r) * w
            worst_slack = max(worst_slack, w - s, s - upper)
    worst_oracle = 0.0
    for _ in range(100):
        f = _random_sequence(rng, span=10, max_points=12)
        s = equivalent_seminorm(f, 2.0, 1.0)
        worst_oracle = max(
            worst_oracle, abs(s - _seminorm_subset_oracle(f, 2.0, 1.0))
        )
    return (
        worst_slack <= 1e-12 and worst_oracle <= 1e-12,
        f"max sandwich slack={worst_slack:.3e}, max oracle dev={worst_oracle:.3e}",
    )


def check_gohberg(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 8: Gohberg decay profile and singular-value tails."""
    grid = TorusGrid(1, 64)
    decay = catalog.inverse_distance_pdo()
    report = gohberg_decay(decay, TorusGrid(1, 8), list(range(65)))
    worst_d = max(
        abs(v - 1.0 / (1.0 + r)) for r, v in zip(report.radii, report.values)
    )
    window = Window(1, (-32,), (31,))
    sig_decay = singular_tail(pdo_matrix(decay, window, grid), 64)
    tail_ok = all(s < 0.05 for s in sig_decay[48:])
    sig_one = singular_tail(
        pdo_matrix(catalog.constant_one_pdo(), window, grid), 64
    )
    ones_ok = max(abs(s - 1.0) for s in sig_one) <= 1e-10
    return (
        worst_d == 0.0 and tail_ok and report.verdict == "consistent" and ones_ok,
        f"max d(R) dev={worst_d:.3e}, sigma_48..63 max="
        f"{max(sig_decay[48:]):.4f}, |sigma-1| max={max(abs(s - 1) for s in sig_one):.3e}",
    )


def check_cv_plateau(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 9: CV-passing symbols have plateauing l^2 section norms."""
    probe = centered_window(12)
    cv_grid = TorusGrid(1, 32)
    op_grid = TorusGrid(1, 256)
    ok = True
    notes = []
    for name in ("oscillating-decay", "smooth-decay"):
        sym = catalog.PDO_BUILTINS[name]()
        for rho in (0.0, 0.5):
            rep = cv_check(sym, rho, 2, 2, probe, cv_grid)
            if not rep.bounded:
                ok = False
                notes.append(f"{name} failed cv rho={rho}")
        norms = [
            opnorm_l2(pdo_matrix(sym, centered_window(r), op_grid))
            for r in (8, 16, 32, 64)
        ]
        increment = norms[-1] - norms[-2]
        if not increment < 0.05 * norms[-1]:
            ok = False
        notes.append(f"{name}: norms={['%.6f' % v for v in norms]}")
    bad = cv_check(catalog.coordinate_pdo(), 0.5, 2, 2, probe, cv_grid)
    if bad.bounded:
        ok = False
    notes.append(f"coordinate verdict={bad.verdict}")
    return ok, "; ".join(notes)


def check_classifier_coherence(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 10: thresholds flip at decay = 1/p; q=1 prediction agrees.

    The expected verdicts compare the exact values of the floats (Fraction),
    so lam = 1.0/p, which rounds above or below 1/p, is held to its side.
    """
    ok = True
    ps = np.linspace(1.2, 5.0, 20)
    for p in ps:
        p = float(p)
        lams = sorted(
            set(
                [1.0 / p, min(1.0 / p + 1e-9, 0.999), max(1.0 / p - 1e-9, 1e-3)]
                + list(np.linspace(0.05, 0.95, 17))
            )
        )[:20]
        for lam in lams:
            v = classify_weak_and_strong(FractionalParams(2, lam), p)
            lam_p = Fraction(lam) * Fraction(p)
            if v.weak_1p != (lam_p >= 1) or v.strong_1p != (lam_p > 1):
                ok = False
            if v.strong_1p and not v.weak_1p:
                ok = False
            if 0 < lam < 1:
                for k in (1, 2, 3):
                    if classify_conjecture1(p, 1.0, lam, k) != v.strong_1p:
                        ok = False
    return ok, "thresholds and q=1 agreement verified on 20x20 grid, k in {1,2,3}"


def check_kstar_parseval(rng: np.random.Generator, fault: str | None) -> Measurement:
    """Criterion 11: K* probe reproduces the Parseval value in the q=2 case."""
    terms = 50
    probe = kstar_norm_probe(1, 0.8, terms)
    m = np.arange(1, terms + 1, dtype=np.float64)
    parseval = math.sqrt(float(np.sum(m ** (-1.6))))
    err = abs(probe - parseval)
    return err <= 1e-10, f"|{probe:.12f} - {parseval:.12f}| = {err:.3e}"


# run_all calls CRITERIA[i] at the time of the call, so a harness may swap an
# entry for a wrapper of the same call signature.
CRITERIA: list[Callable[[np.random.Generator, str | None], Measurement]] = [
    check_weak_norm_threshold,
    check_strong_norm_value,
    check_characterisation,
    check_weak_young,
    check_conjugation,
    check_parseval_modulation,
    check_seminorm_sandwich,
    check_gohberg,
    check_cv_plateau,
    check_classifier_coherence,
    check_kstar_parseval,
]

# (name, tolerance, runtime bound in seconds or None) of each entry of CRITERIA.
_LABELS: list[tuple[str, str, float | None]] = [
    ("weak-norm threshold of fractional kernels", "1e-12 / 1e-9 / runtime<5s", 5.0),
    ("strong-norm value vs zeta(2)^{1/2}", "2e-3 / runtime<5s", 5.0),
    ("characterisation: delta extremality and norm equality", "1e-12 / 1e-10", None),
    ("weak Young inequality probe", "ratio <= 2 with zero violations", None),
    ("conjugation identity residual", "1e-10 / runtime<10s", 10.0),
    ("Parseval and modulation invariants", "1e-12", None),
    ("seminorm sandwich and subset oracle", "slack >= -1e-12 / oracle 1e-12", None),
    ("Gohberg decay and singular tails", "exact / <0.05 / 1e-10", None),
    ("Calderon-Vaillancourt plateau", "final increment < 5%; failing symbol flagged", None),
    ("classifier threshold coherence", "exact boolean agreement", None),
    ("K* probe Parseval cross-check (q=2)", "1e-10", None),
]


def run_all(fault: str | None = None, seed: int = 42) -> list[CheckResult]:
    """Run every criterion on a fresh `default_rng(seed)`; a criterion with a
    runtime bound fails past it and reports its elapsed time."""
    results = []
    for i, (name, tolerance, bound) in enumerate(_LABELS):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        passed, measured = CRITERIA[i](rng, fault)
        elapsed = time.perf_counter() - t0
        if bound is not None:
            passed = passed and elapsed < bound
            measured += f", {elapsed:.2f}s"
        results.append(CheckResult(i + 1, name, bool(passed), measured, tolerance, elapsed))
    return results
