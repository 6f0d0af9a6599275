"""Fourier multipliers and pseudo-differential operators on the integer lattice.

Numerical toolkit for multipliers on Z^n and their kernels: strong and weak
sequence norms, discrete fractional integral operators with closed-form
boundedness thresholds, symbol-class and compactness diagnostics, and a CLI
with a verification suite for the exact identities behind them.
"""

from .fractional import (
    FractionalParams,
    apply_fractional,
    classify_conjecture1,
    classify_weak_and_strong,
    fractional_kernel,
    kstar_norm_probe,
    strong_norm_closed_form,
    symbol_partial_sum,
    weak_norm_closed_form,
)
from .lattice import (
    LatticeSequence,
    Window,
    box,
    centered_window,
    convolve,
    delta,
    sequence,
    translate,
)
from .norms import distribution, equivalent_seminorm, lp_norm, weak_norm
from .operators import (
    MultiplierSymbol,
    OperatorMatrix,
    PdoSymbol,
    apply_multiplier,
    apply_pdo,
    conjugation_residual,
    opnorm_l1_lp,
    opnorm_l1_weakp,
    opnorm_l2,
    pdo_matrix,
)
from .symbols import (
    class_check,
    cv_check,
    gohberg_decay,
    singular_tail,
)
from .torus import TorusGrid, TorusSamples, dft, inverse_dft, lq_torus_norm

__version__ = "0.1.0"
