"""Command-line front end.

Subcommands: apply, kernel, norm, opnorm, classify, scan, kstar, gohberg,
spectrum, verify.  Exit codes: 0 success, 1 verification failure, 2 argument
or parse errors, 3 contract violations (the aliasing certificate of `apply
--symbol grid-file`), 4 unwritable output.  `apply` runs the identity and
modulation symbols as exact translations and the fractional one on its
kernel; the grid of `--grid-res` shapes only grid-file.  `opnorm` gives the
norms of the multiplier's kernel; its `--grid-res` and `--window-radius` are
checked and have no effect.  All output is deterministic given flags and
seed; floats are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import catalog
from .fractional import (
    FractionalParams,
    apply_fractional,
    classify_conjecture1,
    classify_weak_and_strong,
    fractional_kernel,
    kstar_norm_probe,
    strong_norm_closed_form,
    weak_norm_closed_form,
    zeta,
)
from .lattice import (
    Window,
    box,
    centered_window,
    check_budget,
    load_jsonl,
    restrict,
    save_jsonl,
    translate,
)
from .norms import equivalent_seminorm, lp_norm, weak_norm
from .operators import opnorm_l1_lp, opnorm_l1_weakp, pdo_matrix
from .symbols import gohberg_decay, singular_tail
from .torus import TorusGrid, TorusSamples, alias_free, dft, inverse_dft, load_csv
from .verification import run_all


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_window(spec: str, dim: int) -> Window:
    parts = spec.split(",")
    if len(parts) != dim:
        raise ValueError(f"window {spec!r} does not match dim {dim}")
    lo, hi = [], []
    for part in parts:
        a, b = part.split(":")
        lo.append(int(a))
        hi.append(int(b))
    return box(tuple(lo), tuple(hi))


def _norm_summary(f) -> dict:
    return {
        "l1": _fmt(lp_norm(f, 1.0)),
        "l2": _fmt(lp_norm(f, 2.0)),
        "weak_l2": _fmt(weak_norm(f, 2.0)),
        "support": len(f),
    }


def _write_text(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _check_file_out(path: str) -> None:
    """apply and kernel print their JSON summary on stdout, so --out is a file."""
    if path == "-":
        raise ValueError("--out - is not allowed here: the summary goes to stdout; give a file")


def _load_input(path):
    try:
        return load_jsonl(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot read input: {exc}") from None


def _pdo_builtin(name: str):
    if name not in catalog.PDO_BUILTINS:
        choices = sorted(catalog.PDO_BUILTINS)
        raise ValueError(f"unknown symbol {name!r}; choose from {choices}")
    return catalog.PDO_BUILTINS[name]()


def _save(write, value, path) -> int:
    """write(value, path); exit code 0, or 4 when the output is unwritable."""
    try:
        write(value, path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_apply(args) -> int:
    _check_file_out(args.out)
    f = _load_input(args.input)
    window = _parse_window(args.window, f.dim)
    if args.symbol == "fractional":
        params = FractionalParams(args.k, args.lam, args.gamma)
        out = apply_fractional(params, f, window)
    elif args.symbol == "grid-file":
        grid = TorusGrid(f.dim, args.grid_res)
        if args.symbol_file is None:
            raise ValueError("--symbol grid-file needs --symbol-file")
        try:
            samples = load_csv(args.symbol_file)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read symbol file: {exc}") from None
        if samples.grid != grid:
            raise ValueError("symbol grid does not match the input")
        if not alias_free(f.idx, grid.resolution, window):
            msg = f"support and window collide mod {grid.resolution}"
            print(f"error: aliasing certificate failed: {msg}", file=sys.stderr)
            return 3
        F = dft(f, grid)
        out = inverse_dft(TorusSamples(grid, samples.values * F.values), window)
    else:
        TorusGrid(1, args.grid_res)  # checks --grid-res, which only grid-file uses
        # e^{-2 pi i xi.a} has the kernel delta_a: t_m f is f translated by a, exactly
        if args.symbol == "identity":
            shift = (0,) * f.dim
        else:
            shift = tuple(int(c) for c in args.shift.split(","))
        out = restrict(translate(f, shift), window)
    rc = _save(save_jsonl, out, args.out)
    if rc == 0:
        print(json.dumps({"output": args.out, "norms": _norm_summary(out)}))
    return rc


def cmd_kernel(args) -> int:
    _check_file_out(args.out)
    params = FractionalParams(args.k, args.lam, args.gamma)
    kern = fractional_kernel(params, args.max_m)
    rc = _save(save_jsonl, kern, args.out)
    if rc == 0:
        print(json.dumps({"output": args.out, "norms": _norm_summary(kern)}))
    return rc


def cmd_norm(args) -> int:
    f = _load_input(args.input)
    result = {
        "p": _fmt(args.p),
        "lp": _fmt(lp_norm(f, args.p)),
        "weak": _fmt(weak_norm(f, args.p)),
        "seminorm": _fmt(equivalent_seminorm(f, args.p, args.r)),
    }
    print(json.dumps(result))
    return 0


def cmd_opnorm(args) -> int:
    if args.symbol == "fractional":
        params = FractionalParams(args.k, args.lam, args.gamma)
        m = catalog.fractional_multiplier(params, args.terms)
    elif args.symbol == "identity":
        m = catalog.identity_multiplier(1)
    else:
        shift = tuple(int(c) for c in args.shift.split(","))
        m = catalog.modulation_multiplier(shift)
    # --grid-res and --window-radius are checked but unused: the norms are the kernel's
    grid = TorusGrid(1, args.grid_res)
    window = centered_window(args.window_radius, m.dim)
    weak = opnorm_l1_weakp(m, args.p, grid, window)
    strong = opnorm_l1_lp(m, args.p, grid, window)
    result = {
        "p": _fmt(args.p),
        "l1_to_weak_lp": _fmt(weak.value),
        "l1_to_lp": _fmt(strong.value),
        "certified": weak.certified and strong.certified,
        "discarded_mass": _fmt(weak.discarded_mass),
    }
    print(json.dumps(result))
    return 0


def cmd_classify(args) -> int:
    params = FractionalParams(args.k, args.lam, args.gamma)
    verdict = classify_weak_and_strong(params, args.p)
    wn = weak_norm_closed_form(params, args.p)
    sn = strong_norm_closed_form(params, args.p)
    result = {
        "k": args.k,
        "lambda": _fmt(args.lam),
        "gamma": _fmt(args.gamma),
        "p": _fmt(args.p),
        "weak_1p": verdict.weak_1p,
        "strong_1p": verdict.strong_1p,
        "weak_norm": None if wn.divergent else _fmt(wn.value),
        "weak_norm_divergent": wn.divergent,
        "strong_norm": None if sn.divergent else _fmt(sn.value),
        "strong_norm_divergent": sn.divergent,
    }
    if args.q is not None:
        result["q"] = _fmt(args.q)
        result["predicted_bounded"] = classify_conjecture1(
            args.p, args.q, args.lam, args.k
        )
    print(json.dumps(result))
    return 0


def _parse_range(spec: str) -> list[float]:
    """Either a comma list '0.2,0.5' or 'start:stop:count'; every value finite."""
    if ":" in spec:
        a, b, n = spec.split(":")
        check_budget(int(n), "range values")
        with np.errstate(all="ignore"):  # a value that is not finite is refused below
            values = [float(x) for x in np.linspace(float(a), float(b), int(n))]
    else:
        values = [float(x) for x in spec.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"range {spec!r} holds a value that is not finite")
    return values


def _scan_cell(k: int, lam: float, gamma: float, p: float, q: float, terms: int) -> str:
    """One CSV row of the scan: the kernel norms and the verdicts.

    The weak norm is the truncated kernel's (rearrangement j^{-lam}); the
    strong norm is the full kernel's when finite, else the truncated one's.
    """
    params = FractionalParams(k, lam, gamma)
    verdict = classify_weak_and_strong(params, p)
    wk = max(1.0, terms ** (1.0 / p - lam))
    sn = strong_norm_closed_form(params, p)
    st = zeta(lam * p, terms) ** (1.0 / p) if sn.divergent else sn.value
    if 1.0 <= q < p and 0 < lam < 1:
        predicted = classify_conjecture1(p, q, lam, k)
    else:
        predicted = verdict.strong_1p
    flags = ["finite" if v else "divergent" for v in (verdict.weak_1p, verdict.strong_1p)]
    nums = [str(k), _fmt(lam), _fmt(gamma), _fmt(p), _fmt(q), str(terms), _fmt(wk), _fmt(st)]
    return ",".join(nums + flags + ["true" if predicted else "false"])


# scan's defaults, and the only keys its --config file may set
_SCAN_DEFAULTS = {"k_list": "1,2,3", "lam_range": "0.2:0.9:8", "p_range": "1.5:3:4"}


def _load_config(path) -> dict:
    """`key = value` lines; blank lines and lines starting with # are skipped."""
    cfg = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in _SCAN_DEFAULTS:
                raise ValueError(f"config line {number} is not `key = value` with a key "
                                 f"in {sorted(_SCAN_DEFAULTS)}: {line!r}")
            cfg[key] = value
    return cfg


def cmd_scan(args) -> int:
    cfg = {}
    if args.config:
        try:
            cfg = _load_config(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from None
    # a flag wins over a config value, which wins over the default; "" is no default
    spec = dict(_SCAN_DEFAULTS)
    for key, default in spec.items():
        flag = getattr(args, key)
        spec[key] = cfg.get(key, default) if flag is None else flag
    if not 1 <= args.terms <= sys.float_info.max:
        raise ValueError(f"terms must be >= 1 and at most the largest float, got {args.terms}")
    if not math.isfinite(args.q):
        raise ValueError(f"q must be finite, got {args.q}")
    ks = [int(x) for x in spec["k_list"].split(",")]
    lams = _parse_range(spec["lam_range"])
    ps = _parse_range(spec["p_range"])
    check_budget(len(ks) * len(lams) * len(ps), "scan cells")
    cells = list(itertools.product(ks, lams, ps))[max(args.start_cell, 0):]
    lines = [
        "k,lambda,gamma,p,q,M,weak_norm,strong_norm,weak_flag,strong_flag,predicted_bounded"
    ]
    lines += [_scan_cell(k, lam, args.gamma, p, args.q, args.terms) for k, lam, p in cells]
    return _save(_write_text, "\n".join(lines) + "\n", args.out)


def cmd_kstar(args) -> int:
    terms_list = [int(x) for x in args.terms_list.split(",")]
    lines = ["k,lambda,M,l2k_norm"]
    for terms in terms_list:
        value = kstar_norm_probe(args.k, args.lam, terms)
        lines.append(f"{args.k},{_fmt(args.lam)},{terms},{_fmt(value)}")
    return _save(_write_text, "\n".join(lines) + "\n", args.out)


def cmd_gohberg(args) -> int:
    grid = TorusGrid(1, args.grid_res)
    radii = range(args.max_radius + 1)
    report = gohberg_decay(_pdo_builtin(args.symbol), grid, radii, tolerance=args.tolerance)
    lines = ["radius,decay"]
    for r, v in zip(report.radii, report.values):
        lines.append(f"{r},{_fmt(v)}")
    lines.append(f"# verdict={report.verdict}")
    return _save(_write_text, "\n".join(lines) + "\n", args.out)


def cmd_spectrum(args) -> int:
    grid = TorusGrid(1, args.grid_res)
    window = centered_window(args.window_radius)
    A = pdo_matrix(_pdo_builtin(args.symbol), window, grid)
    values = singular_tail(A, args.count)
    lines = ["index,singular_value"]
    for i, v in enumerate(values):
        lines.append(f"{i},{_fmt(v)}")
    return _save(_write_text, "\n".join(lines) + "\n", args.out)


def cmd_verify(args) -> int:
    results = run_all(fault=args.inject_fault, seed=args.seed)
    if args.format == "json":
        rows = [asdict(r) for r in results]
        print(json.dumps(rows, indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} criterion {r.criterion}: {r.name} "
                f"[{r.measured}] (tolerance: {r.tolerance})"
            )
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; do not modify it.

    argparse keeps no parse state on a parser: each parse_args returns a fresh
    Namespace, so main() can be called any number of times in-process.
    """
    parser = argparse.ArgumentParser(
        prog="latmult",
        description="Fourier multipliers and pseudo-differential operators on Z^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def frac_opts(p):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--lam", type=float, default=0.5)
        p.add_argument("--gamma", type=float, default=0.0)

    p = sub.add_parser("apply", help="apply an operator to a sequence file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--symbol",
        default="identity",
        choices=["identity", "modulation", "fractional", "grid-file"],
    )
    p.add_argument("--symbol-file")
    p.add_argument("--shift", default="1")
    p.add_argument("--grid-res", type=int, default=64,
                   help="grid resolution M; the grid shapes only --symbol grid-file")
    p.add_argument("--window", default="-16:16")
    frac_opts(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("kernel", help="write a truncated fractional kernel")
    frac_opts(p)
    p.add_argument("--max-m", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("norm", help="norms of a sequence file")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("opnorm", help="l^1-source operator norms of a multiplier")
    p.add_argument(
        "--symbol",
        default="fractional",
        choices=["fractional", "identity", "modulation"],
    )
    p.add_argument("--shift", default="1")
    frac_opts(p)
    p.add_argument("--terms", type=int, default=100)
    p.add_argument("--p", type=float, default=2.0)
    no_effect = "no effect: the norms are those of the multiplier's kernel"
    p.add_argument("--grid-res", type=int, default=256, help=no_effect)
    p.add_argument("--window-radius", type=int, default=16, help=no_effect)
    p.set_defaults(func=cmd_opnorm)

    p = sub.add_parser("classify", help="boundedness classification")
    frac_opts(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="parameter grid scan to CSV")
    p.add_argument("--config")
    p.add_argument("--k-list")
    p.add_argument("--lam-range")
    p.add_argument("--p-range")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--terms", type=int, default=1000)
    p.add_argument("--start-cell", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("kstar", help="Hypothesis-K* L^{2k} norm probe")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--lam", type=float, default=0.8)
    p.add_argument("--terms-list", default="10,20,50")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_kstar)

    p = sub.add_parser("gohberg", help="symbol decay profile at infinity")
    p.add_argument("--symbol", default="inverse-distance")
    p.add_argument("--grid-res", type=int, default=16)
    p.add_argument("--max-radius", type=int, default=32)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gohberg)

    p = sub.add_parser("spectrum", help="top singular values of a finite section")
    p.add_argument("--symbol", default="inverse-distance")
    p.add_argument("--grid-res", type=int, default=64)
    p.add_argument("--window-radius", type=int, default=16)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--inject-fault", default=None, choices=[None, "kernel"])
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
