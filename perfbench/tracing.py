"""Spans around latmult's layers, installed from outside the library.

A traced run replaces each listed public function at every module attribute
that holds it (the defining module, the modules that import it, and the
package namespace), so calls that latmult makes internally become child
spans of the caller.  Spans stay in memory as lists
[name, start, end, parent, job, covered], where `covered` is the time of the
span's direct children, and are written as JSONL when the run ends.

Symbol evaluations are too many to keep one span each: they are counted and
timed in aggregate under catalog.symbol_eval, and their time is added to the
enclosing span's covered time so its self time excludes them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

from oracles import power_range

MB = 1024.0 * 1024.0


def _points(f):
    return [("norms.points", len(f))]


def _shifts(params, f, out):
    k, lo, hi = params.power, out.lo[0], out.hi[0]
    total = 0
    for (s,) in f.entries:
        a, b = power_range(s, k, lo, hi)
        total += max(0, b - a + 1)
    return [("fractional.apply_fractional.shifts", total)]


# (module, function, span name, work counts computed from the arguments,
#  size key for the tracemalloc peak).  tracemalloc slows every allocation
#  while it runs, so the peak is taken once per distinct size key: the calls
#  are deterministic in their sizes, and the other calls keep clean times.
TARGETS = [
    ("lattice", "convolve", "lattice.convolve",
     lambda f, g: [("lattice.convolve.pairs", len(f) * len(g))], None),
    ("lattice", "sequence", "lattice.sequence", None, None),
    ("lattice", "save_jsonl", "lattice.jsonl", None, None),
    ("lattice", "load_jsonl", "lattice.jsonl", None, None),
    ("torus", "dft", "torus.dft",
     lambda f, grid: [("torus.dft.phase_entries", grid.node_count * len(f))],
     lambda f, grid: (len(f), grid.dim, grid.resolution)),
    ("torus", "inverse_dft", "torus.inverse_dft",
     lambda F, window: [("torus.inverse_dft.phase_entries",
                         F.grid.node_count * window.cardinality)],
     lambda F, window: (F.grid.dim, F.grid.resolution, window.cardinality)),
    ("torus", "save_csv", "torus.csv", None, None),
    ("torus", "load_csv", "torus.csv", None, None),
    ("norms", "lp_norm", "norms.lp_norm", lambda f, p: _points(f), None),
    ("norms", "weak_norm", "norms.weak_norm", lambda f, p: _points(f), None),
    ("norms", "equivalent_seminorm", "norms.equivalent_seminorm",
     lambda f, p, r=None: _points(f), None),
    ("fractional", "fractional_kernel", "fractional.fractional_kernel",
     lambda params, max_m: [("fractional.fractional_kernel.terms", max_m)], None),
    ("fractional", "apply_fractional", "fractional.apply_fractional", _shifts, None),
    ("fractional", "symbol_partial_sum", "fractional.symbol_partial_sum",
     lambda params, terms, grid: [("fractional.symbol_partial_sum.phase_entries",
                                   grid.node_count * terms)], None),
    ("fractional", "kstar_norm_probe", "fractional.kstar_norm_probe", None, None),
    ("operators", "sample_multiplier", "operators.sample_multiplier", None, None),
    ("operators", "apply_multiplier", "operators.apply_multiplier", None, None),
    ("operators", "opnorm_l1_weakp", "operators.opnorm_l1", None, None),
    ("operators", "opnorm_l1_lp", "operators.opnorm_l1", None, None),
    ("operators", "pdo_matrix", "operators.pdo_matrix",
     lambda a, window, grid, cap=None: [("operators.pdo_matrix.entries",
                                         window.cardinality ** 2)],
     lambda a, window, grid, cap=None: (window.cardinality, grid.dim, grid.resolution)),
    ("operators", "apply_pdo", "operators.apply_pdo", None, None),
    ("operators", "opnorm_l2", "operators.opnorm_l2", None, None),
    ("operators", "conjugation_residual", "operators.conjugation_residual", None, None),
    ("symbols", "singular_tail", "symbols.singular_tail",
     lambda A, count, tol=None, max_iter=None: [("symbols.singular_tail.values", count)],
     None),
    ("symbols", "gohberg_decay", "symbols.gohberg_decay", None, None),
    ("symbols", "cv_check", "symbols.cv_check", None, None),
]

CATALOG_FACTORIES = [
    "identity_multiplier", "modulation_multiplier", "kernel_multiplier",
    "fractional_multiplier", "inverse_distance_pdo", "constant_one_pdo",
    "oscillating_decay_pdo", "smooth_decay_pdo", "coordinate_pdo",
]
CLI_COMMANDS = [
    "apply", "kernel", "norm", "opnorm", "classify", "scan", "kstar",
    "gohberg", "spectrum", "verify",
]
CRITERIA = 11

# Per-layer metric names and units, in BENCHMARK.json order.
SELF = [
    "lattice.convolve", "lattice.sequence", "lattice.jsonl",
    "torus.dft", "torus.inverse_dft", "torus.csv",
    "norms.lp_norm", "norms.weak_norm", "norms.equivalent_seminorm",
    "fractional.fractional_kernel", "fractional.apply_fractional",
    "fractional.symbol_partial_sum", "fractional.kstar_norm_probe",
    "catalog.symbol_eval",
    "operators.sample_multiplier", "operators.apply_multiplier",
    "operators.opnorm_l1", "operators.pdo_matrix", "operators.apply_pdo",
    "operators.opnorm_l2", "operators.conjugation_residual",
    "symbols.singular_tail", "symbols.gohberg_decay", "symbols.cv_check",
]
COUNTS = [
    "lattice.convolve.pairs", "torus.dft.phase_entries",
    "torus.inverse_dft.phase_entries", "norms.points",
    "fractional.fractional_kernel.terms", "fractional.apply_fractional.shifts",
    "fractional.symbol_partial_sum.phase_entries", "catalog.symbol_eval.calls",
    "operators.pdo_matrix.entries", "symbols.singular_tail.values",
]
PEAKS = ["torus.dft", "torus.inverse_dft", "operators.pdo_matrix"]
TOTALS = [f"verification.criterion_{i}" for i in range(1, CRITERIA + 1)] + [
    f"cli.{c}" for c in CLI_COMMANDS
]


def metric_units() -> dict[str, str]:
    units = {f"{n}.self_s": "s" for n in SELF}
    units.update({n: "count" for n in COUNTS})
    units.update({f"{n}.peak_mb": "MB" for n in PEAKS})
    units.update({f"{n}.s": "s" for n in TOTALS})
    return units


class NullTracer:
    """Untraced runs: spans cost one extra call around CLI invocations only."""

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_job(self, job: int) -> None:
        pass


class _Traced:
    """Callable stand-in for a latmult function that records a span per call.

    It carries the original's __code__ because verification.run_all reads
    fn.__code__ to decide which criteria receive the seed.
    """

    def __init__(self, tracer, name, fn, work=None, peak_key=None):
        self.tracer, self.name, self.fn = tracer, name, fn
        self.work, self.peak_key = work, peak_key
        self.sig = inspect.signature(fn) if work or peak_key else None
        self.peaked: set = set()
        self.__wrapped__ = fn
        self.__code__ = fn.__code__
        self.__name__ = fn.__name__
        self.__doc__ = fn.__doc__

    def __call__(self, *args, **kwargs):
        t = self.tracer
        measure = False
        if self.sig is not None:
            bound = self.sig.bind(*args, **kwargs).arguments
            for key, n in self.work(**bound) if self.work else ():
                t.counts[key] += n
            if self.peak_key is not None and not tracemalloc.is_tracing():
                size = self.peak_key(**bound)
                measure = size not in self.peaked
                self.peaked.add(size)
        if measure:
            tracemalloc.start()
        idx = t.open(self.name)
        try:
            return self.fn(*args, **kwargs)
        finally:
            t.close(idx)
            if measure:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                t.peaks[self.name] = max(t.peaks[self.name], peak)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.eval_time = 0.0
        self.eval_depth = 0
        self.job = -1
        self._undo: list = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def call(self, name, fn, *args):
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def begin_job(self, job: int) -> None:
        self.job = job

    def counted(self, fn):
        """Wrap a symbol evaluator so its calls are counted and timed."""

        def ev(*args):
            if self.eval_depth:
                return fn(*args)
            self.eval_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                d = perf_counter() - t0
                self.eval_depth -= 1
                self.counts["catalog.symbol_eval.calls"] += 1
                self.eval_time += d
                if self.stack:
                    self.spans[self.stack[-1]][5] += d

        return ev

    def counted_symbol(self, sym):
        return dataclasses.replace(sym, eval=self.counted(sym.eval))

    # -- installation ----------------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "latmult" or n.startswith("latmult."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))

    def install(self, lm, symbols: dict) -> None:
        """Wrap latmult's layers and the symbols the workload passes in."""
        for modname, fname, span, work, peak_key in TARGETS:
            mod = getattr(lm, modname)
            original = getattr(mod, fname)
            self._replace_everywhere(
                original, _Traced(self, span, original, work, peak_key)
            )
        verification = lm.verification
        for i, fn in enumerate(list(verification.CRITERIA)):
            wrapped = _Traced(self, f"verification.criterion_{i + 1}", fn)
            self._replace_everywhere(fn, wrapped)
            verification.CRITERIA[i] = wrapped
            self._undo.append((verification.CRITERIA.__setitem__, i, fn))
        catalog = lm.catalog
        for fname in CATALOG_FACTORIES:
            original = getattr(catalog, fname)

            def make(*args, _orig=original, **kwargs):
                return self.counted_symbol(_orig(*args, **kwargs))

            self._replace_everywhere(original, make)
            for key, value in list(catalog.PDO_BUILTINS.items()):
                if value is original:
                    catalog.PDO_BUILTINS[key] = make
                    self._undo.append((catalog.PDO_BUILTINS.__setitem__, key, original))
        for key, sym in list(symbols.items()):
            symbols[key] = self.counted_symbol(sym)

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- results -----------------------------------------------------------------
    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-pass self times, totals and counts; peaks are maxima over calls."""
        self_s = defaultdict(float)
        total = defaultdict(float)
        for name, start, end, _parent, _job, covered in self.spans:
            total[name] += end - start
            self_s[name] += end - start - covered
        self_s["catalog.symbol_eval"] = self.eval_time
        out = {}
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name] / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        for name in PEAKS:
            out[f"{name}.peak_mb"] = self.peaks[name]
        for name in TOTALS:
            out[f"{name}.s"] = total[name] / passes
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, _covered) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")
