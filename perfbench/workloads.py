"""The four workloads: seeded inputs, one job, and the oracle checks per job.

Each workload builds its inputs once per set-up with latmult's constructors
(`lm` is the freshly imported package), then a pass replays the same list of
jobs.  A job is one fixed recipe of latmult calls on its own seeded inputs,
so job times measure one kind of task.  `run` holds only latmult calls and
is timed; `check` compares the results with `oracles` afterwards, untimed.
Every check is one operation in `attempted`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from types import SimpleNamespace as NS

import numpy as np

import oracles as O


class Ops:
    """Operations attempted and failed; a failure outside the known faults
    makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def check(self, name: str, ok, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(name)


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _sparse(lm, rng, lo: int, hi: int, count: int):
    """Sequence on `count` distinct seeded points of [lo, hi) with normal values."""
    pts = rng.choice(hi - lo, count, replace=False) + lo
    vals = _complex_normal(rng, count)
    return lm.sequence(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def _arrays(f):
    """(points, values) of a 1-D sequence, read from its public entries."""
    pts = [n for (n,) in f.entries]
    return pts, [f.entries[(n,)] for n in pts]


# ---------------------------------------------------------------------------
class KernelSparse:
    """Kernel-side fractional operators on sparse inputs and long windows.

    Loads lattice, fractional and norms only: no torus grid and no symbol.
    The output windows are chosen so that m runs to about 1000 for every k.
    """

    name = "kernel-sparse"
    jobs_per_pass = 10
    min_jobs = 80
    tail_pct = 87.5
    LAM = 0.5
    TERMS = 10**5
    HI = {1: 10**3, 2: 10**6, 3: 10**9}
    POINTS = 10
    CONV = 100
    SPAN = 10**6

    def setup(self, lm, rng, workdir):
        gam = float(rng.uniform(0.0, 1.0))
        params = {k: lm.FractionalParams(k, self.LAM, gam) for k in self.HI}
        kernels = {k: lm.fractional_kernel(params[k], self.TERMS) for k in self.HI}
        windows = {k: lm.box(0, hi) for k, hi in self.HI.items()}
        jobs = []
        for i in range(self.jobs_per_pass):
            f = {k: _sparse(lm, rng, 0, hi // 10, self.POINTS) for k, hi in self.HI.items()}
            a = _sparse(lm, rng, -self.SPAN, self.SPAN, self.CONV)
            b = _sparse(lm, rng, -self.SPAN, self.SPAN, self.CONV)
            jobs.append(NS(f=f, a=a, b=b, k=i % 3 + 1, p=float(rng.uniform(1.25, 1.9))))
        return NS(jobs=jobs, symbols={}, gam=gam, params=params, kernels=kernels,
                  windows=windows)

    def run(self, lm, st, job, tr):
        outs = {k: lm.apply_fractional(st.params[k], job.f[k], st.windows[k])
                for k in self.HI}
        out_norms = {k: (lm.lp_norm(o, 2.0), lm.weak_norm(o, 2.0),
                         lm.equivalent_seminorm(o, 2.0)) for k, o in outs.items()}
        conv = lm.convolve(job.a, job.b)
        K, p = st.kernels[job.k], job.p
        kern = (lm.lp_norm(K, p), lm.weak_norm(K, 1.0 / self.LAM), lm.weak_norm(K, p),
                lm.equivalent_seminorm(K, p))
        return NS(outs=outs, out_norms=out_norms, conv=conv, kern=kern)

    def check(self, st, job, res, ops):
        for k, hi in self.HI.items():
            pts, vals = _arrays(job.f[k])
            want = O.fractional_apply(pts, vals, k, self.LAM, st.gam, 0, hi)
            ops.check(f"apply_fractional k={k}", O.close(res.outs[k].entries, want, 1e-12))
            lp2, w2, s2 = res.out_norms[k]
            ops.check(f"output norms k={k}",
                      O.rel(lp2, O.lp(want.values(), 2.0)) <= 1e-11
                      and O.rel(w2, O.weak(want.values(), 2.0)) <= 1e-11
                      and O.sandwich(w2, s2, 2.0, 1.0))
        ia, va = _arrays(job.a)
        ib, vb = _arrays(job.b)
        ops.check("convolve", O.close(res.conv.entries, O.sparse_convolve(ia, va, ib, vb),
                                      1e-12))
        lp, w_crit, w_below, semi = res.kern
        p = job.p
        ops.check("lp_norm^p = partial zeta",
                  O.rel(lp**p, O.partial_zeta(self.LAM * p, self.TERMS)) <= 1e-11)
        ops.check("weak_norm = 1 at lam = 1/p", abs(w_crit - 1.0) <= 1e-12)
        ops.check("weak_norm = T^(1/p - lam)",
                  O.rel(w_below, self.TERMS ** (1.0 / p - self.LAM)) <= 1e-9)
        ops.check("kernel seminorm sandwich", O.sandwich(w_below, semi, p, p / 2.0))


# ---------------------------------------------------------------------------
class MultiplierDense:
    """Frequency-side multipliers on compact dense inputs in dimensions 1 and 2.

    All windows satisfy the aliasing contract.  The two k=3 fractional-symbol
    operations use fixed inputs and fail while the symbols form the phase as
    the float m^k * xi (drift ~1e-8 against phases reduced mod M).
    """

    name = "multiplier-dense"
    jobs_per_pass = 16
    min_jobs = 80
    tail_pct = 87.5
    R1, M1 = 20, 128
    R2, M2 = 6, 40
    FRAC_TERMS = {1: 25, 2: 5}
    OPN_TERMS, OPN_RADIUS, OPN_M = 8, 64, 512
    SPS_TERMS = 40
    KSTAR1_TERMS = 50
    K3_TERMS, K3_M = 400, 1024

    def setup(self, lm, rng, workdir):
        cat = lm.catalog
        st = NS(
            g1=lm.TorusGrid(1, self.M1), g2=lm.TorusGrid(2, self.M2),
            g_opn=lm.TorusGrid(1, self.OPN_M),
            g_sps=lm.TorusGrid(1, 2 * self.SPS_TERMS**2),
            g_k1=lm.TorusGrid(1, 2 * self.KSTAR1_TERMS),
            g_k3=lm.TorusGrid(1, self.K3_M),
            w1=lm.centered_window(self.R1), w_mod=lm.centered_window(self.R1 + 10),
            w_ker1=lm.centered_window(self.R1 + 4), w_ker2=lm.centered_window(self.R2 + 2, 2),
            w_frac=lm.box(-self.R1, self.R1 + 25), w_opn=lm.centered_window(self.OPN_RADIUS),
            k3=lm.FractionalParams(3, 0.5),
            symbols={"k3": cat.fractional_multiplier(lm.FractionalParams(3, 0.5),
                                                     self.K3_TERMS)},
            jobs=[],
        )
        r1, r2 = self.R1, self.R2
        for i in range(self.jobs_per_pass):
            f1 = lm.sequence(1, {(n,): complex(v) for n, v in
                                 zip(range(-r1, r1 + 1), _complex_normal(rng, 2 * r1 + 1))})
            pts2 = [(a, b) for a in range(-r2, r2 + 1) for b in range(-r2, r2 + 1)]
            f2 = lm.sequence(2, dict(zip(pts2, map(complex, _complex_normal(rng, len(pts2))))))
            shift = int(rng.choice([s for s in range(-10, 11) if s]))
            kk1 = lm.sequence(1, {(n,): complex(v) for n, v in
                                  zip(range(-4, 5), _complex_normal(rng, 9))})
            pk2 = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
            kk2 = lm.sequence(2, dict(zip(pk2, map(complex, _complex_normal(rng, 25)))))
            kf = i % 2 + 1
            frac = lm.FractionalParams(kf, float(rng.uniform(0.3, 0.9)),
                                       float(rng.uniform(0.0, 1.0)))
            p = float(rng.uniform(1.5, 3.0))
            opn = lm.FractionalParams(2, 1.0 / p, float(rng.uniform(0.0, 1.0)))
            sps = lm.FractionalParams(2, float(rng.uniform(0.55, 0.95)),
                                      float(rng.uniform(0.0, 1.0)))
            st.symbols[("mod", i)] = cat.modulation_multiplier((shift,))
            st.symbols[("ker1", i)] = cat.kernel_multiplier(kk1)
            st.symbols[("ker2", i)] = cat.kernel_multiplier(kk2)
            st.symbols[("frac", i)] = cat.fractional_multiplier(frac, self.FRAC_TERMS[kf])
            st.symbols[("opn", i)] = cat.fractional_multiplier(opn, self.OPN_TERMS)
            st.jobs.append(NS(i=i, f1=f1, f2=f2, shift=shift, kk1=kk1, kk2=kk2, frac=frac,
                              p=p, opn=opn, sps=sps,
                              lam_k1=float(rng.uniform(0.55, 0.95))))
        return st

    def run(self, lm, st, job, tr):
        sym, i = st.symbols, job.i
        F1 = lm.dft(job.f1, st.g1)
        F2 = lm.dft(job.f2, st.g2)
        back = lm.inverse_dft(F1, st.w1)
        mod = lm.apply_multiplier(sym[("mod", i)], job.f1, st.g1, st.w_mod)
        ker1 = lm.apply_multiplier(sym[("ker1", i)], job.f1, st.g1, st.w_ker1)
        ker2 = lm.apply_multiplier(sym[("ker2", i)], job.f2, st.g2, st.w_ker2)
        frac = lm.apply_multiplier(sym[("frac", i)], job.f1, st.g1, st.w_frac)
        weak = lm.opnorm_l1_weakp(sym[("opn", i)], job.p, st.g_opn, st.w_opn)
        strong = lm.opnorm_l1_lp(sym[("opn", i)], job.p, st.g_opn, st.w_opn)
        sps = lm.symbol_partial_sum(job.sps, self.SPS_TERMS, st.g_sps)
        kstar1 = lm.kstar_norm_probe(1, job.lam_k1, self.KSTAR1_TERMS, st.g_k1)
        kstar2 = lm.kstar_norm_probe(2, job.sps.decay, self.SPS_TERMS, st.g_sps)
        k3_sps = lm.symbol_partial_sum(st.k3, self.K3_TERMS, st.g_k3)
        k3_cat = lm.operators.sample_multiplier(sym["k3"], st.g_k3)
        return NS(F1=F1, F2=F2, back=back, mod=mod, ker1=ker1, ker2=ker2, frac=frac,
                  weak=weak, strong=strong, sps=sps, kstar1=kstar1, kstar2=kstar2,
                  k3_sps=k3_sps, k3_cat=k3_cat)

    def check(self, st, job, res, ops):
        for dim, f, F, M in ((1, job.f1, res.F1, self.M1), (2, job.f2, res.F2, self.M2)):
            pts = np.array(list(f.entries), dtype=np.int64)
            vals = np.array(list(f.entries.values()))
            want = O.dft_by_fft(pts, vals, dim, M)
            ops.check(f"dft dim {dim} = numpy.fft",
                      np.max(np.abs(F.values - want)) <= 1e-12 * np.sum(np.abs(vals)))
            ops.check(f"Parseval dim {dim}",
                      O.rel(np.sum(np.abs(F.values) ** 2) / M**dim,
                            np.sum(np.abs(vals) ** 2)) <= 1e-12)
        ops.check("inverse_dft recovers f", O.close(res.back.entries, dict(job.f1.entries),
                                                    1e-12))
        shifted = {(n + job.shift,): v for (n,), v in job.f1.entries.items()}
        ops.check("modulation = translate", O.close(res.mod.entries, shifted, 1e-12))
        f1 = np.array([job.f1.entries[(n,)] for n in range(-self.R1, self.R1 + 1)])
        k1 = np.array([job.kk1.entries[(n,)] for n in range(-4, 5)])
        conv = np.convolve(f1, k1)
        want = {(n,): complex(v) for n, v in zip(range(-self.R1 - 4, self.R1 + 5), conv)}
        ops.check("kernel multiplier 1-D = np.convolve", O.close(res.ker1.entries, want, 1e-12))
        r2 = self.R2
        f2 = np.array([[job.f2.entries[(a, b)] for b in range(-r2, r2 + 1)]
                       for a in range(-r2, r2 + 1)])
        out = np.zeros((2 * r2 + 5, 2 * r2 + 5), dtype=np.complex128)
        for (u, v), c in job.kk2.entries.items():
            out[u + 2:u + 2 + 2 * r2 + 1, v + 2:v + 2 + 2 * r2 + 1] += c * f2
        want = {(a - r2 - 2, b - r2 - 2): complex(out[a, b])
                for a in range(out.shape[0]) for b in range(out.shape[1])}
        ops.check("kernel multiplier 2-D = direct sum", O.close(res.ker2.entries, want, 1e-12))
        pts, vals = _arrays(job.f1)
        lo, hi = st.w_frac.lo[0], st.w_frac.hi[0]
        want = O.fractional_apply(pts, vals, job.frac.power, job.frac.decay,
                                  job.frac.oscillation, lo, hi, self.FRAC_TERMS[job.frac.power])
        ops.check("fractional multiplier = kernel scatter-add",
                  O.close(res.frac.entries, want, 1e-12))
        ops.check("opnorm weak = 1", res.weak.certified and abs(res.weak.value - 1.0) <= 1e-10)
        strong = O.partial_zeta(job.opn.decay * job.p, self.OPN_TERMS) ** (1.0 / job.p)
        ops.check("opnorm strong = partial zeta",
                  res.strong.certified and O.rel(res.strong.value, strong) <= 1e-10)
        sps = job.sps
        want = O.fractional_symbol(2, sps.decay, sps.oscillation, self.SPS_TERMS,
                                   st.g_sps.resolution)
        ops.check("symbol_partial_sum k=2", np.max(np.abs(res.sps.samples.values - want))
                  <= 1e-10)
        ops.check("kstar k=1 = Parseval",
                  O.rel(res.kstar1, O.kstar_k1(job.lam_k1, self.KSTAR1_TERMS)) <= 1e-12)
        ops.check("kstar k=2 = sums of two squares",
                  O.rel(res.kstar2, O.kstar_k2(sps.decay, self.SPS_TERMS)) <= 1e-12)
        want = O.fractional_symbol(3, 0.5, 0.0, self.K3_TERMS, self.K3_M)
        ops.check("symbol_partial_sum k=3, phases mod M",
                  np.max(np.abs(res.k3_sps.samples.values - want)) <= 1e-10, known_fault=True)
        ops.check("fractional_multiplier k=3, phases mod M",
                  np.max(np.abs(res.k3_cat.values - want)) <= 1e-10, known_fault=True)


# ---------------------------------------------------------------------------
def _band_symbol(lm, rng):
    """Seeded band-limited pdo symbol sum_{|u|<=2} c_u(n') e^{2 pi i u xi}.

    c_u(n') = alpha_u + beta_u e^{2 pi i theta_u n'} / (1 + |n'|).
    """
    U = np.arange(-2, 3)
    alpha, beta = _complex_normal(rng, 5), _complex_normal(rng, 5)
    theta = rng.uniform(0.0, 1.0, 5)

    def rows(n):
        n = np.asarray(n, dtype=np.float64)[:, None]
        return alpha + beta * np.exp(2j * np.pi * theta * n) / (1.0 + np.abs(n))

    def ev(n, xi):
        c = alpha + beta * np.exp(2j * np.pi * theta * n[0]) / (1.0 + abs(n[0]))
        return complex(c @ np.exp(2j * np.pi * U * xi[0]))

    return lm.PdoSymbol(1, ev), rows, U


class PdoSection:
    """Finite sections of pseudo-differential operators and their spectra."""

    name = "pdo-section"
    jobs_per_pass = 12
    min_jobs = 80
    tail_pct = 87.5
    BAND_RADIUS, APPLY_RADIUS, CONJ_RADIUS, TOEP_RADIUS = 16, 16, 8, 16
    OPN_SIDE, OPN_M = 33, 64
    TAIL_SIDE = 40
    ONE_RADIUS = 12
    CV = ("oscillating-decay", "smooth-decay", "coordinate")

    def setup(self, lm, rng, workdir):
        cat = lm.catalog
        st = NS(
            g64=lm.TorusGrid(1, 64), g_opn=lm.TorusGrid(1, self.OPN_M),
            g_cv=lm.TorusGrid(1, 32), g_goh=lm.TorusGrid(1, 8),
            w_band=lm.centered_window(self.BAND_RADIUS),
            w_apply=lm.centered_window(self.APPLY_RADIUS),
            w_conj=lm.centered_window(self.CONJ_RADIUS),
            w_toep=lm.centered_window(self.TOEP_RADIUS),
            w_one=lm.centered_window(self.ONE_RADIUS),
            probe=lm.centered_window(12),
            symbols={name: cat.PDO_BUILTINS[name]() for name in
                     ("inverse-distance", "one", "oscillating-decay", "smooth-decay",
                      "coordinate")},
            jobs=[],
        )
        for i in range(self.jobs_per_pass):
            band, rows, U = _band_symbol(lm, rng)
            f = _sparse(lm, rng, -8, 9, 9)
            kk = lm.sequence(1, {(n,): complex(v) for n, v in
                                 zip(range(-3, 4), _complex_normal(rng, 7))})
            st.symbols[("band", i)] = band
            st.symbols[("toep", i)] = lm.operators.multiplier_as_pdo(cat.kernel_multiplier(kk))
            # Window offsets follow the job index, not the seed: the power
            # iterations' cost depends on the offset, and runs with different
            # seeds must cost the same.
            a = -(5 * i % self.OPN_SIDE)
            t = -(7 * i % self.TAIL_SIDE)
            radii = sorted(int(r) for r in rng.choice(np.arange(0, 400), 48, replace=False))
            st.jobs.append(NS(
                i=i, rows=rows, U=U, f=f, kk=kk,
                opn_name=("oscillating-decay", "smooth-decay")[i % 2],
                w_opn=lm.Window(1, (a,), (a + self.OPN_SIDE - 1,)),
                w_tail=lm.Window(1, (t,), (t + self.TAIL_SIDE - 1,)),
                radii=radii, cv=self.CV[i % 3], rho=(0.0, 0.5)[i // 3 % 2],
            ))
        return st

    def run(self, lm, st, job, tr):
        sym, i = st.symbols, job.i
        band = lm.pdo_matrix(sym[("band", i)], st.w_band, st.g64)
        applied = lm.apply_pdo(sym[("band", i)], job.f, st.g64, st.w_apply)
        resid = lm.conjugation_residual(sym[("band", i)], st.g64, st.w_conj)
        toep = lm.pdo_matrix(sym[("toep", i)], st.w_toep, st.g64)
        A = lm.pdo_matrix(sym[job.opn_name], job.w_opn, st.g_opn)
        l2 = lm.opnorm_l2(A)
        tail_A = lm.pdo_matrix(sym["inverse-distance"], job.w_tail, st.g64)
        tail = lm.singular_tail(tail_A, self.TAIL_SIDE)
        ones = lm.singular_tail(lm.pdo_matrix(sym["one"], st.w_one, st.g64),
                                st.w_one.cardinality)
        goh = lm.gohberg_decay(sym["inverse-distance"], st.g_goh, job.radii)
        cv = lm.cv_check(sym[job.cv], job.rho, 2, 2, st.probe, st.g_cv)
        return NS(band=band, applied=applied, resid=resid, toep=toep, A=A, l2=l2,
                  tail=tail, ones=ones, goh=goh, cv=cv)

    def check(self, st, job, res, ops):
        pts = np.arange(-self.BAND_RADIUS, self.BAND_RADIUS + 1)
        want = O.band_section(job.rows(pts), job.U)
        ops.check("pdo_matrix = band section",
                  np.max(np.abs(res.band.entries - want)) <= 1e-12 * max(1.0, np.abs(want).max()))
        out_pts = np.arange(-self.APPLY_RADIUS, self.APPLY_RADIUS + 1)
        C = job.rows(out_pts)
        want = {}
        for r, n in enumerate(out_pts):
            v = sum(C[r, ui] * job.f[int(n + u)] for ui, u in enumerate(job.U))
            if v != 0:
                want[(int(n),)] = complex(v)
        ops.check("apply_pdo = sum_u c_u(n) f(n+u)", O.close(res.applied.entries, want, 1e-12))
        ops.check("conjugation residual <= 1e-10", res.resid <= 1e-10)
        pts = np.arange(-self.TOEP_RADIUS, self.TOEP_RADIUS + 1)
        want = O.toeplitz(dict(job.kk.entries), pts)
        ops.check("multiplier section = Toeplitz", np.max(np.abs(res.toep.entries - want))
                  <= 1e-12 * max(1.0, np.abs(want).max()))
        top = np.linalg.svd(res.A.entries, compute_uv=False)[0]
        ops.check("opnorm_l2 = svd", O.rel(res.l2, top) <= 1e-8)
        lo = job.w_tail.lo[0]
        exact = np.sort(1.0 / (1.0 + np.abs(np.arange(lo, lo + self.TAIL_SIDE))))[::-1]
        ops.check("singular_tail = 1/(1+|n|) sorted",
                  np.max(np.abs(np.array(res.tail) - exact)) <= 1e-9)
        ops.check("singular values of one = 1", max(abs(s - 1.0) for s in res.ones) <= 1e-10)
        goh = res.goh
        ops.check("gohberg d(R) = 1/(1+R)",
                  goh.verdict == "consistent"
                  and all(v == 1.0 / (1.0 + r) for r, v in zip(goh.radii, goh.values)))
        ops.check(f"cv_check {job.cv}", res.cv.bounded == (job.cv != "coordinate"))


# ---------------------------------------------------------------------------
def _read_jsonl(path) -> dict:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return {tuple(r["index"]): complex(r["re"], r["im"]) for r in lines[1:]}


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]


class CliSession:
    """In-process command line: every subcommand on small seeded inputs.

    A job is one session of nine subcommands (eleven calls); each pass ends
    with one `verify --format json`, whose time counts in wall_s but not in
    the job times.  Scan cells keep lam*p <= 1: cells above it go through a
    process-wide zeta cache that would make the first pass slower than the
    rest; classify covers the zeta path instead.
    """

    name = "cli-session"
    jobs_per_pass = 30
    min_jobs = 80
    tail_pct = 87.5
    KERNEL_TERMS = 400
    HI = {1: 400, 2: 10**4, 3: 10**6}
    MOD_M, GRID_M = 256, 64

    def setup(self, lm, rng, workdir):
        st = NS(jobs=[], symbols={}, verify_seed=None)
        for i in range(self.jobs_per_pass):

            def d(name, i=i):
                return os.path.join(workdir, f"{name}{i}")

            f = _sparse(lm, rng, 0, 60, 10)
            lm.lattice.save_jsonl(f, d("f") + ".jsonl")
            grid = lm.TorusGrid(1, self.GRID_M)
            sym = _complex_normal(rng, self.GRID_M)
            lm.torus.save_csv(lm.TorusSamples(grid, sym), d("sym") + ".csv")
            k = i % 3 + 1
            lam, gam = float(rng.uniform(0.3, 0.95)), float(rng.uniform(0.0, 1.0))
            p = float(rng.uniform(1.2, 4.0))
            q = float(rng.uniform(1.0, p))
            p_opn = float(rng.uniform(1.5, 3.0))
            shift = int(rng.integers(-15, 16))
            lam_lo = float(rng.uniform(0.2, 0.3))
            p_lo = float(rng.uniform(1.5, 1.8))
            job = NS(
                f=f, sym=sym, k=k, lam=lam, gam=gam, p=p, q=q, p_opn=p_opn, shift=shift,
                scan=(lam_lo, lam_lo + 0.15, p_lo, p_lo + 0.4),
                lam_k=float(rng.uniform(0.55, 0.95)),
                radius=24 + i % 17, one_radius=8 + i % 8,
                paths={n: d(n) + ext for n, ext in (("kern", ".jsonl"), ("frac", ".jsonl"),
                                                    ("mod", ".jsonl"), ("grid", ".jsonl"),
                                                    ("scan", ".csv"))},
            )
            job.one_count = 2 * job.one_radius + 1
            P = job.paths
            job.argv = [
                ["kernel", "--k", str(k), "--lam", repr(lam), "--gamma", repr(gam),
                 "--max-m", str(self.KERNEL_TERMS), "--out", P["kern"]],
                ["apply", "--input", d("f") + ".jsonl", "--out", P["frac"], "--symbol",
                 "fractional", "--k", str(k), "--lam", repr(lam), "--gamma", repr(gam),
                 f"--window=0:{self.HI[k]}"],
                ["apply", "--input", d("f") + ".jsonl", "--out", P["mod"], "--symbol",
                 "modulation", "--shift", str(shift), "--grid-res", str(self.MOD_M),
                 "--window=-20:80"],
                ["apply", "--input", d("f") + ".jsonl", "--out", P["grid"], "--symbol",
                 "grid-file", "--symbol-file", d("sym") + ".csv", "--grid-res",
                 str(self.GRID_M), f"--window=0:{self.GRID_M - 1}"],
                ["norm", "--input", P["frac"], "--p", repr(p)],
                ["opnorm", "--symbol", "fractional", "--k", "2", "--lam", repr(1.0 / p_opn),
                 "--gamma", repr(gam), "--p", repr(p_opn), "--terms", "4",
                 "--window-radius", "16", "--grid-res", "256"],
                ["classify", "--k", str(k), "--lam", repr(lam), "--gamma", repr(gam),
                 "--p", repr(p), "--q", repr(q)],
                ["scan", "--k-list", "1,2", "--lam-range",
                 f"{job.scan[0]!r}:{job.scan[1]!r}:3", "--p-range",
                 f"{job.scan[2]!r}:{job.scan[3]!r}:2", "--terms", "500", "--out", P["scan"]],
                ["kstar", "--k", "1", "--lam", repr(job.lam_k), "--terms-list", "10,20,40",
                 "--out", "-"],
                ["gohberg", "--symbol", "inverse-distance", "--max-radius",
                 str(job.radius), "--grid-res", "16", "--out", "-"],
                ["spectrum", "--symbol", "one", "--window-radius", str(job.one_radius),
                 "--count", str(job.one_count), "--grid-res", "64", "--out", "-"],
            ]
            st.jobs.append(job)
        st.verify_seed = int(rng.integers(0, 16))
        return st

    @staticmethod
    def _main(lm, tr, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tr.call(f"cli.{argv[0]}", lm.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def run(self, lm, st, job, tr):
        return [self._main(lm, tr, argv) for argv in job.argv]

    def run_pass(self, lm, st, tr):
        return self._main(lm, tr, ["verify", "--format", "json", "--seed",
                                   str(st.verify_seed)])

    def check_pass(self, st, res, ops):
        code, out = res
        results = json.loads(out) if code == 0 else []
        ops.check("verify passes 11 criteria",
                  code == 0 and len(results) == 11 and all(r["passed"] for r in results))

    def check(self, st, job, res, ops):
        checks = [self._kernel, self._frac, self._mod, self._grid, self._norm, self._opnorm,
                  self._classify, self._scan, self._kstar, self._gohberg, self._spectrum]
        for argv, (code, out), fn in zip(job.argv, res, checks):
            ops.check(f"cli {argv[0]}", code == 0 and fn(job, out))

    def _kernel(self, job, out):
        got = _read_jsonl(job.paths["kern"])
        m = np.arange(1, self.KERNEL_TERMS + 1, dtype=np.int64)
        c = O.coeff(m, job.lam, job.gam)
        want = {(int(n),): complex(v) for n, v in zip(m**job.k, c)}
        norms = json.loads(out)["norms"]
        return (O.close(got, want, 1e-12)
                and O.rel(float(norms["l1"]), O.lp(c, 1.0)) <= 1e-12
                and O.rel(float(norms["l2"]), O.lp(c, 2.0)) <= 1e-12
                and O.rel(float(norms["weak_l2"]), O.weak(c, 2.0)) <= 1e-12
                and norms["support"] == self.KERNEL_TERMS)

    def _frac(self, job, out):
        pts, vals = _arrays(job.f)
        want = O.fractional_apply(pts, vals, job.k, job.lam, job.gam, 0, self.HI[job.k])
        return O.close(_read_jsonl(job.paths["frac"]), want, 1e-12)

    def _mod(self, job, out):
        want = {(n + job.shift,): v for (n,), v in job.f.entries.items()}
        return O.close(_read_jsonl(job.paths["mod"]), want, 1e-12)

    def _grid(self, job, out):
        pts, vals = _arrays(job.f)
        M = self.GRID_M
        F = O.dft_by_fft(np.array(pts)[:, None], np.array(vals), 1, M)
        window = np.arange(0, M)
        vals = O.grid_inverse(job.sym * F, M, window)
        want = {(int(n),): complex(v) for n, v in zip(window, vals)}
        return O.close(_read_jsonl(job.paths["grid"]), want, 1e-12)

    def _norm(self, job, out):
        vals = list(_read_jsonl(job.paths["frac"]).values())
        got = json.loads(out)
        p = job.p
        return (O.rel(float(got["lp"]), O.lp(vals, p)) <= 1e-12
                and O.rel(float(got["weak"]), O.weak(vals, p)) <= 1e-12
                and O.sandwich(float(got["weak"]), float(got["seminorm"]), p, p / 2.0))

    def _opnorm(self, job, out):
        got = json.loads(out)
        p = job.p_opn
        strong = O.partial_zeta((1.0 / p) * p, 4) ** (1.0 / p)
        return (got["certified"] is True
                and abs(float(got["l1_to_weak_lp"]) - 1.0) <= 1e-10
                and O.rel(float(got["l1_to_lp"]), strong) <= 1e-10)

    def _classify(self, job, out):
        got = json.loads(out)
        lam, p, q, k = job.lam, job.p, job.q, job.k
        s = lam * p
        strong_ok = (got["strong_norm"] is None if s <= 1
                     else O.rel(float(got["strong_norm"]), O.zeta(s) ** (1.0 / p)) <= 1e-9)
        predicted = (1.0 / p <= 1.0 / q - (1.0 - lam) / k and 1.0 / p < lam
                     and 1.0 / q > 1.0 - lam)
        return (got["weak_1p"] == (lam >= 1.0 / p) and got["strong_1p"] == (lam > 1.0 / p)
                and (got["weak_norm"] == "1") == (lam >= 1.0 / p)
                and strong_ok and got["predicted_bounded"] == predicted)

    def _scan(self, job, out):
        with open(job.paths["scan"]) as fh:
            rows = _csv_rows(fh.read())
        if len(rows) != 12:
            return False
        for row in rows:
            lam, p, terms = float(row[1]), float(row[3]), int(row[5])
            if not (O.rel(float(row[6]), max(1.0, terms ** (1.0 / p - lam))) <= 1e-12
                    and O.rel(float(row[7]), O.partial_zeta(lam * p, terms) ** (1.0 / p))
                    <= 1e-11
                    and row[8:] == ["divergent", "divergent", "false"]):
                return False
        return True

    def _kstar(self, job, out):
        rows = _csv_rows(out)
        return len(rows) == 3 and all(
            O.rel(float(r[3]), O.kstar_k1(job.lam_k, int(r[2]))) <= 1e-10 for r in rows)

    def _gohberg(self, job, out):
        rows = _csv_rows(out)
        return ("# verdict=consistent" in out and len(rows) == job.radius + 1
                and all(float(v) == 1.0 / (1.0 + int(r)) for r, v in rows))

    def _spectrum(self, job, out):
        rows = _csv_rows(out)
        return len(rows) == job.one_count and all(abs(float(v) - 1.0) <= 1e-10
                                                  for _, v in rows)


WORKLOADS = {w.name: w for w in (KernelSparse(), MultiplierDense(), PdoSection(),
                                  CliSession())}
