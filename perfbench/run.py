"""latmult benchmark: one process, one caller thread, closed loop.

    python3 perfbench/run.py --workload kernel-sparse --seed 1 --seconds 25 --trace 0

Run from the root of a latmult checkout; latmult is imported from its
`src/` directory.  Set-up imports latmult and builds the workload's seeded
inputs with latmult's constructors; it is repeated SETUPS times, between the
passes, and setup_s is the median.  The timed loop makes whole passes over
the workload's jobs until --seconds have gone by and at least `min_jobs`
jobs have run.  Each job's outputs are checked against an oracle computed
apart from latmult.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics from spans with --trace 1.  Results and spans are also
written under perfbench/results/.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the load is one process with one thread, and a second
# thread shares the cores with other tenants of the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
SETUPS = 9
MODULES = ("catalog", "cli")  # not imported by the package itself


def _latmult_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "latmult" or n.startswith("latmult.")}


def set_up(workload, seed: int, workdir: str, t0: float):
    """Import latmult afresh from this checkout and build the workload's inputs.

    Returns the package, the inputs and the time since t0.
    """
    for name in _latmult_modules():
        del sys.modules[name]
    lm = importlib.import_module("latmult")
    for name in MODULES:
        importlib.import_module(f"latmult.{name}")
    st = workload.setup(lm, np.random.default_rng(seed), workdir)
    return lm, st, time.perf_counter() - t0


class SetUps:
    """Repeat set-up between passes, so its median samples the whole run.

    The first set-up, timed from the first statement of this file, builds the
    inputs the jobs use.  Each later one imports latmult and builds the same
    inputs again, is timed, and is discarded; the modules of the first import
    are put back afterwards.
    """

    def __init__(self, workload, seed: int, workdir: str):
        self.args = (workload, seed, workdir)
        self.lm, self.st, first = set_up(*self.args, T0)
        self.times = [first]
        self.modules = _latmult_modules()

    def again(self) -> None:
        if len(self.times) >= SETUPS:
            return
        gc.collect()
        self.times.append(set_up(*self.args, time.perf_counter())[2])
        for name in _latmult_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)
        gc.collect()


def timed_loop(workload, lm, st, seconds: float, tr, ops: Ops, between_passes):
    """Whole passes over st.jobs; returns job times (ms) and pass times (s)."""
    job_ms, pass_s = [], []
    run_pass = getattr(workload, "run_pass", None)
    job_id = 0
    start = time.perf_counter()
    while True:
        busy = 0.0
        for job in st.jobs:
            tr.begin_job(job_id)
            job_id += 1
            t0 = time.perf_counter()
            try:
                res = workload.run(lm, st, job, tr)
            except Exception as exc:  # a crashing job is a failed operation
                res = exc
            dt = time.perf_counter() - t0
            busy += dt
            job_ms.append(dt * 1000.0)
            check(lambda: workload.check(st, job, res, ops), res, ops)
        if run_pass is not None:
            tr.begin_job(job_id)
            job_id += 1
            t0 = time.perf_counter()
            try:
                res = run_pass(lm, st, tr)
            except Exception as exc:
                res = exc
            busy += time.perf_counter() - t0
            check(lambda: workload.check_pass(st, res, ops), res, ops)
        pass_s.append(busy)
        if time.perf_counter() - start >= seconds and len(job_ms) >= workload.min_jobs:
            return job_ms, pass_s
        between_passes()


def check(fn, res, ops: Ops) -> None:
    if isinstance(res, Exception):
        ops.check(f"raised {type(res).__name__}: {res}", False)
        return
    try:
        fn()
    except Exception as exc:
        ops.check(f"check raised {type(exc).__name__}: {exc}", False)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def blas_info() -> str:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latmult", "__init__.py")):
        print(f"error: no latmult sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        setups = SetUps(workload, args.seed, workdir)
        lm, st = setups.lm, setups.st
        if not os.path.abspath(lm.__file__).startswith(SRC + os.sep):
            print(f"error: latmult imported from {lm.__file__}", file=sys.stderr)
            return 2
        tr = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tr.install(lm, st.symbols)
        gc.collect()
        gc.freeze()
        ops = Ops()
        job_ms, pass_s = timed_loop(workload, lm, st, args.seconds, tr, ops, setups.again)
        if args.trace:
            tr.uninstall()
        while len(setups.times) < SETUPS:
            setups.again()
        setup_times = setups.times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "wall_s": metric(statistics.median(pass_s), "s"),
        "job_ms_p50": metric(statistics.median(job_ms), "ms"),
        "job_ms_tail": metric(float(np.percentile(job_ms, workload.tail_pct)), "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(pass_s), "jobs": len(job_ms),
        "tail_percentile": workload.tail_pct, "pass_s": pass_s,
        "setup_times": setup_times, "threads": threads(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
        "cpus": os.cpu_count(), "unexpected_failures": ops.unexpected[:20],
        "end_to_end": end_to_end,
    }
    if args.trace:
        units = tracing.metric_units()
        values = tr.per_layer(len(pass_s))
        metrics = {name: metric(values[name], unit) for name, unit in units.items()}
        info["per_layer"] = metrics
        tr.write_jsonl(os.path.join(RESULTS, f"spans-{tag}.jsonl"))
    else:
        metrics = end_to_end
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print("# " + json.dumps({k: info[k] for k in ("workload", "seed", "passes", "jobs",
                                                   "threads", "unexpected_failures")}))
    print(json.dumps({
        "correct": not ops.unexpected,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
