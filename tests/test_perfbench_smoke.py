"""One untraced pass of every perfbench workload against this tree's latmult.

A library change that deletes or renames something the benchmark calls, or
changes a result its oracles check, fails here instead of in a benchmark run.
"""

import inspect
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import latmult
import latmult.catalog  # noqa: F401  the package does not import these two itself
import latmult.cli  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _listing() -> list[str]:
    return sorted(str(p.relative_to(PERFBENCH)) for p in PERFBENCH.rglob("*"))


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `tracing` and `workloads`, imported from its directory with
    no bytecode written; sys.path and sys.modules are put back afterwards."""
    path, before, no_pyc = list(sys.path), set(sys.modules), sys.dont_write_bytecode
    listing = _listing()
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = no_pyc
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
    assert _listing() == listing


def test_every_workload_passes_its_checks(perfbench, tmp_path):
    tracing, workloads = perfbench
    unexpected = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        st = workload.setup(latmult, np.random.default_rng(1), str(workdir))
        tr, ops = tracing.NullTracer(), workloads.Ops()
        for job in st.jobs:
            workload.check(st, job, workload.run(latmult, st, job, tr), ops)
        if hasattr(workload, "run_pass"):
            workload.check_pass(st, workload.run_pass(latmult, st, tr), ops)
        assert ops.attempted > 0
        unexpected[name] = ops.unexpected
    assert unexpected == {name: [] for name in workloads.WORKLOADS}


def _latmult_state() -> dict:
    """Every public attribute of every latmult module, and the keys, values and
    items of its dicts and lists, which the tracer edits in place."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "latmult" or name.startswith("latmult.")):
            continue
        for attr, value in vars(mod).items():
            if not attr.startswith("__"):
                items = [*itertools.chain(*value.items())] if isinstance(value, dict) else value
                state[name, attr] = [value, *(items if isinstance(value, (dict, list)) else [])]
    return state


def _moved(before: dict, after: dict) -> set:
    """Keys whose object, or one of whose items, is not the same object as before."""
    return {key for key in before.keys() | after.keys()
            if len(before.get(key, ())) != len(after.get(key, ()))
            or any(a is not b for a, b in zip(before[key], after[key]))}


def test_every_workload_runs_traced_and_untraces(perfbench, tmp_path):
    # a traced run wraps every TARGETS function and catalog symbol, so a library
    # change that breaks the tracer fails here; uninstall must put back every
    # module attribute, apart from the block of scalar rows the jobs left behind
    tracing, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        st = workload.setup(latmult, np.random.default_rng(1), str(workdir))
        before = _latmult_state()
        tr, ops = tracing.Tracer(), workloads.Ops()
        tr.install(latmult, st.symbols)
        try:
            job = st.jobs[0]
            workload.check(st, job, workload.run(latmult, st, job, tr), ops)
            layers = tr.per_layer(1)
        finally:
            tr.uninstall()
        assert ops.attempted > 0 and ops.unexpected == [], name
        assert list(layers) == list(tracing.metric_units()) and len(layers) == 58, name
        assert _moved(before, _latmult_state()) <= {("latmult.operators", "_last_block")}, name


def _required(fn) -> set[str]:
    return {n for n, p in inspect.signature(fn).parameters.items()
            if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD}


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    for module, name, _span, work, peak_key in tracing.TARGETS:
        fn = getattr(getattr(latmult, module), name)
        # the tracer binds the call's arguments by name for these two
        for reader in filter(None, (work, peak_key)):
            assert _required(reader) <= set(inspect.signature(fn).parameters), name
    for name in tracing.CATALOG_FACTORIES:
        assert callable(getattr(latmult.catalog, name)), name


def test_pdo_section_samples_each_band_row_once_per_job(perfbench, tmp_path):
    # pdo_matrix and apply_pdo on radius 16 and conjugation_residual on radius 8
    # share the 33 rows of each job's scalar band symbol on its 64-node grid:
    # 12 jobs x 33 x 64 calls, where sampling every call afresh makes 63,744
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS["pdo-section"]
    st = workload.setup(latmult, np.random.default_rng(1), str(tmp_path))
    counter = tracing.Tracer()
    for key in [k for k in st.symbols if isinstance(k, tuple) and k[0] == "band"]:
        st.symbols[key] = counter.counted_symbol(st.symbols[key])
    ops = workloads.Ops()
    for job in st.jobs:
        workload.check(st, job, workload.run(latmult, st, job, tracing.NullTracer()), ops)
    assert ops.unexpected == []
    assert counter.counts["catalog.symbol_eval.calls"] == 25_344
