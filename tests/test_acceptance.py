"""Acceptance gate: run every verification criterion and report one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each criterion is a separate parametrized test case.  The
suite runs once, in a fixture, so a crash inside it fails every case rather
than the module's collection.
"""

import re

import numpy as np
import pytest

from latmult import verification
from latmult.verification import CRITERIA, _random_sequence, run_all


@pytest.fixture(scope="module")
def results():
    return {r.criterion: r for r in run_all()}


@pytest.mark.parametrize(
    "criterion", range(1, len(CRITERIA) + 1), ids=lambda c: f"criterion-{c}"
)
def test_acceptance_criterion(results, criterion):
    r = results[criterion]
    status = "PASS" if r.passed else "FAIL"
    print(
        f"{status} criterion {r.criterion}: {r.name} "
        f"[{r.measured}] (tolerance: {r.tolerance})"
    )
    assert r.passed, f"criterion {r.criterion} failed: {r.name} [{r.measured}]"


def test_all_eleven_criteria_present(results):
    assert sorted(results) == list(range(1, 12))
    assert len(CRITERIA) == 11


@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
@pytest.mark.parametrize("span,max_points", [(6, 8), (8, 10), (10, 12)])
def test_random_sequences_keep_their_draws(seed, span, max_points):
    """The criteria's random supports are the draws of rng.choice over
    np.arange(-span, span + 1), and leave the generator in the same state."""
    rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        f = _random_sequence(rng, span, max_points)
        count = int(old.integers(1, max_points + 1))
        points = old.choice(np.arange(-span, span + 1), size=count, replace=False)
        vals = old.standard_normal(count) + 1j * old.standard_normal(count)
        order = np.argsort(points)
        assert f.idx[:, 0].tolist() == points[order].tolist()
        assert f.val.tolist() == vals[order].tolist()
    assert rng.bit_generator.state == old.bit_generator.state


class _SixSecondClock:
    """Stands in for the time module inside latmult.verification only: each
    perf_counter() reads 6 s after the one before."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 6.0
        return self.now


def test_run_all_applies_each_runtime_bound(monkeypatch):
    monkeypatch.setattr(verification, "time", _SixSecondClock())
    results = run_all()
    assert [r.elapsed for r in results] == [6.0] * 11
    bounded = {1: False, 2: False, 5: True}  # 5 s, 5 s and 10 s bounds
    for r in results:
        if r.criterion in bounded:
            assert r.passed is bounded[r.criterion] and r.measured.endswith(", 6.00s")
        else:
            assert r.passed is True and not r.measured.endswith("s")


def _measured(r):
    """(passed, measured) with a runtime bound's elapsed time cut off."""
    return r.passed, re.sub(r", \d+\.\d\ds$", "", r.measured)


def test_the_seed_reaches_the_random_criteria(results):
    at_7 = [_measured(r) for r in run_all(seed=7)[2:7]]  # criteria 3-7
    assert [_measured(r) for r in run_all(seed=7)[2:7]] == at_7
    assert all(passed for passed, _ in at_7)
    at_42 = [_measured(results[c]) for c in range(3, 8)]
    # criteria 5, 6 and 7 report a different worst case at seeds 7 and 42
    assert [a != b for a, b in zip(at_7, at_42)][2:] == [True, True, True]


def test_run_all_numbers_seeds_and_faults_each_criterion(monkeypatch):
    calls = []

    def probe(rng, fault):
        calls.append((int(rng.integers(2**62)), fault))
        return np.True_, "probed"

    monkeypatch.setattr(verification, "CRITERIA", [probe] * len(CRITERIA))
    results = run_all(fault="kernel", seed=7)
    first_draw = int(np.random.default_rng(7).integers(2**62))
    assert calls == [(first_draw, "kernel")] * 11  # a fresh generator per criterion
    assert [r.criterion for r in results] == list(range(1, 12))
    assert all(type(r.passed) is bool and r.passed for r in results)
