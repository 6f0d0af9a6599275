"""Acceptance gate: run every verification criterion and report one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each criterion is a separate parametrized test case.  The
suite runs once, in a fixture, so a crash inside it fails every case rather
than the module's collection.
"""

import numpy as np
import pytest

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
