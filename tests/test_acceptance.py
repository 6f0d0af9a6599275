"""Acceptance gate: run every verification criterion and report one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each criterion is a separate parametrized test case.  The
suite runs once, in a fixture, so a crash inside it fails every case rather
than the module's collection.
"""

import pytest

from latmult.verification import CRITERIA, run_all


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
