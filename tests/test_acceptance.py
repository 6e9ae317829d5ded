"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Runs the same checks as ``relsim verify`` and prints one PASS/FAIL line per
criterion (pytest -s shows them).  The growth-shape criteria (5 and 6) run
dozens of simulations up to n=4096, and the protocol invariant suite (7)
traces 200 randomized runs twice; those three are marked ``slow``, so
``pytest -m "not slow"`` is a quick inner loop.
"""

import pytest

from relsim.acceptance import CRITERIA

SLOW = (5, 6, 7)


@pytest.mark.parametrize(
    "number",
    [pytest.param(k, marks=pytest.mark.slow) if k in SLOW else k for k in sorted(CRITERIA)],
    ids=lambda k: f"criterion_{k}",
)
def test_criterion(number):
    result = CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.number}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
