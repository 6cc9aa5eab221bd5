"""Acceptance gate: every verification item must pass within its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The same items back ``chebotarev verify-paper``; they
run once per session (``conftest.verify_results``), and the report digest
test reads them too.
"""

import pytest

# (key, wall-clock budget in seconds). Items sharing one catalog sweep
# share the sweep's budget; the cache charges it to whichever runs first.
CRITERIA = [
    ("exact-small", 1.0),
    ("elementary-sweep", 30.0),
    ("five-thirds-catalog", 600.0),
    ("bound-soundness", 600.0),
    ("ratio-cases", 120.0),
    ("oracle-equivalence", 300.0),
    ("mc-consistency", 120.0),
    ("binomial-tail", 5.0),
    ("v-property-decomposition", 600.0),
    ("frattini-invariance", 10.0),
]


def test_all_criteria_present(verify_results):
    assert set(verify_results) == {key for key, _ in CRITERIA}


@pytest.mark.parametrize("key,budget", CRITERIA)
def test_criterion(key, budget, verify_results):
    res = verify_results[key]
    detail = "\n".join(res.details)
    assert res.passed, f"{res.key} failed:\n{detail}"
    assert res.seconds < budget, f"{res.key} took {res.seconds:.1f}s (budget {budget}s)"
