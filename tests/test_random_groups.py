"""Random groups as a differential oracle.

Every other cross-check runs on groups that some spec names. Here the
package's maximal classes, d(G), C(G), P_I(G, k), crown data, Omega masks,
m and restricted waiting sums are compared with the oracles
(``oracles.differential_mismatches``) on random permutation groups
(``oracles.random_group``) drawn from fixed seeds.
``scripts/random_oracle.py --seeds N`` runs the same comparisons on the
first N seeds of both families.
"""

import pytest

from chebotarev.crowns import crown_data
from oracles import RANDOM_CASES, differential_mismatches, radical_order, random_case


def test_cases_are_weighted_to_insoluble_groups():
    # 50 groups of order at most 2000: 32 insoluble, 14 of them with a
    # nontrivial soluble radical R (13 from S_a x S_b, and AGL(3, 2))
    groups = [random_case(f, s) for f, s in RANDOM_CASES]
    orders = [(G.order, radical_order(G)) for G in groups]
    assert len(RANDOM_CASES) == 50 and max(n for n, _ in orders) <= 2000
    insoluble = [(n, r) for n, r in orders if r < n]
    assert len(insoluble) == 32
    assert len([r for _, r in insoluble if r > 1]) == 14
    # the m oracle meets a nonzero m: AGL(3, 2) splits its natural module
    # with H^1 of dimension 1
    assert random_case("sym", 24).order == 1344
    assert [V.m for V in crown_data(random_case("sym", 24)).A] == [1]


@pytest.mark.parametrize("family,seed", RANDOM_CASES, ids=[f"{f}-{s}" for f, s in RANDOM_CASES])
def test_random_group_matches_oracles(family, seed):
    assert differential_mismatches(random_case(family, seed)) == []
