"""Random groups as a differential oracle.

Every other cross-check runs on groups that some spec names. Here the
package's maximal classes, d(G), C(G), crown data, Omega masks and m are
compared with the oracles (``oracles.differential_mismatches``) on random
permutation groups (``oracles.random_group``) drawn from fixed seeds.
``scripts/random_oracle.py --seeds N`` runs the same comparisons on the
first N seeds of both families.
"""

from functools import cache

import pytest

from chebotarev.crowns import crown_data
from oracles import differential_mismatches, radical_order, random_group

# (family, seed), taken from seeds 0-119 of each family, weighted to the
# insoluble groups: in each family, insoluble groups of order at most 400
# with one or two of order 720 and, from S_n, AGL(3, 2) of order 1344
# (seed 24), then soluble groups of order 8 to 400. A seed that fails
# stays here, with its defect named in CHANGES.md.
CASES = (
    [("sym", s) for s in (0, 11, 13, 16, 17, 24, 35, 37, 38, 41, 50, 60, 65, 68, 71, 76, 77)]
    + [("sym", s) for s in (1, 3, 4, 8, 19, 20, 26, 39)]
    + [("pair", s) for s in (6, 11, 45, 50, 54, 56, 63, 64, 65, 68, 75, 79, 82, 97, 106)]
    + [("pair", s) for s in (1, 3, 7, 8, 9, 10, 15, 17, 18, 20)]
)

group = cache(random_group)


def test_cases_are_weighted_to_insoluble_groups():
    # 50 groups of order at most 2000: 32 insoluble, 14 of them with a
    # nontrivial soluble radical R (13 from S_a x S_b, and AGL(3, 2))
    orders = [(group(f, s).order, radical_order(group(f, s))) for f, s in CASES]
    assert len(CASES) == 50 and max(n for n, _ in orders) <= 2000
    insoluble = [(n, r) for n, r in orders if r < n]
    assert len(insoluble) == 32
    assert len([r for _, r in insoluble if r > 1]) == 14
    # the m oracle meets a nonzero m: AGL(3, 2) splits its natural module
    # with H^1 of dimension 1
    assert group("sym", 24).order == 1344
    assert [V.m for V in crown_data(group("sym", 24)).A] == [1]


@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_random_group_matches_oracles(family, seed):
    assert differential_mismatches(group(family, seed)) == []
