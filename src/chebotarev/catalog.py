"""Fixed group catalogs used by the verification harness and tests.

Entries are grammar strings (see groupspec). The soluble catalog stays
within order 200 and within the exact engine's sieve cap; the ratio-test
catalog pins explicit constructions for each exceptional shape of the
waiting-time ratio check, plus neighbouring constructions that pass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RatioCase:
    spec: str
    expected_case: Optional[int]  # None: the strict ratio inequality holds


#: Soluble groups of order <= 200: cyclics, elementary abelians,
#: dihedrals, classics, affine constructions and direct products.
SOLUBLE_CATALOG: tuple[str, ...] = (
    "cyclic 2",
    "cyclic 3",
    "cyclic 4",
    "cyclic 5",
    "cyclic 6",
    "cyclic 8",
    "cyclic 9",
    "cyclic 12",
    "cyclic 16",
    "cyclic 18",
    "cyclic 24",
    "cyclic 30",
    "cyclic 36",
    "cyclic 60",
    "cyclic 100",
    "cyclic 200",
    "elementary 2 2",
    "elementary 2 3",
    "elementary 2 4",
    "elementary 3 2",
    "elementary 3 3",
    "elementary 5 2",
    "elementary 7 2",
    "elementary 11 2",
    "elementary 13 2",
    "dihedral 3",
    "dihedral 4",
    "dihedral 5",
    "dihedral 6",
    "dihedral 8",
    "dihedral 9",
    "dihedral 10",
    "dihedral 12",
    "dihedral 15",
    "dihedral 21",
    "dihedral 25",
    "dihedral 50",
    "dihedral 100",
    "quaternion8",
    "symmetric 4",
    "alternating 4",
    "affine 3 1 [[2]]",
    "affine 5 1 [[2]]",
    "affine 7 1 [[2]]",
    "affine 7 1 [[3]]",
    "affine 13 1 [[2]]",
    "affine 5 2 [[0,4],[1,4]]",
    "affine 3 2 [[0,2],[1,0]]",
    "affine 2 2 [[0,1],[1,1]] power 2",
    "affine 3 1 [[2]] power 2",
    "affine 3 1 [[2]] power 3",
    "direct_product cyclic 2 cyclic 4",
    "direct_product cyclic 4 cyclic 4",
    "direct_product cyclic 3 cyclic 9",
    "direct_product cyclic 6 cyclic 6",
    "direct_product cyclic 2 quaternion8",
    "direct_product cyclic 2 alternating 4",
    "direct_product cyclic 2 symmetric 4",
    "direct_product cyclic 3 symmetric 3",
    "direct_product symmetric 3 symmetric 3",
    "direct_product cyclic 2 dihedral 4",
)

#: Constructions reproducing the exceptional shapes of the ratio check
#: (grouped by the case they must land in) and near misses that pass it.
RATIO_CATALOG: tuple[RatioCase, ...] = (
    RatioCase("affine 2 2 [[0,1],[1,1]] power 2", 1),
    RatioCase("affine 3 1 [[2]] power 2", 2),
    RatioCase("direct_product affine 3 1 [[2]] power 2 cyclic 2", 2),
    RatioCase("affine 2 2 [[0,1],[1,1]]", 3),
    RatioCase("affine 5 1 [[2]]", 3),
    RatioCase("affine 7 1 [[3]]", 3),
    RatioCase("affine 3 1 [[2]]", 4),
    RatioCase("direct_product affine 3 1 [[2]] cyclic 2", 4),
    RatioCase("direct_product affine 3 1 [[2]] cyclic 3", 4),
    RatioCase("affine 3 1 [[2]] power 3", None),
    RatioCase("direct_product affine 3 1 [[2]] elementary 2 2", None),
)

#: Groups for the Monte Carlo consistency sweep.
MC_CATALOG: tuple[str, ...] = (
    "elementary 2 2",
    "symmetric 3",
    "cyclic 6",
    "dihedral 4",
    "alternating 4",
)

#: Frattini-invariance regression set: C(G) must equal C(G/Phi(G)).
FRATTINI_CATALOG: tuple[str, ...] = (
    "cyclic 4",
    "cyclic 8",
    "cyclic 9",
    "quaternion8",
    "dihedral 4",
)

#: Elementary abelian sweep parameters (p, delta). The exact engine runs on
#: every case: the largest maximal-subgroup count, (5^4 - 1) / (5 - 1) = 156,
#: is the default sieve cap.
ELEMENTARY_SWEEP: tuple[tuple[int, int], ...] = tuple(
    (p, d) for p in (2, 3, 5) for d in (1, 2, 3, 4)
)
