import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    CATALOG_SPECS,
    EXACT_SPECS,
    SOLUBLE_SPECS,
    brute_min_generating_tuple,
    brute_subgroup_bits,
    class_mask,
    classes_by_conjugation,
    conjugation_orbit,
    cyclic_extension_subgroups,
    maximal_classes_by_orbits,
    maximal_classes_by_pairs,
    min_generators_by_lattice,
    minimal_normal_by_all_closures,
    minimal_normal_by_lattice,
)
from chebotarev import crowns, perm
from chebotarev.errors import BadSectionError, InvariantError, NotNormalError, TrivialGroupError
from chebotarev.groupspec import parse_group
from chebotarev.crowns import chief_series, maximal_subgroups
from chebotarev.exact import chebotarev_of_group
from chebotarev.perm import Subgroup, conjugacy_classes
from chebotarev.subgroups import (
    all_subgroups,
    frattini,
    maximal_classes,
    min_generators,
    minimal_normal_subgroups,
)


@pytest.mark.parametrize(
    "spec,count",
    [
        ("cyclic 5", 2),
        ("cyclic 7", 2),
        ("symmetric 3", 6),
        ("elementary 2 2", 5),
    ],
)
def test_all_subgroups_counts(spec, count, group_of):
    assert len(all_subgroups(group_of(spec))) == count


@pytest.mark.parametrize("spec", ["symmetric 3", "elementary 2 2", "cyclic 8", "cyclic 12"])
def test_all_subgroups_matches_brute_force(spec, group_of):
    G = group_of(spec)
    got = {s.bits for s in all_subgroups(G)}
    assert got == brute_subgroup_bits(G)


@pytest.mark.parametrize(
    "spec",
    [
        "symmetric 4",
        "dihedral 12",
        "affine 7 1 [[3]]",
        "direct_product cyclic 2 alternating 4",
        "affine 3 1 [[2]] power 2",
        "alternating 5",
        "symmetric 5",
    ],
)
def test_all_subgroups_matches_cyclic_extension(spec, group_of):
    # same subgroups in the same order as one closure per element, each
    # with a generating tuple as short as the oracle's
    G = group_of(spec)
    subs = all_subgroups(G)
    expected = cyclic_extension_subgroups(G)
    assert [s.bits for s in subs] == [bits for bits, _ in expected]
    for s, (_, wits) in zip(subs, expected):
        assert G.closure_bits(s.witnesses) == s.bits
        assert len(s.witnesses) == len(wits)


def test_walk_extends_one_subgroup_per_class(monkeypatch):
    # S5 has 156 subgroups in 19 classes: the walk partitions right cosets
    # once per class but the trivial and the full one, not per subgroup
    G = parse_group("symmetric 5").group
    partitioned = []
    right_cosets = G.right_cosets
    monkeypatch.setattr(G, "right_cosets", lambda bits: partitioned.append(bits) or right_cosets(bits))
    subs = all_subgroups(G)
    assert (len(subs), len(classes_by_conjugation(G, {s.bits for s in subs}))) == (156, 19)
    assert len(partitioned) == len(set(partitioned)) == 17


def _maximal_class_key(G):
    return [
        (c.representative.bits, c.representative.witnesses, c.class_mask)
        for c in maximal_classes(G)
    ]


@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 12", "alternating 5"])
def test_lattice_without_multiplication_table(spec, monkeypatch):
    tabled = parse_group(spec).group
    expected = [(s.bits, s.witnesses) for s in all_subgroups(tabled)]
    expected_classes = _maximal_class_key(tabled)
    monkeypatch.setattr(perm, "_MULT_TABLE_LIMIT", tabled.order - 1)
    G = parse_group(spec).group
    assert [(s.bits, s.witnesses) for s in all_subgroups(G)] == expected
    assert _maximal_class_key(G) == expected_classes
    # above the limit the product store keeps the identity column alone
    assert [j for j, col in enumerate(G._columns) if col is not None] == [0]


def test_all_subgroups_closed_and_unique(group_of):
    G = group_of("symmetric 4")
    subs = all_subgroups(G)
    assert len({s.bits for s in subs}) == len(subs) == 30
    assert subs[0].order == 1 and subs[-1].order == G.order
    for s in subs:
        members = list(s.members())
        assert s.bits & 1
        assert all((s.bits >> G.mult(a, b)) & 1 for a in members for b in members)


def test_maximal_classes_examples(group_of):
    s3 = group_of("symmetric 3")
    classes = maximal_classes(s3)
    by_order = {c.representative.order: c for c in classes}
    assert set(by_order) == {2, 3}
    # (class size, union size): A3 is normal, the three C2 cover four elements
    [(_, size3, union3, _)] = classes_by_conjugation(s3, {by_order[3].representative.bits})
    assert (size3, union3.bit_count()) == (1, 3)
    [(_, size2, union2, _)] = classes_by_conjugation(s3, {by_order[2].representative.bits})
    assert (size2, union2.bit_count()) == (3, 4)
    # each meets the identity's class and one more: 3-cycles or transpositions
    assert [by_order[n].class_mask for n in (3, 2)] == [class_mask(s3, union3), class_mask(s3, union2)]
    assert by_order[3].class_mask.bit_count() == by_order[2].class_mask.bit_count() == 2

    c4 = group_of("cyclic 4")
    assert len(maximal_classes(c4)) == 1
    assert maximal_classes(c4)[0].representative.order == 2

    klein = group_of("elementary 2 2")
    assert len(maximal_classes(klein)) == 3

    with pytest.raises(TrivialGroupError):
        maximal_classes(group_of("cyclic 1"))


def test_maximal_union_covering_group_is_typed_error(monkeypatch):
    # Hand-built lattice classes whose only proper nontrivial class is the
    # conjugates of the non-subgroup holding one element of each conjugacy
    # class: they cover G. A5 has a trivial soluble radical, so its maximal
    # classes come from the (planted) classes of G itself. The group is
    # parsed afresh, as a shared one would hit the memo.
    G = parse_group("alternating 5").group
    fake = sum(1 << r for r in conjugacy_classes(G).reps)
    orbit = sorted({G.conj_bits(fake, g) for g in range(G.order)})
    planted = [[Subgroup.trivial(G)], [Subgroup(G, b, ()) for b in orbit], [Subgroup.full(G)]]
    monkeypatch.setattr(crowns, "subgroup_classes", lambda Q: planted)
    with pytest.raises(InvariantError):
        maximal_classes(G)


@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 10", "quaternion8", "cyclic 36"])
def test_maximality_exhaustive(spec, group_of):
    G = group_of(spec)
    subs = all_subgroups(G)
    maximal_bits = {c.representative.bits for c in maximal_classes(G)}
    for c in maximal_classes(G):
        for H in subs:
            if H.bits != c.representative.bits and c.representative.bits & ~H.bits == 0:
                assert H.order == G.order  # nothing strictly between M and G
    # union properness, class masks and class coverage, the unions, cores
    # and class sizes read off each representative's conjugation orbit
    total = 0
    for c in maximal_classes(G):
        [(_, size, union, core)] = classes_by_conjugation(G, {c.representative.bits})
        assert union != G.full_bits
        assert union & c.representative.bits == c.representative.bits
        assert c.class_mask == class_mask(G, union)
        assert Subgroup(G, core).is_normal()
        total += size
    all_maximal = [
        H
        for H in subs
        if H.order < G.order
        and all(
            K.order == G.order
            for K in subs
            if K.bits != H.bits and H.bits & ~K.bits == 0
        )
    ]
    assert total == len(all_maximal)
    assert maximal_bits <= {H.bits for H in all_maximal}


# Insoluble groups: soluble radical R = 1 (the lattice of G itself) and
# R != 1 (complements below R, preimages of the maximal subgroups of G/R).
INSOLUBLE_SPECS = (
    "symmetric 5",
    "alternating 5",
    "alternating 6",
    "direct_product alternating 5 cyclic 3",
    "direct_product alternating 5 elementary 2 2",
    "direct_product cyclic 2 symmetric 5",
    "direct_product symmetric 3 alternating 5",
)


@pytest.mark.parametrize(
    "spec",
    tuple(
        dict.fromkeys(
            CATALOG_SPECS
            + ("elementary 2 5",)
            + EXACT_SPECS
            + ("elementary 2 6", "direct_product symmetric 3 symmetric 3 symmetric 3")
            + INSOLUBLE_SPECS
        )
    ),
)
def test_maximal_classes_match_pairwise_scan(spec, group_of):
    # each representative's conjugation orbit is one class of the scan, and
    # its class mask holds exactly the classes of its conjugate-union
    G = group_of(spec)
    assert maximal_classes_by_orbits(G) == maximal_classes_by_pairs(G)
    for c in maximal_classes(G):
        [(_, _, union, _)] = classes_by_conjugation(G, {c.representative.bits})
        assert c.class_mask == class_mask(G, union)
        assert G.closure_bits(c.representative.witnesses) == c.representative.bits


@pytest.mark.parametrize("spec", SOLUBLE_SPECS)
def test_complement_classes_match_conjugation_orbits(spec, group_of):
    # a soluble G's maximal subgroups are complements, one per class of
    # solution vectors modulo B^1: no two are conjugate, against walking
    # conjugation orbits, and each class mask is its orbit's union's
    G = group_of(spec)
    reps = maximal_subgroups(G)
    assert len(classes_by_conjugation(G, {M.bits for M in reps})) == len(reps)
    for c in maximal_classes(G):
        [(_, _, union, _)] = classes_by_conjugation(G, {c.representative.bits})
        assert c.class_mask == class_mask(G, union)


def test_core_is_intersection_of_class(group_of):
    # the Frattini subgroup is the intersection of the classes' cores, each
    # the elements fixed into every conjugate of the representative
    for spec in ["symmetric 4", "quaternion8", "cyclic 36", "alternating 5"]:
        G = group_of(spec)
        phi = G.full_bits
        for c in maximal_classes(G):
            [(_, _, _, core)] = classes_by_conjugation(G, {c.representative.bits})
            phi &= core
        assert frattini(G).bits == phi


def test_frattini_examples(group_of):
    assert frattini(group_of("cyclic 4")).order == 2
    assert frattini(group_of("elementary 2 2")).order == 1
    assert frattini(group_of("symmetric 3")).order == 1
    assert frattini(group_of("quaternion8")).order == 2
    assert frattini(group_of("cyclic 1")).order == 1


def _brute_non_generators(G, max_subset: int) -> int:
    """Bitset of non-generators: g such that removing it from any
    generating superset still leaves a generating set. Checked over all
    subsets of size <= max_subset (enough when every maximal subgroup of
    the test group needs at most that many generators)."""
    full = G.full_bits
    bits = 0
    for g in range(G.order):
        witness = False
        for r in range(max_subset + 1):
            for combo in itertools.combinations(range(G.order), r):
                if G.closure_bits(combo + (g,)) == full and G.closure_bits(combo) != full:
                    witness = True
                    break
            if witness:
                break
        if not witness:
            bits |= 1 << g
    return bits


@pytest.mark.parametrize("spec", ["cyclic 4", "cyclic 8", "quaternion8", "dihedral 4", "cyclic 12", "symmetric 3"])
def test_frattini_equals_non_generators(spec, group_of):
    G = group_of(spec)
    assert frattini(G).bits == _brute_non_generators(G, 3)
    assert frattini(G).is_normal()


def test_minimal_normals_examples(group_of):
    s3 = group_of("symmetric 3")
    assert [m.order for m in minimal_normal_subgroups(s3)] == [3]
    klein = group_of("elementary 2 2")
    assert [m.order for m in minimal_normal_subgroups(klein)] == [2, 2, 2]
    c6 = group_of("cyclic 6")
    assert sorted(m.order for m in minimal_normal_subgroups(c6)) == [2, 3]
    with pytest.raises(TrivialGroupError):
        minimal_normal_subgroups(group_of("cyclic 1"))


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_minimal_normals_match_lattice_scan(spec, group_of):
    # the minimal normal subgroups of G/N, as preimages, for the default
    # N = 1 and every proper normal N; G/G has none
    G = group_of(spec)
    assert [m.bits for m in minimal_normal_subgroups(G)] == minimal_normal_by_lattice(
        G, Subgroup.trivial(G)
    )
    normals = [s for s in all_subgroups(G) if s.is_normal()]
    for N in normals[:-1]:
        got = [m.bits for m in minimal_normal_subgroups(G, N)]
        assert got == minimal_normal_by_lattice(G, N)
    with pytest.raises(TrivialGroupError):
        minimal_normal_subgroups(G, normals[-1])


@pytest.mark.parametrize(
    "spec",
    [
        "direct_product alternating 5 alternating 5",
        "direct_product symmetric 5 symmetric 3",
        "direct_product alternating 5 cyclic 6",
        "cyclic 60",
        "dihedral 30",
    ],
)
def test_minimal_normals_match_every_class_closure(spec, group_of):
    # only classes of prime-power order are closed; their minimal members
    # are those of the normal closures of every class, at every term N of
    # the chief series (elements of order 6, 10 and 15 in A5 x A5 have
    # closures that the pruning drops)
    G = group_of(spec)
    for N in chief_series(G).subgroups[1:]:
        got = [m.bits for m in minimal_normal_subgroups(G, N)]
        assert got == minimal_normal_by_all_closures(G, N)


def test_minimal_normals_reject_non_normal_subgroup(group_of):
    s3 = group_of("symmetric 3")
    c2 = next(s for s in all_subgroups(s3) if s.order == 2)
    with pytest.raises(NotNormalError):
        minimal_normal_subgroups(s3, c2)
    # a normal subgroup of a separately parsed group: its bits are read
    # against S4's own cosets unless it is refused
    s4, c24 = group_of("symmetric 4"), parse_group("cyclic 24").group
    with pytest.raises(BadSectionError):
        minimal_normal_subgroups(s4, next(s for s in all_subgroups(c24) if s.order == 4))


@pytest.mark.parametrize(
    "spec,d",
    [
        ("cyclic 6", 1),
        ("cyclic 1", 0),
        ("symmetric 3", 2),
        ("elementary 2 3", 3),
        ("elementary 3 2", 2),
        ("elementary 2 4", 4),
        ("quaternion8", 2),
        ("symmetric 4", 2),
        ("direct_product cyclic 2 cyclic 4", 2),
        ("elementary 2 5", 5),
        ("elementary 2 6", 6),
    ],
)
def test_min_generators(spec, d, group_of):
    G = group_of(spec)
    assert min_generators(G) == d
    wits = all_subgroups(G)[-1].witnesses
    assert len(wits) == d
    assert G.closure_bits(wits) == G.full_bits


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_min_generators_match_brute_search(spec, group_of):
    G = group_of(spec)
    assert min_generators(G) == len(brute_min_generating_tuple(G))


@pytest.mark.parametrize(
    "spec", ["symmetric 4", "dihedral 12", "quaternion8", "affine 3 1 [[2]] power 2"]
)
def test_subgroup_witnesses_have_minimal_length(spec, group_of):
    G = group_of(spec)
    for H in all_subgroups(G)[1:]:
        sub = perm.PermGroup(G.degree, [G.elements[w] for w in H.witnesses])
        assert sub.order == H.order
        assert len(H.witnesses) == len(brute_min_generating_tuple(sub))


@pytest.mark.parametrize(
    "spec",
    ("elementary 2 6", "elementary 3 4", "direct_product symmetric 3 symmetric 3 symmetric 3")
    + INSOLUBLE_SPECS,
)
def test_min_generators_match_lattice_depth(spec, group_of):
    # d(G/R) and the crown count against G's depth in the lattice walk
    G = group_of(spec)
    assert min_generators(G) == min_generators_by_lattice(G)


def test_min_generators_alternating_7(group_of):
    # R = 1 and A7 (order 2520) is above the multiplication-table limit:
    # its whole lattice is walked through the generator words
    G = group_of("alternating 7")
    subs = all_subgroups(G)
    assert (len(subs), len(classes_by_conjugation(G, {s.bits for s in subs}))) == (3786, 40)
    assert min_generators(G) == 2


def test_maximal_classes_alternating_7(group_of):
    # A6, two classes of L2(7), S5 and (A4 x 3):2, of index 7, 15, 15, 21
    # and 35 (ATLAS of Finite Groups)
    G = group_of("alternating 7")
    assert [
        (c.representative.order, len(conjugation_orbit(G, c.representative.bits)))
        for c in maximal_classes(G)
    ] == [
        (72, 35),
        (120, 21),
        (168, 15),
        (168, 15),
        (360, 7),
    ]
    assert chebotarev_of_group(G).exact == Fraction(513712678143157, 107426299282225)


@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 9", "cyclic 100", "elementary 2 3", "quaternion8"])
def test_min_generators_random_upper_bound(spec, group_of):
    # a seeded random search must reproduce the exhaustive value
    G = group_of(spec)
    d = min_generators(G)
    rng = random.Random(12345)
    full = G.full_bits
    best = None
    for k in range(1, d + 1):
        for _ in range(400):
            tup = tuple(rng.randrange(G.order) for _ in range(k))
            if G.closure_bits(tup) == full:
                best = k
                break
        if best is not None:
            break
    assert best == d
