import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CATALOG_SPECS,
    bfs_element_images,
    derived_series_bits,
    element_order,
    normal_by_conjugation,
    normal_closure_by_conjugates,
    quotient_by_mult,
    section_centralizer,
)
from chebotarev import perm
from chebotarev.errors import BadSectionError, DegreeMismatchError, NotNormalError, OrderCapError
from chebotarev.perm import (
    PermGroup,
    Permutation,
    Subgroup,
    bits_iter,
    conjugacy_classes,
    is_soluble,
    quotient,
)
from chebotarev.groupspec import alternating_group, cyclic_group, parse_group, symmetric_group
from chebotarev.subgroups import all_subgroups

perm_strategy = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def test_identity_and_validation():
    e = Permutation.identity(4)
    assert e.is_identity() and e.degree == 4
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@given(perm_strategy)
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perm_strategy)
def test_cycle_string_roundtrip(p):
    assert Permutation.from_cycle_string(p.cycle_string(), p.degree) == p


@given(perm_strategy, perm_strategy)
def test_composition_degree_guard(a, b):
    if a.degree == b.degree:
        c = a * b
        assert all(c(i) == b(a(i)) for i in range(a.degree))
    else:
        with pytest.raises(DegreeMismatchError):
            a * b


def test_cycle_parsing_variants():
    assert Permutation.from_cycle_string("()", 3).is_identity()
    p = Permutation.from_cycle_string("(1 2 3)(4 5)", 5)
    assert p.images == (1, 2, 0, 4, 3)
    assert Permutation.from_cycle_string("(1,2,3)(4,5)", 5) == p
    with pytest.raises(ValueError):
        Permutation.from_cycle_string("(1 2)(2 3)", 3)  # not disjoint
    with pytest.raises(ValueError):
        Permutation.from_cycle_string("(0 1)", 3)  # 1-based points


def test_build_group_examples():
    assert PermGroup(1, []).order == 1
    s3 = PermGroup(3, [Permutation((1, 2, 0)), Permutation((1, 0, 2))])
    assert s3.order == 6
    klein = PermGroup(
        4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))]
    )
    assert klein.order == 4
    assert all(klein.mult(i, i) == 0 for i in range(4))  # exponent 2


def test_order_cap_and_degree_mismatch():
    with pytest.raises(OrderCapError):
        PermGroup(5, [Permutation((1, 2, 3, 4, 0))], order_cap=3)
    with pytest.raises(DegreeMismatchError):
        PermGroup(3, [Permutation((1, 0))])


@pytest.mark.parametrize(
    "spec_order", [("cyclic", 12), ("symmetric", 4), ("dihedral", 9)]
)
def test_closure_exhaustive(spec_order):
    kind, n = spec_order
    from chebotarev.groupspec import dihedral_group

    G = {"cyclic": cyclic_group, "symmetric": symmetric_group, "dihedral": dihedral_group}[
        kind
    ](n)
    assert G.order <= 200
    for i in range(G.order):
        assert G.mult(i, G.inv(i)) == 0
        for j in range(G.order):
            assert 0 <= G.mult(i, j) < G.order
    # associativity spot check through the table
    for i, j, k in itertools.islice(
        itertools.product(range(G.order), repeat=3), 2000
    ):
        assert G.mult(G.mult(i, j), k) == G.mult(i, G.mult(j, k))


@pytest.mark.parametrize("tabled", [True, False], ids=["table", "words"])
@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 9"])
def test_mult_is_the_product_of_permutations(spec, tabled, monkeypatch):
    # every entry, not just group axioms: the opposite group (a transposed
    # table) has the same ranges, inverses and associativity
    if not tabled:
        monkeypatch.setattr(perm, "_MULT_TABLE_LIMIT", parse_group(spec).group.order - 1)
    G = parse_group(spec).group
    E = G.elements
    for i in range(G.order):
        assert G.inv(i) == G.index[E[i].inverse().images]
        for j in range(G.order):
            assert G.mult(i, j) == G.index[(E[i] * E[j]).images]
    # and the cached conjugation maps, read off the table or the words
    for g in range(G.order):
        expected = [G.index[(E[g].inverse() * x * E[g]).images] for x in E]
        assert list(G.conj_map(g)) == expected
    # and column reads and closures, which carry many points along a word
    # at once above the table limit
    for j in range(G.order):
        assert list(G.column_at(j, range(G.order))) == [G.mult(i, j) for i in range(G.order)]
    for seeds in itertools.combinations(range(G.order), 2):
        bits, todo = 1, [E[0]]
        while todo:
            x = todo.pop()
            for s in seeds:
                y = G.index[(x * E[s]).images]
                if not (bits >> y) & 1:
                    bits |= 1 << y
                    todo.append(E[y])
        assert G.closure_bits(seeds) == bits
    # every column was read: below the limit all are kept, above it none
    # but the identity
    assert _kept(G) == (list(range(G.order)) if tabled else [0])


def _kept(G):
    # the columns of G's product store that column_at has kept
    return [j for j, col in enumerate(G._columns) if col is not None]


@pytest.mark.parametrize("spec", ["cyclic 1", "cyclic 12", "symmetric 4", "dihedral 9"])
def test_trivial_subgroup_cosets_read_no_column(spec):
    # every element is its own coset of the trivial subgroup, so the first
    # level of a chief series keeps no column
    G = parse_group(spec).group
    reps, cid, cbits = G.right_cosets(1)
    assert reps == cid == list(range(G.order))
    assert cbits == [1 << x for x in range(G.order)]
    assert _kept(G) == [0]


@pytest.mark.parametrize("tabled", [True, False], ids=["table", "words"])
@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 9"])
def test_right_cosets_match_products_and_read_no_column(spec, tabled, monkeypatch):
    # each new coset is its BFS parent's coset read through one Cayley
    # edge, so the partition equals the one from permutation products and
    # no product column is built, below the table limit or above it
    if not tabled:
        monkeypatch.setattr(perm, "_MULT_TABLE_LIMIT", parse_group(spec).group.order - 1)
    G = parse_group(spec).group
    E = G.elements
    for H in all_subgroups(G):
        members = list(H.members())
        cid = [-1] * G.order
        reps, cbits = [], []
        for t in range(G.order):
            if cid[t] < 0:
                coset = [G.index[(E[h] * E[t]).images] for h in members]
                for x in coset:
                    cid[x] = len(reps)
                reps.append(t)
                cbits.append(sum(1 << x for x in coset))
        kept = _kept(G)
        assert G.right_cosets(H.bits) == (reps, cid, cbits)
        assert _kept(G) == kept


@pytest.mark.parametrize("spec", ["cyclic 12", "symmetric 4", "dihedral 9"])
def test_product_keeps_its_ancestor_columns(spec):
    # below the limit a product builds and keeps exactly the columns on
    # its right factor's BFS path to the identity
    G = parse_group(spec).group
    E = G.elements
    i, j = 1, G.order - 1  # the last element is one of the deepest
    assert G.mult(i, j) == G.index[(E[i] * E[j]).images]
    path = {j}
    while j:
        j = G._parent[j]
        path.add(j)
    assert len(path) > 2 and _kept(G) == sorted(path)


@pytest.mark.parametrize("spec", ["cyclic 12", "symmetric 4", "dihedral 9", "quaternion8"])
def test_column_reads_above_the_limit(spec, monkeypatch):
    # above the limit only the identity column is ever kept, and points
    # carried along a word read the same as the tabled group's columns
    tabled = parse_group(spec).group
    n = tabled.order
    table = [tabled.column_at(j, range(n)) for j in range(n)]
    monkeypatch.setattr(perm, "_MULT_TABLE_LIMIT", n - 1)
    G = parse_group(spec).group
    rng = random.Random(spec)
    for trial in range(200):
        j = 0 if trial % 10 == 0 else rng.randrange(n)
        points = rng.choices(range(n), k=1 if trial % 3 == 0 else rng.randint(2, 2 * n))
        assert G.column_at(j, points) == tuple(table[j][x] for x in points)
        assert G.mult(points[0], j) == table[j][points[0]]
    all_subgroups(G)
    conjugacy_classes(G)
    assert _kept(G) == [0]


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_element_order_matches_plain_bfs(spec, group_of):
    G = group_of(spec)
    assert [p.images for p in G.elements] == bfs_element_images(G)


def test_element_indexing_deterministic():
    a = symmetric_group(4)
    b = symmetric_group(4)
    assert [p.images for p in a.elements] == [p.images for p in b.elements]


def test_conjugacy_classes_examples():
    s3 = symmetric_group(3)
    t = conjugacy_classes(s3)
    assert sorted(t.sizes) == [1, 2, 3]
    klein = PermGroup(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    assert conjugacy_classes(klein).sizes == (1, 1, 1, 1)
    assert len(conjugacy_classes(PermGroup(1, [])).reps) == 1


@pytest.mark.parametrize("spec", ["symmetric 3", "symmetric 4", "cyclic 12", "quaternion8"])
def test_class_equation(spec, group_of):
    G = group_of(spec)
    t = conjugacy_classes(G)
    assert sum(t.sizes) == G.order
    assert all(G.order % s == 0 for s in t.sizes)
    assert t.sizes[t.class_of[0]] == 1
    # each class is closed under conjugation by every generator
    for cid, rep in enumerate(t.reps):
        members = [e for e in range(G.order) if t.class_of[e] == cid]
        for g in G._bfs_gen_indices:
            assert all(t.class_of[G.conj(x, g)] == cid for x in members)
        assert t.class_of[rep] == cid


def test_is_soluble():
    assert is_soluble(symmetric_group(3))
    assert is_soluble(cyclic_group(7))
    assert is_soluble(symmetric_group(4))
    assert not is_soluble(alternating_group(5))
    assert not is_soluble(symmetric_group(5))


@pytest.mark.parametrize(
    "spec",
    CATALOG_SPECS
    + ("direct_product alternating 5 symmetric 4", "direct_product symmetric 5 symmetric 3"),
)
def test_is_soluble_matches_derived_series(spec, group_of):
    # solubility read off the chief series against the derived series
    G = group_of(spec)
    assert is_soluble(G) == (derived_series_bits(G)[-1] == 1)


@pytest.mark.parametrize(
    "spec",
    ["symmetric 4", "dihedral 12", "alternating 5", "direct_product alternating 5 cyclic 3"],
)
def test_is_normal_matches_conjugation(spec, group_of):
    # witnesses x generators against conjugating every element, with the
    # lattice's witnesses and with witnesses found on first read
    G = group_of(spec)
    subs = all_subgroups(G)
    expected = [normal_by_conjugation(H) for H in subs]
    assert [H.is_normal() for H in subs] == expected
    assert [Subgroup(G, H.bits).is_normal() for H in subs] == expected
    assert False in expected


@pytest.mark.parametrize(
    "spec",
    ["symmetric 4", "dihedral 6", "quaternion8", "affine 3 1 [[2]] power 2", "alternating 5"],
)
def test_normal_closure_matches_conjugate_closure(spec, group_of):
    G = group_of(spec)
    rng = random.Random(spec)
    for _ in range(25):
        seeds = rng.sample(range(G.order), rng.randint(0, 3))
        assert G.normal_closure_bits(seeds) == normal_closure_by_conjugates(G, seeds)


def test_quotient_examples(group_of):
    s3 = group_of("symmetric 3")
    a3 = Subgroup(s3, s3.normal_closure_bits([next(
        i for i in range(6) if element_order(s3, i) == 3
    )]))
    Q, epi = quotient(s3, a3)
    assert Q.order == 2

    c4 = group_of("cyclic 4")
    c2 = Subgroup.generated(c4, [c4.mult(1, 1)])
    Q2, _ = quotient(c4, c2)
    assert Q2.order == 2

    klein = group_of("elementary 2 2")
    Q3, epi3 = quotient(klein, Subgroup.trivial(klein))
    assert Q3.order == 4


@pytest.mark.parametrize("spec", ["symmetric 3", "cyclic 6", "dihedral 4", "quaternion8"])
def test_quotient_epimorphism_property(spec, group_of):
    G = group_of(spec)
    for N in _normal_subgroups(G):
        Q, epi = quotient(G, N)
        assert Q.order == G.order // N.order
        for a in range(G.order):
            for b in range(G.order):
                assert epi[G.mult(a, b)] == Q.mult(epi[a], epi[b])


@pytest.mark.parametrize("tabled", [True, False], ids=["table", "words"])
@pytest.mark.parametrize("spec", ["symmetric 4", "dihedral 9", "quaternion8", "cyclic 1"])
def test_quotient_matches_products(spec, tabled, monkeypatch):
    # the coset action read off table columns (or generator words above
    # the table limit) gives the same Q, element order and epi as one
    # product per (coset, element) pair, for every normal N including G
    if not tabled:
        monkeypatch.setattr(perm, "_MULT_TABLE_LIMIT", parse_group(spec).group.order - 1)
    G = parse_group(spec).group
    for N in _normal_subgroups(G):
        Q, epi = quotient(G, N)
        Q_ref, epi_ref = quotient_by_mult(G, N)
        assert [g.images for g in Q.generators] == [g.images for g in Q_ref.generators]
        assert [e.images for e in Q.elements] == [e.images for e in Q_ref.elements]
        assert epi == epi_ref
    assert (_kept(G) != [0]) == (tabled and G.order > 1)


def _normal_subgroups(G):
    from chebotarev.subgroups import all_subgroups

    return [s for s in all_subgroups(G) if s.is_normal()]


def test_quotient_requires_normal(group_of):
    s3 = group_of("symmetric 3")
    c2 = next(
        Subgroup.generated(s3, [i])
        for i in range(1, 6)
        if element_order(s3, i) == 2
    )
    with pytest.raises(NotNormalError):
        quotient(s3, c2)


def test_section_centralizer_examples(group_of):
    c6 = group_of("cyclic 6")
    whole = Subgroup.full(c6)
    triv = Subgroup.trivial(c6)
    assert section_centralizer(c6, whole, triv).order == 6  # abelian: everything central

    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    C = section_centralizer(s3, a3, Subgroup.trivial(s3))
    assert C.order == 3 and C.bits == a3.bits

    s4 = group_of("symmetric 4")
    v4 = next(s for s in _normal_subgroups(s4) if s.order == 4)
    C4 = section_centralizer(s4, v4, Subgroup.trivial(s4))
    assert C4.order == 4 and C4.bits == v4.bits


def test_section_centralizer_is_normal_and_contains_y(group_of):
    s4 = group_of("symmetric 4")
    v4 = next(s for s in _normal_subgroups(s4) if s.order == 4)
    C = section_centralizer(s4, v4, Subgroup.trivial(s4))
    assert C.is_normal()
    q8 = group_of("quaternion8")
    center = next(s for s in _normal_subgroups(q8) if s.order == 2)
    klein_sec = next(s for s in _normal_subgroups(q8) if s.order == 4)
    C2 = section_centralizer(q8, klein_sec, center)
    assert C2.is_normal()
    assert center.bits & ~C2.bits == 0  # the centralizer contains Y


def test_section_centralizer_bad_section(group_of):
    s4 = group_of("symmetric 4")
    a4 = next(s for s in _normal_subgroups(s4) if s.order == 12)
    with pytest.raises(BadSectionError):
        # A_4 / 1 is nonabelian
        section_centralizer(s4, a4, Subgroup.trivial(s4))
    v4 = next(s for s in _normal_subgroups(s4) if s.order == 4)
    with pytest.raises(BadSectionError):
        # Y not inside X
        section_centralizer(s4, v4, a4)


def test_sections_of_another_group_are_bad_sections():
    # two separate parses build two distinct groups
    G = parse_group("cyclic 6").group
    H = parse_group("cyclic 6").group
    with pytest.raises(BadSectionError):
        section_centralizer(G, Subgroup.full(H), Subgroup.trivial(G))
    with pytest.raises(BadSectionError):
        quotient(G, Subgroup.trivial(H))


def test_bits_iter():
    assert list(bits_iter(0b10110)) == [1, 2, 4]
    assert list(bits_iter(0)) == []


def test_subgroup_witnesses_generate(group_of):
    G = group_of("symmetric 4")
    from chebotarev.subgroups import all_subgroups

    for s in all_subgroups(G):
        assert G.closure_bits(s.witnesses) == s.bits
        assert s.order == s.bits.bit_count()
