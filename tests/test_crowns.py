import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CATALOG_SPECS,
    brute_derivation_count,
    SOLUBLE_SPECS,
    commutant_field_by_span,
    chief_series_variant,
    classes_by_conjugation,
    complement_by_lattice_scan,
    complements,
    complements_by_lattice_scan,
    crown_summary,
    element_matrices,
    is_complemented,
    mat_identity,
    module_order,
    omega_by_quotient_socles,
    section_centralizer,
    section_kernel,
)
from chebotarev.catalog import SOLUBLE_CATALOG
import chebotarev.crowns
from chebotarev.crowns import (
    _cocycle_solve,
    _complement_system,
    _has_complement,
    chief_series,
    crown_data,
    derivations,
    endo_field,
    factor_module,
    g_isomorphic,
    mat_rank,
    nullspace,
)
from chebotarev.errors import (
    BadSectionError,
    NotAbelianFactorError,
    NotChiefFactorError,
    NotIrreducibleError,
    NotPrimeError,
)
from chebotarev.exact import omega_membership
from chebotarev.groupspec import parse_group
from chebotarev.perm import PermGroup, Permutation, Subgroup, is_soluble, quotient
from chebotarev.subgroups import _cosets, all_subgroups, maximal_classes


@st.composite
def _matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-10, 10), min_size=ncols, max_size=ncols), max_size=7
        )
    )
    return p, ncols, rows


@given(_matrices_mod_p())
def test_rank_and_nullspace_agree(case):
    p, ncols, rows = case
    basis = nullspace(rows, ncols, p)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
    assert len(basis) == ncols - mat_rank(rows, p)
    assert not basis or mat_rank(basis, p) == len(basis)


def _normal_subgroups(G):
    return [s for s in all_subgroups(G) if s.is_normal()]


def test_chief_series_examples(group_of):
    c6 = group_of("cyclic 6")
    s = chief_series(c6)
    assert sorted(s.factor_orders) == [2, 3]

    s3 = group_of("symmetric 3")
    series = chief_series(s3)
    assert sorted(series.factor_orders) == [2, 3]
    assert any(sub.order == 3 for sub in series.subgroups)

    klein = group_of("elementary 2 2")
    assert chief_series(klein).factor_orders == (2, 2)


@pytest.mark.parametrize(
    "spec, variant",
    [
        pytest.param(spec, variant, id=spec if variant == 0 else f"{spec} variant={variant}")
        for spec in CATALOG_SPECS
        for variant in (0, 1)
    ],
)
def test_chief_series_factors_are_chief(spec, variant, group_of):
    G = group_of(spec)
    series = chief_series_variant(G, variant)
    subs = series.subgroups
    assert subs[0].order == G.order and subs[-1].order == 1
    normals = _normal_subgroups(G)
    prod = 1
    for i in range(len(subs) - 1):
        X, Y = subs[i], subs[i + 1]
        assert Y.bits & ~X.bits == 0 and Y.order < X.order
        assert X.is_normal() and Y.is_normal()
        # no G-normal subgroup strictly between
        for N in normals:
            if N.bits & ~X.bits == 0 and Y.bits & ~N.bits == 0:
                assert N.bits in (X.bits, Y.bits)
        prod *= series.factor_orders[i]
        abelian = all(
            (Y.bits >> G.commutator(a, b)) & 1 for a in X.members() for b in X.members()
        )
        assert series.factor_abelian[i] == abelian
    assert prod == G.order


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_chief_series_is_the_oracle_variant_zero(spec, group_of):
    # G's one chief series is the oracle's first choice at every level, so
    # the oracle's variant 1 gives the tests a second series through R
    G = group_of(spec)
    assert chief_series(G) == chief_series_variant(G, 0)


def test_is_complemented_examples(group_of):
    c4 = group_of("cyclic 4")
    c2 = next(s for s in all_subgroups(c4) if s.order == 2)
    assert not is_complemented(c4, c2, Subgroup.trivial(c4))

    klein = group_of("elementary 2 2")
    one_c2 = next(s for s in all_subgroups(klein) if s.order == 2)
    assert is_complemented(klein, one_c2, Subgroup.trivial(klein))

    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    assert is_complemented(s3, a3, Subgroup.trivial(s3))

    with pytest.raises(NotChiefFactorError):
        is_complemented(c4, Subgroup.full(c4), Subgroup.trivial(c4))


@pytest.mark.parametrize("spec", SOLUBLE_CATALOG + ("symmetric 5",))
def test_complement_from_maximal_cores_matches_lattice_scan(spec, group_of):
    G = group_of(spec)
    series = chief_series(G)
    subs = series.subgroups
    for i in range(len(series)):
        if series.factor_abelian[i]:
            X, Y = subs[i], subs[i + 1]
            assert is_complemented(G, X, Y) == complement_by_lattice_scan(G, X, Y)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_crown_deltas_count_the_complemented_abelian_factors(spec, group_of):
    # every complemented abelian factor of the series joins one crown class
    G = group_of(spec)
    cd = crown_data(G)
    series = chief_series(G)
    subs = series.subgroups
    complemented = sum(
        1
        for i in range(len(series))
        if series.factor_abelian[i] and complement_by_lattice_scan(G, subs[i], subs[i + 1])
    )
    assert sum(V.delta for V in cd.A + cd.B) == complemented


# a BFS generator lies in a proper chief-series term X, so it fixes every
# coset of X, and the complement system of X/Y gives it no unknown
LOOPING_SPECS = (
    "elementary 2 3",
    "direct_product cyclic 2 cyclic 4",
    "direct_product cyclic 3 symmetric 3",
)


@pytest.mark.parametrize(
    "spec", tuple(dict.fromkeys(SOLUBLE_SPECS + ("elementary 2 5",) + LOOPING_SPECS))
)
def test_complements_match_lattice_scan(spec, group_of):
    # the solver's complements of every chief factor, over two series, are
    # exactly the subgroups U with U n X = Y and UX = G, each found once
    G = group_of(spec)
    for variant in (0, 1):
        subs = chief_series_variant(G, variant).subgroups
        for X, Y in zip(subs, subs[1:]):
            found = complements(G, X, Y)
            got = {K.bits for K in found}
            assert len(got) == len(found)
            assert got == complements_by_lattice_scan(G, X, Y)
            assert bool(found) == complement_by_lattice_scan(G, X, Y)
            assert all(G.closure_bits(K.witnesses) == K.bits for K in found)


@pytest.mark.parametrize("spec", LOOPING_SPECS)
def test_looping_specs_loop(spec, group_of):
    # the specs above keep the generators inside X covered
    G = group_of(spec)
    for variant in (0, 1):
        subs = chief_series_variant(G, variant).subgroups
        assert any((X.bits >> g) & 1 for X in subs[1:-1] for g in G._bfs_gen_indices)


@pytest.mark.parametrize("spec", LOOPING_SPECS)
def test_complement_systems_move_every_coset(spec, monkeypatch):
    # each complement system hands _cocycle_solve a coset graph with no
    # loop, and one matrix per BFS generator outside X; node c is coset c
    # of _cosets(G, X.bits), and its tree element, that coset's least
    # element, is its tree parent's times its tree edge's generator
    G = parse_group(spec).group  # a fresh group: no complement system kept
    seen = []

    def recording(right, parent, via, gen_mats, *args):
        seen.append((right, parent, via, gen_mats))
        return _cocycle_solve(right, parent, via, gen_mats, *args)

    monkeypatch.setattr(chebotarev.crowns, "_cocycle_solve", recording)
    sections = {}  # each section once, as the system is kept per (X, Y)
    for variant in (0, 1):
        subs = chief_series_variant(G, variant).subgroups
        sections.update(((X.bits, Y.bits), (X, Y)) for X, Y in zip(subs, subs[1:]))
    for X, Y in sections.values():
        seen.clear()
        _complement_system(G, X, Y)
        outside = [g for g in G._bfs_gen_indices if not (X.bits >> g) & 1]
        assert [len(mats) for *_, mats in seen] == [len(outside)]
        right, parent, via, _ = seen[0]
        assert len(right) == len(outside)
        assert all(y != x for targets in right for x, y in enumerate(targets))
        reps, cid, _ = _cosets(G, X.bits)
        assert [list(targets) for targets in right] == [
            [cid[G.mult(t, g)] for t in reps] for g in outside
        ]
        assert len(parent) == len(via) == len(reps)
        for c in range(1, len(reps)):
            assert parent[c] < c
            assert G.mult(reps[parent[c]], outside[via[c]]) == reps[c]


def test_factor_module_central(group_of):
    c6 = group_of("cyclic 6")
    c2 = next(s for s in all_subgroups(c6) if s.order == 2)
    mod = factor_module(c6, c2, Subgroup.trivial(c6))
    assert mod.p == 2 and mod.n_raw == 1
    assert all(M == mat_identity(1) for M in mod.gen_matrices)
    assert mod.h_order == 1 and mod.central
    assert mod.p_fix == 1


def test_factor_module_s3(group_of):
    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    mod = factor_module(s3, a3, Subgroup.trivial(s3))
    assert (mod.p, mod.n_raw, mod.h_order, mod.central) == (3, 1, 2, False)
    assert mod.p_fix == Fraction(1, 2)
    # generator order: transposition inverts, 3-cycle acts trivially
    mats = {m for m in mod.gen_matrices}
    assert mats == {((2,),), ((1,),)}


def test_factor_module_a4(group_of):
    a4 = group_of("alternating 4")
    v4 = next(s for s in _normal_subgroups(a4) if s.order == 4)
    mod = factor_module(a4, v4, Subgroup.trivial(a4))
    assert (mod.p, mod.n_raw, mod.h_order) == (2, 2, 3)
    assert mod.p_fix == Fraction(1, 3)


@pytest.mark.parametrize("spec", SOLUBLE_SPECS)
def test_factor_module_action_matches_section_centralizer(spec, group_of):
    # H is read off the distinct action matrices; check it against the
    # commutator centralizer, and p_fix against a count over all of G
    G = group_of(spec)
    subs = chief_series(G).subgroups
    for X, Y in zip(subs, subs[1:]):
        mod = factor_module(G, X, Y)
        C = section_centralizer(G, X, Y)
        assert section_kernel(mod) == C
        assert mod.h_order * C.order == G.order
        assert mod.central == (C.order == G.order)
        ident = mat_identity(mod.n_raw)
        fixing = sum(
            1
            for M in element_matrices(G, mod.gen_matrices, mod.p)
            if mat_rank(
                [
                    [(M[i][j] - ident[i][j]) % mod.p for j in range(mod.n_raw)]
                    for i in range(mod.n_raw)
                ],
                mod.p,
            )
            < mod.n_raw
        )
        assert mod.p_fix == Fraction(fixing, G.order)


def test_factor_module_rejects_bad_sections(group_of):
    c4 = group_of("cyclic 4")
    with pytest.raises(NotChiefFactorError):
        factor_module(c4, Subgroup.full(c4), Subgroup.trivial(c4))
    c6 = group_of("cyclic 6")
    with pytest.raises(NotChiefFactorError):
        factor_module(c6, Subgroup.full(c6), Subgroup.trivial(c6))
    s4 = group_of("symmetric 4")
    a4 = next(s for s in _normal_subgroups(s4) if s.order == 12)
    with pytest.raises(NotAbelianFactorError):
        factor_module(s4, a4, Subgroup.trivial(s4))


def test_complements_reject_bad_sections(group_of):
    # the complements oracle checks its section as factor_module does, by
    # the same check: a subgroup
    # that is not normal, one of a separately parsed group, and a section
    # with a normal subgroup strictly inside
    s3 = group_of("symmetric 3")
    c2 = next(s for s in all_subgroups(s3) if s.order == 2)
    with pytest.raises(BadSectionError):
        complements(s3, c2, Subgroup.trivial(s3))
    G = parse_group("cyclic 4").group
    H = parse_group("cyclic 4").group
    c2_of_h = next(s for s in all_subgroups(H) if s.order == 2)
    with pytest.raises(BadSectionError):
        complements(G, c2_of_h, Subgroup.trivial(G))
    with pytest.raises(NotChiefFactorError):
        complements(G, Subgroup.full(G), Subgroup.trivial(G))


def test_modules_of_another_group_are_rejected(group_of):
    # a crown class of one group handed to another
    s3, s4 = group_of("symmetric 3"), group_of("symmetric 4")
    with pytest.raises(BadSectionError):
        omega_membership(s4, crown_data(s3).A[0])
    assert omega_membership(s3, crown_data(s3).A[0])


def test_crown_data_is_kept_per_group(group_of):
    # a repeated call returns the kept object
    G = group_of("direct_product symmetric 3 cyclic 6")
    assert crown_data(G) is crown_data(G)


def test_g_isomorphic_examples(group_of):
    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    mod3 = factor_module(s3, a3, Subgroup.trivial(s3))
    assert g_isomorphic(mod3, mod3)

    c6 = group_of("cyclic 6")
    series = chief_series(c6)
    mods = [
        factor_module(c6, series.subgroups[i], series.subgroups[i + 1]) for i in range(2)
    ]
    by_p = {m.p: m for m in mods}
    assert not g_isomorphic(by_p[2], by_p[3])  # prime mismatch is just False

    klein = group_of("elementary 2 2")
    ks = chief_series(klein)
    m1 = factor_module(klein, ks.subgroups[0], ks.subgroups[1])
    m2 = factor_module(klein, ks.subgroups[1], ks.subgroups[2])
    assert g_isomorphic(m1, m2)  # central factors of equal order


def test_g_isomorphic_rejects_reducible_module(group_of):
    # Klein acting trivially on F_2^2: every 2x2 matrix intertwines, and
    # the first basis intertwiner is singular, which Schur's lemma forbids
    # for irreducible modules
    klein = group_of("elementary 2 2")
    ks = chief_series(klein)
    chief = factor_module(klein, ks.subgroups[0], ks.subgroups[1])
    trivial = replace(
        chief, n_raw=2, gen_matrices=tuple(mat_identity(2) for _ in chief.gen_matrices)
    )
    with pytest.raises(NotIrreducibleError):
        g_isomorphic(trivial, trivial)


def test_g_isomorphic_equivalence_relation(group_of):
    G = group_of("direct_product cyclic 6 cyclic 6")
    series = chief_series(G)
    mods = [
        factor_module(G, series.subgroups[i], series.subgroups[i + 1])
        for i in range(len(series))
    ]
    for a in mods:
        assert g_isomorphic(a, a)
        for b in mods:
            assert g_isomorphic(a, b) == g_isomorphic(b, a)
            for c in mods:
                if g_isomorphic(a, b) and g_isomorphic(b, c):
                    assert g_isomorphic(a, c)


def test_endo_field_examples(group_of):
    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    assert endo_field(factor_module(s3, a3, Subgroup.trivial(s3))) == (3, 1)

    a4 = group_of("alternating 4")
    v4 = next(s for s in _normal_subgroups(a4) if s.order == 4)
    # the acting image is C_3 irreducible on F_2^2, so the commutant is F_4
    assert endo_field(factor_module(a4, v4, Subgroup.trivial(a4))) == (4, 1)

    s4 = group_of("symmetric 4")
    v4s = next(s for s in _normal_subgroups(s4) if s.order == 4)
    assert endo_field(factor_module(s4, v4s, Subgroup.trivial(s4))) == (2, 2)


def test_endo_field_of_a_field_extension(group_of):
    # F_2^4 under the companion matrix of the irreducible x^4 + x + 1: the
    # commutant is F_2[C] = F_16, so V is one-dimensional over it
    G = group_of("affine 2 4 [[0,0,0,1],[1,0,0,1],[0,1,0,0],[0,0,1,0]]")
    V16 = next(N for N in chief_series(G).subgroups if N.order == 16)
    V = factor_module(G, V16, Subgroup.trivial(G))
    assert endo_field(V) == commutant_field_by_span(V.gen_matrices, V.p) == (16, 1)


def _direct_sum(A, B):
    n, m = len(A), len(B)
    return tuple(row + (0,) * m for row in A) + tuple((0,) * n + row for row in B)


def test_endo_field_rejects_reducible_modules(group_of):
    # hand-built reducible modules on real groups' generator lists: V + V
    # (commutant M_2(F_4), not commutative), V + 1 (F_4 x F_2, Frobenius
    # fixes a plane) and a Jordan block (a nilpotent that Frobenius kills)
    a4 = group_of("alternating 4")
    v4 = next(s for s in _normal_subgroups(a4) if s.order == 4)
    V = factor_module(a4, v4, Subgroup.trivial(a4))
    s3 = group_of("symmetric 3")
    a3 = next(s for s in _normal_subgroups(s3) if s.order == 3)
    W = factor_module(s3, a3, Subgroup.trivial(s3))
    jordan = ((1, 1), (0, 1))
    for mod, mats in (
        (V, [_direct_sum(M, M) for M in V.gen_matrices]),
        (V, [_direct_sum(M, ((1,),)) for M in V.gen_matrices]),
        (V, [jordan] * len(V.gen_matrices)),
        (W, [jordan] * len(W.gen_matrices)),
    ):
        assert commutant_field_by_span(mats, mod.p) is None
        with pytest.raises(NotIrreducibleError):
            endo_field(replace(mod, gen_matrices=tuple(mats)))


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_endo_field_matches_span_oracle(spec, group_of):
    # every abelian chief factor of the catalog, complemented or not
    G = group_of(spec)
    series = chief_series(G)
    subs = series.subgroups
    for i, abelian in enumerate(series.factor_abelian):
        if abelian:
            V = factor_module(G, subs[i], subs[i + 1])
            assert endo_field(V) == commutant_field_by_span(V.gen_matrices, V.p)


def test_crown_data_examples(group_of):
    klein = group_of("elementary 2 2")
    cd = crown_data(klein)
    assert not cd.A and len(cd.B) == 1
    V = cd.B[0]
    assert (V.delta, V.q, V.n) == (2, 2, 1)

    s3 = group_of("symmetric 3")
    cd3 = crown_data(s3)
    assert len(cd3.A) == 1 and len(cd3.B) == 1
    V3 = cd3.A[0]
    assert (V3.delta, V3.q, V3.n, V3.h_order, V3.theta) == (1, 3, 1, 2, 0)
    assert cd3.B[0].delta == 1

    c4 = group_of("cyclic 4")
    cdc = crown_data(c4)
    assert not cdc.A and len(cdc.B) == 1 and cdc.B[0].delta == 1

    c6 = group_of("cyclic 6")
    cd6 = crown_data(c6)
    assert not cd6.A and sorted(V.p for V in cd6.B) == [2, 3]


def test_crown_delta_series_invariance(group_of):
    # the crown classes read off either series are those of crown_data(G)
    for spec in [
        "elementary 2 2",
        "cyclic 12",
        "symmetric 4",
        "dihedral 6",
        "affine 3 1 [[2]] power 2",
        "direct_product cyclic 6 cyclic 6",
    ]:
        G = group_of(spec)
        cd = crown_data(G)
        got = sorted((V.p, V.n_raw, V.q, V.n, V.delta, V.central, V.h_order) for V in cd.A + cd.B)
        for variant in (0, 1):
            assert crown_summary(G, chief_series_variant(G, variant)) == got


def test_crown_data_m_zero_for_soluble(group_of):
    for spec in ["symmetric 4", "dihedral 6", "affine 2 2 [[0,1],[1,1]] power 2"]:
        cd = crown_data(group_of(spec))
        assert all(V.m == 0 for V in list(cd.A) + list(cd.B))


def test_soluble_m_matches_derivation_search(group_of):
    # recompute m from the cocycle system for non-central classes
    for spec in ["symmetric 3", "symmetric 4", "alternating 4"]:
        G = group_of(spec)
        for V in crown_data(G).A:
            HQ, _ = quotient(G, section_kernel(V))
            assert derivations(HQ, V.gen_matrices, V.p).m == 0


@pytest.mark.parametrize("spec", SOLUBLE_CATALOG)
def test_derivations_match_brute_search_on_catalog(spec, group_of):
    G = group_of(spec)
    for V in crown_data(G).A:
        HQ, _ = quotient(G, section_kernel(V))
        res = derivations(HQ, V.gen_matrices, V.p)
        assert (res.der_count, res.inner_count) == brute_derivation_count(
            HQ, V.gen_matrices, V.p
        )
        assert res.m == V.m == 0


AGL32 = "affine 2 3 [[1,1,0],[0,1,0],[0,0,1]] [[0,0,1],[1,0,0],[0,1,0]]"
SL24_ON_F2_4 = (
    "affine 2 4 [[1,0,1,0],[0,1,0,1],[0,0,1,0],[0,0,0,1]]"
    " [[1,0,0,1],[0,1,1,1],[0,0,1,0],[0,0,0,1]]"
    " [[1,0,0,0],[0,1,0,0],[1,0,1,0],[0,1,0,1]]"
)
RADICAL_SPECS = (
    "direct_product alternating 5 cyclic 3",
    "direct_product symmetric 3 alternating 5",
    "direct_product alternating 5 alternating 4",
    "direct_product symmetric 5 symmetric 3",
)


@pytest.mark.parametrize(
    "spec, order, q, n",
    [(AGL32, 1344, 2, 3), (SL24_ON_F2_4, 960, 4, 2)],
    ids=["AGL(3,2)", "2^4:SL(2,4)"],
)
def test_insoluble_crown_with_nonzero_cohomology(spec, order, q, n, group_of):
    # the natural module of GL(3,2) = SL(3,2) and of SL(2,4), each split
    # by its linear group: H^1 is one-dimensional, so m = 1, and
    # d(G) = 1 + ceil((delta + m) / n) = 2
    from chebotarev.subgroups import min_generators

    G = group_of(spec)
    assert G.order == order
    cd = crown_data(G)
    assert not cd.B and len(cd.A) == 1
    V = cd.A[0]
    assert (V.q, V.n, V.delta, V.m) == (q, n, 1, 1)
    HQ, _ = quotient(G, section_kernel(V))
    assert HQ.order == V.h_order == order // module_order(V)
    der_count, inner_count = brute_derivation_count(HQ, V.gen_matrices, V.p)
    assert der_count == inner_count * q**V.m
    # the solve agrees with the search; over F_4, n / n_V = 2
    res = derivations(HQ, V.gen_matrices, V.p)
    assert (res.der_count, res.inner_count) == (der_count, inner_count)
    # V = R is the bottom factor, and its complements match the derivations
    subs = chief_series(G).subgroups
    assert V.label == f"factor[{len(subs) - 2:02d}]"
    assert len(complements(G, subs[-2], subs[-1])) == der_count
    assert min_generators(G) == 2


def test_insoluble_non_central_class_gets_m(group_of):
    # C_3 inverted by S_3 / C_3 in S_5 x S_3: m was unknown before the
    # derivation count on the acting group
    cd = crown_data(group_of("direct_product symmetric 5 symmetric 3"))
    assert [(V.p, V.h_order, V.m) for V in cd.A] == [(3, 2, 0)]
    assert cd.nonabelian_factors == ((60, True),)


@pytest.mark.parametrize("spec", CATALOG_SPECS + RADICAL_SPECS)
def test_every_crown_class_has_m(spec, group_of):
    G = group_of(spec)
    for V in crown_data(G).A + crown_data(G).B:
        assert V.m is not None
        if not V.central:
            HQ, _ = quotient(G, section_kernel(V))
            assert derivations(HQ, V.gen_matrices, V.p).m == V.m


@pytest.mark.parametrize("variant", [0, 1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        "symmetric 5",
        "direct_product cyclic 2 symmetric 5",
        "direct_product alternating 5 cyclic 3",
        "direct_product symmetric 3 alternating 5",
    ],
)
def test_chief_series_runs_through_the_soluble_radical(spec, variant, group_of):
    # abelian factors first: the bottom run of abelian factors ends at the
    # largest soluble normal subgroup, and every nonabelian factor lies
    # above it and is checked against the lattice scan; variant 0 is G's
    # own series, whose flags crown_data reports
    G = group_of(spec)
    series = chief_series_variant(G, variant)
    subs = series.subgroups
    flags = series.factor_abelian
    top = max((i for i, a in enumerate(flags) if not a), default=-1) + 1
    R = subs[top]
    assert all(flags[top:])
    soluble_normals = [
        N
        for N in _normal_subgroups(G)
        if is_soluble(PermGroup(G.degree, [G.elements[w] for w in N.witnesses]))
    ]
    assert R.bits == max(soluble_normals, key=lambda N: N.order).bits
    assert all(N.bits & ~R.bits == 0 for N in soluble_normals)
    nonab = [(X, Y) for X, Y, a in zip(subs, subs[1:], flags) if not a]
    if variant == 0:
        got = [comp for _, comp in crown_data(G).nonabelian_factors]
    else:
        got = [_has_complement(G, X, Y) for X, Y in nonab]
    assert got == [complement_by_lattice_scan(G, X, Y) for X, Y in nonab]


def test_derivations_reject_misaligned_matrices(group_of):
    # one n x n matrix per generator of H over a prime field, or a typed error
    with pytest.raises(ValueError):
        derivations(group_of("cyclic 2"), [], 3)
    with pytest.raises(ValueError):
        derivations(group_of("symmetric 3"), [((1, 0), (0, 1)), ((1,),)], 2)
    for p in (1, 4):
        with pytest.raises(NotPrimeError):
            derivations(group_of("cyclic 2"), [((p - 1,),)], p)


def test_derivations_reject_matrices_that_are_no_action(group_of):
    # some homomorphism H -> GL(n, p) must send each generator of H to its
    # own matrix: no homomorphism sends C_3's generator to -1, of order 2,
    # and a repeated or an identity generator must get the matrix its twin
    # or the identity gets
    with pytest.raises(ValueError):
        derivations(group_of("cyclic 3"), [((2,),)], 3)
    g = Permutation((1, 0))
    twice = PermGroup(2, [g, g])
    for mats in ([((2,),), ((1,),)], [((1,),), ((2,),)]):
        with pytest.raises(ValueError):
            derivations(twice, mats, 3)
    with_identity = PermGroup(2, [g, Permutation((0, 1))])
    with pytest.raises(ValueError):
        derivations(with_identity, [((2,),), ((2,),)], 3)
    for H, mats in ((twice, [((2,),), ((2,),)]), (with_identity, [((2,),), ((1,),)])):
        res = derivations(H, mats, 3)
        assert (res.der_count, res.inner_count, res.m) == (3, 3, 0)


def test_derivations_inversion_action(group_of):
    c2 = group_of("cyclic 2")
    res = derivations(c2, [((2,),)], 3)
    assert (res.der_count, res.inner_count, res.m) == (3, 3, 0)
    assert brute_derivation_count(c2, [((2,),)], 3) == (3, 3)


@pytest.mark.parametrize(
    "spec, p, counts",
    [("cyclic 2", 3, (1, 1, 0)), ("cyclic 3", 3, (3, 1, 1)), ("elementary 2 2", 2, (4, 1, 2))],
)
def test_derivations_trivial_action_are_homomorphisms(spec, p, counts, group_of):
    # on a trivial module Z^1 = Hom(H, F_p) and B^1 = 0; for cyclic H the
    # only binding equation is the Cayley edge that closes g^|g| = 1
    H = group_of(spec)
    mats = [((1,),)] * len(H.generators)
    res = derivations(H, mats, p)
    assert (res.der_count, res.inner_count, res.m) == counts
    assert brute_derivation_count(H, mats, p) == counts[:2]


def test_derivations_gl22_with_complement_oracle(group_of):
    # S_3 acting as the full linear group of F_2^2; the derivation count
    # must equal the number of complements of the translation subgroup in
    # the affine group (which is S_4 with its Klein normal subgroup).
    s3 = group_of("symmetric 3")
    res = derivations(s3, [((0, 1), (1, 0)), ((0, 1), (1, 1))], 2)
    s4 = group_of("symmetric 4")
    v4 = next(s for s in _normal_subgroups(s4) if s.order == 4)
    complements = [
        U
        for U in all_subgroups(s4)
        if U.order == 6 and U.bits & v4.bits == 1
    ]
    assert res.der_count == len(complements) == 4
    assert res.inner_count == 4
    assert res.m == 0
    assert brute_derivation_count(s3, [((0, 1), (1, 0)), ((0, 1), (1, 1))], 2) == (4, 4)


def _gl32():
    A = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    B = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    vecs = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)][1:]

    def act(M, v):
        return tuple(sum(M[r][c] * v[c] for c in range(3)) % 2 for r in range(3))

    def perm_of(M):
        return Permutation(tuple(vecs.index(act(M, v)) for v in vecs))

    return PermGroup(7, [perm_of(A), perm_of(B)]), [A, B]


def test_derivations_gl32_nonzero_cohomology():
    H, mats = _gl32()
    assert H.order == 168
    res = derivations(H, mats, 2)
    assert (res.der_count, res.inner_count, res.m) == (16, 8, 1)
    assert brute_derivation_count(H, mats, 2) == (16, 8)


def test_derivations_rotation_s4_over_f17():
    # S_4 as the rotation group of the cube, reduced mod 17: 17 does not
    # divide 24, so H^1 = 0 and every derivation is inner; the generator
    # images alone span 17^6 candidates, far beyond exhaustive search
    quarter = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
    third = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]

    def perm_of(M):
        return Permutation(
            tuple(
                axes.index(tuple(sum(M[i][j] * v[j] for j in range(3)) for i in range(3)))
                for v in axes
            )
        )

    H = PermGroup(6, [perm_of(quarter), perm_of(third)])
    assert H.order == 24
    mats = [tuple(tuple(x % 17 for x in row) for row in M) for M in (quarter, third)]
    res = derivations(H, mats, 17)
    assert res.der_count == res.inner_count == 17**3
    assert res.m == 0


def test_omega_membership_examples(group_of):
    s3 = group_of("symmetric 3")
    mx3 = maximal_classes(s3)
    cd3 = crown_data(s3)
    mask_v3 = omega_membership(s3, cd3.A[0])
    # only the transposition class has core 1 and socle isomorphic to V
    orders = [mc.representative.order for mc in mx3]
    assert mask_v3 == 1 << orders.index(2)

    c6 = group_of("cyclic 6")
    mx6 = maximal_classes(c6)
    cd6 = crown_data(c6)
    v3 = next(V for V in cd6.B if V.p == 3)
    mask = omega_membership(c6, v3)
    orders6 = [mc.representative.order for mc in mx6]
    assert mask == 1 << orders6.index(2)  # the index-3 maximal C_2

    klein = group_of("elementary 2 2")
    cdk = crown_data(klein)
    assert len(maximal_classes(klein)) == 3
    assert omega_membership(klein, cdk.B[0]) == 0b111


def test_omega_vxv_case(group_of):
    # (C_3 x C_3) : C_2 with diagonal inversion has delta = 2, but no
    # maximal class has trivial core, so no quotient socle is V x V: the
    # four classes of order 6 have core of order 3 and quotient S_3 with
    # socle V, and the class of order 9 has core of order 9 and quotient C_2
    G = group_of("affine 3 1 [[2]] power 2")
    cd = crown_data(G)
    V = cd.A[0]
    assert V.delta == 2
    mx = maximal_classes(G)
    cores = [classes_by_conjugation(G, {mc.representative.bits})[0][3] for mc in mx]
    assert sorted((mc.representative.order, core.bit_count()) for mc, core in zip(mx, cores)) == [
        (6, 3), (6, 3), (6, 3), (6, 3), (9, 9)
    ]
    members = [mc.representative.order == 6 for mc in mx]
    assert omega_membership(G, V) == sum(1 << i for i, m in enumerate(members) if m)


@pytest.mark.parametrize(
    "spec",
    CATALOG_SPECS
    + (
        "direct_product symmetric 5 symmetric 3",
        "direct_product alternating 5 symmetric 4",
        "direct_product alternating 5 elementary 2 3",
        "alternating 6",
    ),
)
def test_omega_membership_matches_quotient_socles(spec, group_of):
    # the chief factor each maximal class complements gives the masks of
    # the socle modules of explicitly built quotients G/core(M), for every
    # crown class, central or not
    G = group_of(spec)
    mx = maximal_classes(G)
    cd = crown_data(G)
    for V in cd.A + cd.B:
        assert omega_membership(G, V) == omega_by_quotient_socles(G, mx, V)


def test_p_fix_bounds(group_of):
    for spec in ["symmetric 3", "symmetric 4", "alternating 4", "affine 5 1 [[2]]"]:
        G = group_of(spec)
        for V in crown_data(G).A:
            assert Fraction(1, V.h_order) <= V.p_fix <= 1
            HQ, _ = quotient(G, section_kernel(V))
            mats = element_matrices(HQ, V.gen_matrices, V.p)
            vectors = [
                tuple(int(d) for d in _digits(x, V.p, V.n_raw))
                for x in range(1, V.p**V.n_raw)
            ]
            for v in vectors:
                stab = sum(
                    1
                    for M in mats
                    if tuple(
                        sum(M[i][j] * v[j] for j in range(V.n_raw)) % V.p
                        for i in range(V.n_raw)
                    )
                    == v
                )
                assert V.p_fix >= Fraction(stab, HQ.order)


@pytest.mark.parametrize(
    "spec",
    SOLUBLE_CATALOG + (AGL32, SL24_ON_F2_4, "direct_product symmetric 5 symmetric 3"),
)
def test_p_fix_and_h_order_exact(spec, group_of):
    # p_fix is the share of the explicitly built G/C_G(V) whose action
    # matrix fixes a nonzero vector, and |H| is the index of the section
    # centralizer, for every non-central class
    G = group_of(spec)
    subs = chief_series(G).subgroups
    for V in crown_data(G).A:
        i = int(V.label[len("factor[") : -1])
        C = section_centralizer(G, subs[i], subs[i + 1])
        assert V.h_order == G.order // C.order
        HQ, _ = quotient(G, section_kernel(V))
        vectors = [v for v in itertools.product(range(V.p), repeat=V.n_raw) if any(v)]
        fixing = sum(
            1
            for M in element_matrices(HQ, V.gen_matrices, V.p)
            if any(
                all(sum(a * b for a, b in zip(row, v)) % V.p == x for row, x in zip(M, v))
                for v in vectors
            )
        )
        assert V.p_fix == Fraction(fixing, HQ.order)


def _digits(x, p, n):
    out = []
    for _ in range(n):
        out.append(x % p)
        x //= p
    return out
