import importlib.util
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CATALOG_SPECS,
    RANDOM_CASES,
    SOLUBLE_SPECS,
    alive_chain,
    brute_invariable_prob,
    class_unions,
    expected_wait,
    naive_cheb_from_unions,
    naive_prob_from_unions,
    propagated_invariable_prob,
    random_case,
    reduced_unions,
    shuffled_sieves,
)
from chebotarev import exact
from chebotarev.catalog import ELEMENTARY_SWEEP
from chebotarev.groupspec import parse_group
from chebotarev.errors import (
    InvariantError,
    NotPrimeError,
    TooManySievesError,
)
from chebotarev.exact import (
    SieveSystem,
    build_sieves,
    chebotarev_exact,
    chebotarev_of_group,
    decimal_string,
    elementary_abelian_cheb,
    frattini_reduce,
    invariable_gen_prob,
    omega_membership,
    v_property_sum,
)
from chebotarev.crowns import crown_data
from chebotarev.mc import mc_estimate
from chebotarev.perm import conjugacy_classes
from chebotarev.subgroups import MaximalClassData, maximal_classes


def test_build_sieves_examples(group_of):
    s3 = group_of("symmetric 3")
    assert sorted(u.bit_count() for u in reduced_unions(s3)) == [3, 4]
    assert build_sieves(s3).sieve_count == 2

    klein = group_of("elementary 2 2")
    assert [u.bit_count() for u in reduced_unions(klein)] == [2, 2, 2]
    assert build_sieves(klein).sieve_count == 3

    c4 = group_of("cyclic 4")
    assert [u.bit_count() for u in reduced_unions(c4)] == [2]
    assert build_sieves(c4).sieve_count == 1

    trivial = build_sieves(group_of("cyclic 1"))
    assert trivial.sieve_count == 0 and trivial.class_signatures == (0,)


def test_sieve_invariants(group_of):
    for spec in ["symmetric 4", "cyclic 30", "dihedral 6", "quaternion8"]:
        G = group_of(spec)
        S = build_sieves(G)
        unions = reduced_unions(G)
        assert len(unions) == S.sieve_count
        full_mask = (1 << len(unions)) - 1
        assert S.class_signatures[S.class_of[0]] == full_mask
        for u in unions:
            assert u != G.full_bits
            assert u & 1  # every union contains the identity
        for a in unions:
            assert not any(b != a and a & ~b == 0 for b in unions)
        # bit i of an element's class signature says whether the element
        # lies in the i-th union of the oracle's family
        for x in range(G.order):
            sig = S.class_signatures[S.class_of[x]]
            assert [sig >> i & 1 for i in range(len(unions))] == [u >> x & 1 for u in unions]


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_sieves_are_the_reduced_unions_read_at_classes(spec, group_of):
    # the class-level family is the element-level one: the signature of
    # each class holds bit i iff its representative lies in the i-th
    # reduced conjugate-union, the unions built from conjugation orbits
    G = group_of(spec)
    unions = reduced_unions(G)
    sigs = tuple(
        sum(1 << i for i, u in enumerate(unions) if u >> rep & 1)
        for rep in conjugacy_classes(G).reps
    )
    S = build_sieves(G)
    assert (S.sieve_count, S.class_signatures) == (len(unions), sigs)


@pytest.mark.parametrize("spec", ["symmetric 4", "elementary 3 5"])
def test_values_do_not_depend_on_sieve_order(spec, group_of):
    # 3 sieves, and 121, past one 64-bit word: a permutation of the sieve
    # bits maps the chain's states one to one, so no value or count moves
    S = build_sieves(group_of(spec))
    shuffled = shuffled_sieves(S, 7)
    assert shuffled.class_signatures != S.class_signatures
    assert chebotarev_exact(shuffled) == chebotarev_exact(S)
    assert invariable_gen_prob(shuffled, 3) == invariable_gen_prob(S, 3)


def test_build_sieves_is_kept_per_group(group_of):
    G = group_of("symmetric 4")
    assert build_sieves(G) is build_sieves(G)


@pytest.mark.parametrize("union", ["full", "no-identity"])
def test_build_sieves_rejects_bad_unions(union, monkeypatch):
    # hand-built classes whose union covers G, or misses the identity; the
    # group is parsed afresh, as a shared one would hit the memo
    G = parse_group("symmetric 3").group
    real = maximal_classes(G)[0]
    # class 0 is the identity's
    every = (1 << len(conjugacy_classes(G).reps)) - 1
    bad = MaximalClassData(real.representative, every if union == "full" else real.class_mask & ~1)
    monkeypatch.setattr(exact, "maximal_classes", lambda H: [bad])
    with pytest.raises(InvariantError):
        build_sieves(G)


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("cyclic 2", Fraction(2)),
        ("elementary 2 2", Fraction(10, 3)),
        ("symmetric 3", Fraction(19, 5)),
        ("cyclic 6", Fraction(23, 10)),
        ("alternating 4", Fraction(97, 22)),
    ],
)
def test_chebotarev_exact_values(spec, expected, group_of):
    cv = chebotarev_of_group(group_of(spec))
    assert cv.exact == expected


def test_soluble_group_above_the_subgroup_cap(group_of):
    # S4 x S4 x C5 (order 2880) is soluble, so R = G walks no lattice
    G = group_of("direct_product symmetric 4 symmetric 4 cyclic 5")
    cv = chebotarev_of_group(G)
    assert G.order == 2880 and cv.sieve_count == 8
    assert cv.exact == Fraction(
        570234075368108317134500328266622542903297738342551695255413532842804,
        97881531212903473340573133709341818859370861848422251986563924073375,
    )
    assert mc_estimate(build_sieves(G), 100_000, 7).within_sigmas(float(cv.exact), 4.0)


def test_soluble_group_with_many_sieves(group_of):
    # S4 x S4 x 2^3 (order 4608) is soluble and above the table limit, and
    # its 35 reduced sieves take 5984 chain states
    G = group_of("direct_product symmetric 4 symmetric 4 elementary 2 3")
    cv = chebotarev_of_group(G)
    assert G.order == 4608 and cv.sieve_count == 35 and cv.state_count == 5984
    assert cv.exact == Fraction(
        int(
            "45453183606248073919701384123728370089967465356626921504239736075829"
            "750367335101833354550077392421880616840554932721999493"
        ),
        int(
            "62058993379087363920259305218725599138261361887195889636857323970143"
            "74239599165469105020198012983831707422073897537298500"
        ),
    )
    assert mc_estimate(build_sieves(G), 100_000, 7).within_sigmas(float(cv.exact), 4.0)


def test_chebotarev_matches_naive_subset_loop(group_of):
    for spec in ["symmetric 3", "elementary 2 2", "cyclic 30", "symmetric 4", "dihedral 6"]:
        G = group_of(spec)
        S = build_sieves(G)
        got = chebotarev_exact(S).exact
        unions = reduced_unions(G)
        assert len(unions) == S.sieve_count
        assert got == naive_cheb_from_unions(G.order, unions)
        # reduction soundness: the raw (unreduced) family gives the same value
        raw = class_unions(G)
        assert got == naive_cheb_from_unions(G.order, raw)


def test_trivial_group_value(group_of):
    cv = chebotarev_of_group(group_of("cyclic 1"))
    assert cv.exact == 0
    assert cv.sieve_count == 0 and cv.state_count == 1


def test_invariable_gen_prob_examples(group_of):
    s3 = group_of("symmetric 3")
    S = build_sieves(s3)
    assert invariable_gen_prob(S, 0) == 0
    assert invariable_gen_prob(S, 1) == 0
    assert invariable_gen_prob(S, 2) == Fraction(1, 3)
    c2 = build_sieves(group_of("cyclic 2"))
    assert invariable_gen_prob(c2, 1) == Fraction(1, 2)
    # the empty tuple already generates the trivial group
    trivial = build_sieves(group_of("cyclic 1"))
    assert [invariable_gen_prob(trivial, k) for k in range(3)] == [1, 1, 1]


@pytest.mark.parametrize("spec", ["symmetric 3", "cyclic 6", "elementary 2 2", "dihedral 4", "quaternion8", "alternating 4"])
def test_invariable_prob_matches_generation_oracle(spec, group_of):
    # deep oracle: explicit conjugate substitution and closure testing
    G = group_of(spec)
    S = build_sieves(G)
    for k in range(4):
        assert invariable_gen_prob(S, k) == brute_invariable_prob(G, k)


@pytest.mark.parametrize("spec", ["symmetric 3", "symmetric 4", "cyclic 30"])
def test_invariable_prob_monotone(spec, group_of):
    S = build_sieves(group_of(spec))
    probs = [invariable_gen_prob(S, k) for k in range(12)]
    assert all(a <= b for a, b in zip(probs, probs[1:]))
    assert probs[0] == 0
    assert probs[-1] > Fraction(9, 10) or len(probs) < 12 or probs[-1] > 0


def test_prob_naive_oracle(group_of):
    G = group_of("symmetric 4")
    S = build_sieves(G)
    unions = reduced_unions(G)
    assert len(unions) == S.sieve_count
    for k in range(5):
        assert invariable_gen_prob(S, k) == naive_prob_from_unions(G.order, unions, k)


def test_series_consistency_with_tail_bound(group_of):
    # C(G) equals the truncated series sum of (1 - P_I(k)) up to the
    # geometric tail of the largest union weight
    for spec in ["symmetric 3", "elementary 2 2", "cyclic 6", "alternating 4"]:
        G = group_of(spec)
        S = build_sieves(G)
        C = chebotarev_exact(S).exact
        K = 200
        partial = sum((1 - invariable_gen_prob(S, k) for k in range(K + 1)), Fraction(0))
        unions = reduced_unions(G)
        assert len(unions) == S.sieve_count
        q_max = max(Fraction(u.bit_count(), G.order) for u in unions)
        r = len(unions)
        tail_bound = r * q_max ** (K + 1) / (1 - q_max)
        assert abs(C - partial) <= tail_bound


def test_v_property_sum_examples(group_of):
    s3 = group_of("symmetric 3")
    assert v_property_sum(s3, 0) == 0
    # bit i selects class i of maximal_classes(G): S3 has two, so a bit
    # past them selects from another family and raises
    assert len(maximal_classes(s3)) == 2
    assert v_property_sum(s3, 0b11) == Fraction(19, 5)  # every class: C(S3)
    for bad in (0b100, 1 << 10, -1):
        with pytest.raises(ValueError):
            v_property_sum(s3, bad)

    mask = omega_membership(s3, crown_data(s3).A[0])
    # the only qualifying class is the transposition one: union weight 2/3
    total = v_property_sum(s3, mask)
    assert total == sum(Fraction(2, 3) ** k for k in range(80)) + Fraction(
        Fraction(2, 3) ** 80, 1 - Fraction(2, 3)
    )
    assert total == 3

    klein = group_of("elementary 2 2")
    assert v_property_sum(klein, 0b111) == Fraction(10, 3)


def test_v_property_reduction_stays_inside_subfamily(group_of):
    # a union dropped by global reduction must still count when the
    # larger union is outside the selected subfamily: in A5 the S3 and A4
    # classes have one union (the identity, involutions and 3-cycles), which
    # reduction keeps once
    for spec, dropped in (("cyclic 12", 0), ("alternating 5", 1)):
        G = group_of(spec)
        unions = class_unions(G)
        assert len(unions) - build_sieves(G).sieve_count == dropped
        for mask in range(1, 1 << len(unions)):
            selected = [u for i, u in enumerate(unions) if (mask >> i) & 1]
            expect = naive_cheb_from_unions(G.order, selected)
            assert v_property_sum(G, mask) == expect


@pytest.mark.parametrize("spec", SOLUBLE_SPECS)
def test_v_property_sum_matches_naive_omega_sum(spec, group_of):
    # the restricted waiting sum over Omega_V is the inclusion-exclusion
    # sum over exactly the unions of the classes omega_membership selects
    G = group_of(spec)
    unions = class_unions(G)
    for V in crown_data(G).A:
        mask = omega_membership(G, V)
        selected = [u for i, u in enumerate(unions) if (mask >> i) & 1]
        assert v_property_sum(G, mask) == naive_cheb_from_unions(G.order, selected)


def test_elementary_abelian_examples():
    assert elementary_abelian_cheb(2, 2) == Fraction(10, 3)
    assert elementary_abelian_cheb(2, 3) == Fraction(8, 4) + Fraction(8, 6) + Fraction(8, 7)
    assert elementary_abelian_cheb(3, 1) == Fraction(3, 2)
    with pytest.raises(NotPrimeError):
        elementary_abelian_cheb(6, 2)
    with pytest.raises(ValueError):
        elementary_abelian_cheb(2, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_elementary_abelian_five_thirds_sweep(p):
    for delta in range(1, 7):
        value = elementary_abelian_cheb(p, delta)
        lhs = 9 * value * value
        rhs = 25 * p**delta
        if (p, delta) == (2, 2):
            assert lhs == rhs
        else:
            assert lhs < rhs


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5))
def test_elementary_abelian_upper_estimate(p, delta):
    # the closed form never exceeds delta + p/(p-1)^2
    value = elementary_abelian_cheb(p, delta)
    assert value <= delta + Fraction(p, (p - 1) ** 2)
    assert value > delta  # each summand exceeds 1


def test_frattini_reduce_examples(group_of):
    c4 = group_of("cyclic 4")
    assert frattini_reduce(c4).order == 2
    klein = group_of("elementary 2 2")
    assert frattini_reduce(klein).order == 4
    q8 = group_of("quaternion8")
    reduced = frattini_reduce(q8)
    assert reduced.order == 4
    assert all(reduced.mult(i, i) == 0 for i in range(4))  # Klein image
    # idempotent
    assert frattini_reduce(reduced).order == 4


def test_too_many_sieves(group_of):
    G = group_of("elementary 2 5")  # 31 hyperplanes
    S = build_sieves(G)
    assert S.sieve_count == len(reduced_unions(G)) == 31
    cv = chebotarev_exact(S)
    assert cv.exact == elementary_abelian_cheb(2, 5)
    assert cv.state_count == 374
    # a tightened cap rejects a family the default would accept
    S3 = build_sieves(group_of("elementary 2 3"))
    with pytest.raises(TooManySievesError):
        chebotarev_exact(S3, max_sieves=5)
    assert chebotarev_exact(S3, max_sieves=7).exact == elementary_abelian_cheb(2, 3)


def test_decimal_rendering():
    assert decimal_string(Fraction(10, 3), 20).startswith("3.33333333333333333")
    assert decimal_string(Fraction(0), 20) == "0"
    assert decimal_string(Fraction(19, 5), 6) == "3.8"  # exact, no padding
    assert decimal_string(Fraction(104, 21), 6) == "4.95238"


@pytest.mark.parametrize(
    "spec",
    ["cyclic 4", "cyclic 8", "cyclic 9", "quaternion8", "dihedral 4"],
)
def test_frattini_invariance_of_value(spec, group_of):
    G = group_of(spec)
    reduced = frattini_reduce(G)
    assert chebotarev_of_group(G).exact == chebotarev_of_group(reduced).exact


@st.composite
def synthetic_sieves(draw):
    """Singleton classes on n points and r proper unions through point 0."""
    n = draw(st.integers(2, 12))
    unions = draw(
        st.lists(
            st.integers(0, (1 << (n - 1)) - 2).map(lambda x: x << 1 | 1),
            min_size=1,
            max_size=8,
        )
    )
    sigs = tuple(
        sum(1 << j for j, u in enumerate(unions) if (u >> c) & 1) for c in range(n)
    )
    S = SieveSystem(
        order=n,
        class_sizes=(1,) * n,
        class_of=tuple(range(n)),
        raw_unions=tuple(unions),
        sieve_count=len(unions),
        class_signatures=sigs,
    )
    return S, unions


@given(synthetic_sieves(), st.integers(0, 4))
def test_chain_matches_naive_subset_sums(system, k):
    S, unions = system
    n = S.order
    assert chebotarev_exact(S).exact == naive_cheb_from_unions(n, unions)
    assert invariable_gen_prob(S, k) == naive_prob_from_unions(n, unions, k)


def test_covering_union_is_an_invariant_error():
    # one union covers every class, so the full alive mask is kept by every
    # draw and the wait is infinite: a typed refusal, not a division by zero
    # (such a union violates the build_sieves invariants, so this system is
    # constructed by hand, as in test_mc)
    broken = SieveSystem(
        order=2,
        class_sizes=(1, 1),
        class_of=(0, 1),
        raw_unions=(0b11,),
        sieve_count=1,
        class_signatures=(1, 1),
    )
    with pytest.raises(InvariantError):
        chebotarev_exact(broken)


def _insoluble_specs():
    # scripts/report_digest.py's INSOLUBLE_SPECS, loaded as a module
    path = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.INSOLUBLE_SPECS


# the catalogs, the digest's insoluble groups, the closed-form sweep and
# S4^3, whose law has 146 terms, then the random groups
LAW_SPECS = tuple(
    dict.fromkeys(
        CATALOG_SPECS
        + _insoluble_specs()
        + tuple(f"elementary {p} {d}" for p, d in ELEMENTARY_SWEEP)
        + ("direct_product symmetric 4 symmetric 4 symmetric 4",)
    )
) + tuple(f"random {f} {s}" for f, s in RANDOM_CASES)


@pytest.mark.parametrize("spec", LAW_SPECS)
def test_law_readings_match_chain_propagation(spec, group_of):
    # C(G), P_I(G, k) and every restricted sum over Omega_V are readings of
    # the wait's law; the oracles solve the expectation and carry k-step
    # weights over the chain built by reading every class at every mask,
    # and the walk reaches the masks that chain holds
    if spec.startswith("random "):
        _, family, seed = spec.split()
        G = random_case(family, int(seed))
    else:
        G = group_of(spec)
    S = build_sieves(G)
    chain = alive_chain(S.class_sizes, S.class_signatures)
    value = chebotarev_exact(S)
    assert value.exact == expected_wait(G.order, chain)
    assert value.state_count == len(chain)
    for k in range(7):
        assert invariable_gen_prob(S, k) == propagated_invariable_prob(G.order, chain, k)
    sizes = conjugacy_classes(G).sizes
    classes = maximal_classes(G)
    for V in crown_data(G).A:
        mask = omega_membership(G, V)
        selected = [mc.class_mask for i, mc in enumerate(classes) if mask >> i & 1]
        sigs = exact._signatures(selected, len(sizes))
        sub = alive_chain(sizes, sigs)
        assert v_property_sum(G, mask) == expected_wait(G.order, sub)


def test_law_refuses_a_mask_below_that_stays_as_long():
    # a class of size 0 moves 0b11 to 0b01, which then keeps exactly the
    # one element 0b11 keeps. No group has an empty class, and the classes
    # that move a mask to t also keep t, so on a group every successor of
    # a reached mask stays strictly longer
    with pytest.raises(InvariantError):
        exact._wait_law((1, 0, 1), (0b11, 0b01, 0))


def test_law_refuses_a_fractional_coefficient(monkeypatch):
    # no sizes and signatures reach this guard: by inclusion-exclusion over
    # the masks each coefficient is a sum of Moebius values, an integer, so
    # every division is exact. A divmod that leaves a remainder stands in
    # for the fault. Here 0b11, which stays 1 of 3, moves to 0b01, whose
    # law is {2: 1}, and takes 1 / (2 - 1) at 2
    sizes, sigs = (1, 1, 1), (0b11, 0b01, 0)
    assert exact._wait_law(sizes, sigs) == ({2: 1}, 3)
    monkeypatch.setattr(exact, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InvariantError):
        exact._wait_law(sizes, sigs)


def test_covering_union_readings(monkeypatch):
    # the term that stays for every draw: P_I reads it as the propagation
    # does (no tuple ever generates), and the restricted sum refuses it as
    # C(G) does
    broken = SieveSystem(
        order=2,
        class_sizes=(1, 1),
        class_of=(0, 1),
        raw_unions=(0b11,),
        sieve_count=1,
        class_signatures=(1, 1),
    )
    chain = alive_chain(broken.class_sizes, broken.class_signatures)
    assert exact._wait_law(broken.class_sizes, broken.class_signatures) == ({2: 1}, 1)
    for k in range(4):
        assert invariable_gen_prob(broken, k) == propagated_invariable_prob(2, chain, k) == 0
    G = parse_group("symmetric 3").group
    every = (1 << len(conjugacy_classes(G).reps)) - 1
    covering = MaximalClassData(maximal_classes(G)[0].representative, every)
    monkeypatch.setattr(exact, "maximal_classes", lambda H: [covering])
    with pytest.raises(InvariantError):
        v_property_sum(G, 1)


def test_traced_peak_per_mask(group_of):
    # the walk keeps one law index a mask and the moves along its path, not
    # every mask's moves: elementary 3 5 (2664 masks) peaks at about 72
    # bytes a mask, where a stored chain peaked at about 1000. tracemalloc
    # counts allocations, so this involves no timing
    S = build_sieves(group_of("elementary 3 5"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = chebotarev_exact(S)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert value.state_count == 2664
    assert peak / value.state_count < 300


@pytest.mark.parametrize("k", [True, 2.0, -1], ids=["bool", "float", "negative"])
def test_invariable_gen_prob_rejects_k(k, group_of):
    # the law reads m^k, so a float k would come back as a float
    with pytest.raises(ValueError):
        invariable_gen_prob(build_sieves(group_of("symmetric 3")), k)
