import math

import pytest

from oracles import element_order
from chebotarev import perm
from chebotarev.cli import main
from chebotarev.errors import NotPrimeError, OrderCapError, ParseError, SingularMatrixError
from chebotarev.groupspec import (
    PERM_DEGREE_LIMIT,
    affine_group,
    alternating_group,
    check_prime,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    parse_group,
    quaternion_group,
    symmetric_group,
)
from chebotarev.perm import is_soluble
from chebotarev.subgroups import _least_prime


def test_constructor_orders():
    assert cyclic_group(1).order == 1
    assert cyclic_group(12).order == 12
    assert elementary_abelian_group(3, 2).order == 9
    assert dihedral_group(7).order == 14
    assert symmetric_group(4).order == 24
    assert alternating_group(3).order == 3
    assert alternating_group(4).order == 12
    assert alternating_group(5).order == 60
    assert alternating_group(6).order == 360
    assert quaternion_group().order == 8


def test_quaternion_structure():
    q8 = quaternion_group()
    orders = sorted(element_order(q8, i) for i in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # one involution


def test_direct_product_orders():
    g = direct_product([cyclic_group(2), symmetric_group(3)])
    assert g.order == 12
    assert is_soluble(g)


def test_least_prime_and_check_prime():
    # one trial division up to isqrt(n) for both: the least prime divisor,
    # and primality as "p >= 2 and its own least prime divisor"
    for n in range(2, 2000):
        assert _least_prime(n) == next(d for d in range(2, n + 1) if n % d == 0)
    primes = {n for n in range(2, 300) if _least_prime(n) == n}
    assert len(primes) == 62
    for n in range(-3, 300):
        if n in primes:
            check_prime(n)
        else:
            with pytest.raises(NotPrimeError):
                check_prime(n)


def test_elementary_requires_prime():
    with pytest.raises(NotPrimeError):
        elementary_abelian_group(4, 2)


def test_affine_examples():
    a4 = affine_group(2, 2, [[[0, 1], [1, 1]]])
    assert a4.order == 12
    assert affine_group(2, 2, [[[0, 1], [1, 1]]], power=2).order == 48
    # no matrices: the regular representation of an elementary abelian group
    reg = affine_group(3, 1, [], power=2)
    assert reg.order == 9 and reg.degree == 9
    f20 = affine_group(5, 1, [[[2]]])
    assert f20.order == 20


def test_affine_rejects_singular_matrix():
    with pytest.raises(SingularMatrixError):
        affine_group(2, 2, [[[1, 1], [1, 1]]])


def test_parse_examples():
    assert parse_group("cyclic 6").group.order == 6
    assert parse_group("elementary 2 2").group.order == 4
    parsed = parse_group("affine 2 2 [[0,1],[1,1]]")
    assert parsed.group.order == 12
    assert parsed.label == "affine 2 2 [[0,1],[1,1]]"


def test_parse_perm_with_cycles():
    parsed = parse_group("perm 5 (1 2 3)(4 5) (1 2)")
    assert parsed.group.degree == 5
    assert parsed.group.order == 12  # S_3 x C_2 inside S_5
    full = parse_group("perm 5 (1 2 3 4 5) (1 2)")
    assert full.group.order == 120
    single = parse_group("perm 3 (1 2 3)")
    assert single.group.order == 3
    ident = parse_group("perm 4 ()")
    assert ident.group.order == 1


def test_parse_direct_product_nested():
    parsed = parse_group("direct_product cyclic 2 affine 3 1 [[2]]")
    assert parsed.group.order == 12


def test_parse_power_suffix():
    parsed = parse_group("affine 3 1 [[2]] power 2")
    assert parsed.group.order == 18


def test_labels_reparse_to_same_order():
    for spec in [
        "cyclic 9",
        "dihedral 6",
        "affine 2 2 [[0,1],[1,1]] power 2",
        "direct_product cyclic 3 symmetric 3",
        "perm 4 (1 2)(3 4) (1 3)(2 4)",
    ]:
        first = parse_group(spec)
        again = parse_group(first.label)
        assert again.group.order == first.group.order


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "cyclic",
        "cyclic x",
        "unknown 3",
        "direct_product cyclic 2",
        "cyclic 3 extra",
        "affine 2 2 [[0,1],[1,1]] power",
        "perm 3 (1 2",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_group(bad)


def test_deep_nesting_is_a_parse_error(capsys):
    # nesting past the interpreter's recursion limit is a usage error (exit
    # 2), not a RecursionError traceback (exit 1, the code for FAIL)
    tokens = [*["direct_product"] * 1200, "cyclic", "2", "cyclic", "2"]
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_group(" ".join(tokens))
    assert main(["exact", *tokens]) == 2
    assert capsys.readouterr().err == "error: group spec nests too deeply\n"


def test_symmetric_factorial_orders():
    for n in range(1, 6):
        assert symmetric_group(n).order == math.factorial(n)


@pytest.fixture
def permgroup_calls(monkeypatch):
    # records every PermGroup construction, then builds it as usual
    calls = []
    original = perm.PermGroup.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(perm.PermGroup, "__init__", spy)
    return calls


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic 20001",
        "cyclic 99999999999",
        "dihedral 10001",
        "elementary 2 15",
        "elementary 2 99999999999",
        "symmetric 100000",
        "alternating 9",
        "affine 2 15",
        "affine 2 3 power 99999999999",
        "direct_product cyclic 200 cyclic 101",
    ],
)
def test_order_cap_refuses_before_building(spec, permgroup_calls, capsys):
    # the closed-form order (for affine, its point count) is checked first,
    # so no permutation of the oversized group is built; a direct product
    # builds only its factors
    with pytest.raises(OrderCapError):
        parse_group(spec)
    assert all(args[0] <= 200 for args in permgroup_calls)
    if not spec.startswith("direct_product"):
        assert permgroup_calls == []
    assert main(["exact", *spec.split()]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_perm_degree_limit_refuses_before_building(permgroup_calls, monkeypatch, capsys):
    # an order-2 group on two million points: its degree is refused before
    # any permutation of that length is built
    parsed = []
    original = perm.Permutation.from_cycle_string.__func__
    monkeypatch.setattr(
        perm.Permutation,
        "from_cycle_string",
        classmethod(lambda cls, *args: parsed.append(args) or original(cls, *args)),
    )
    with pytest.raises(OrderCapError):
        parse_group(f"perm {PERM_DEGREE_LIMIT + 1} (1 2)")
    assert parsed == [] and permgroup_calls == []
    assert main(["exact", "perm", "2000000", "(1 2)"]) == 2
    assert "degree 2000000 exceeds the limit" in capsys.readouterr().err
    assert parsed == [] and permgroup_calls == []
    assert parse_group(f"perm {PERM_DEGREE_LIMIT} (1 2)").group.order == 2


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda cap: cyclic_group(12, order_cap=cap), 12),
        (lambda cap: dihedral_group(5, order_cap=cap), 10),
        (lambda cap: elementary_abelian_group(2, 3, order_cap=cap), 8),
        (lambda cap: symmetric_group(5, order_cap=cap), 120),
        (lambda cap: alternating_group(6, order_cap=cap), 360),
    ],
)
def test_order_cap_is_inclusive(build, order, permgroup_calls):
    assert build(order).order == order
    permgroup_calls.clear()
    with pytest.raises(OrderCapError):
        build(order - 1)
    assert permgroup_calls == []


def test_affine_cap_checks_the_point_count(permgroup_calls):
    # order 20 on 5 points: the point count is a lower bound on the order
    assert affine_group(5, 1, [[[2]]], order_cap=20).order == 20
    with pytest.raises(OrderCapError):
        affine_group(5, 1, [[[2]]], order_cap=19)
    permgroup_calls.clear()
    with pytest.raises(OrderCapError):
        affine_group(5, 1, [[[2]]], order_cap=4)
    assert permgroup_calls == []


@pytest.mark.parametrize(
    "spec, label, degree, gens",
    [
        ("cyclic 06", "cyclic 6", 6, ["(1 2 3 4 5 6)"]),
        ("elementary 3 2", "elementary 3 2", 6, ["(1 2 3)", "(4 5 6)"]),
        ("dihedral 5", "dihedral 5", 5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
        ("symmetric 4", "symmetric 4", 4, ["(1 2)", "(1 2 3 4)"]),
        ("alternating 5", "alternating 5", 5, ["(1 2 3)", "(1 2 3 4 5)"]),
        ("alternating 6", "alternating 6", 6, ["(1 2 3)", "(2 3 4 5 6)"]),
        ("quaternion8", "quaternion8", 8, ["(1 3 2 4)(5 8 6 7)", "(1 5 2 6)(3 7 4 8)"]),
        ("affine 5 1 [[2]] power 1", "affine 5 1 [[2]]", 5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
        (
            "affine 3 1 [[2]] power 2",
            "affine 3 1 [[2]] power 2",
            9,
            ["(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)", "(2 3)(4 7)(5 9)(6 8)"],
        ),
        (
            "affine 2 2 [[0,1],[1,1]] power 2",
            "affine 2 2 [[0,1],[1,1]] power 2",
            16,
            [
                "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)",
                "(1 3)(2 4)(5 7)(6 8)(9 11)(10 12)(13 15)(14 16)",
                "(1 5)(2 6)(3 7)(4 8)(9 13)(10 14)(11 15)(12 16)",
                "(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)",
                "(2 3 4)(5 9 13)(6 11 16)(7 12 14)(8 10 15)",
            ],
        ),
        (
            "direct_product cyclic 2 direct_product cyclic 3 symmetric 3",
            "direct_product cyclic 2 direct_product cyclic 3 symmetric 3",
            8,
            ["(1 2)", "(3 4 5)", "(6 7)", "(6 7 8)"],
        ),
        ("perm 5 (1,2,3)(4 5) (2 1)", "perm 5 (1 2 3)(4 5) (1 2)", 5, ["(1 2 3)(4 5)", "(1 2)"]),
    ],
)
def test_constructors_keep_their_generators(spec, label, degree, gens):
    # C(G) and the crown data do not depend on element order, so the report
    # digest cannot see a relabelled element table; the generator images pin it
    parsed = parse_group(spec)
    assert parsed.label == label
    assert parsed.group.degree == degree
    assert [g.cycle_string() for g in parsed.group.generators] == gens
