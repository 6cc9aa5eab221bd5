"""Group constructors and the line-oriented group specification grammar.

Spec syntax (tokens are space separated; permutation cycles may contain
spaces inside their parentheses, matrices must not contain spaces):

    cyclic N
    elementary P D
    dihedral N                      (order 2N, N >= 3)
    symmetric N
    alternating N
    quaternion8
    direct_product SPEC SPEC...
    affine P NRAW [MAT...] [power DELTA]
    perm DEGREE CYCLES...

The heads that read a fixed number of integers (``cyclic`` through
``quaternion8``) are one table, ``_CONSTRUCTORS``, of head -> (builder,
argument names); their label is the head and its integers. ``quaternion8``
is Q8's regular representation, written as two fixed permutations.
``direct_product``, ``affine`` and ``perm`` read their own tails.

``affine`` builds the semidirect product of DELTA diagonal copies of
F_p^NRAW with the matrix group generated by the listed invertible
matrices (no matrices gives the plain translation group, i.e. the
regular representation of an elementary abelian group), acting on the
p^(NRAW*DELTA) vectors. Matrices are JSON row lists like
``[[0,1],[1,1]]``. Permutations use 1-based cycle notation; ``perm``
refuses a DEGREE above ``PERM_DEGREE_LIMIT`` (20 000, the largest degree
another constructor reaches at the default order cap) with
``OrderCapError`` before it builds any permutation, since the order cap
never sees the degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .crowns import _vector_images, mat_rank
from .errors import OrderCapError, ParseError, SingularMatrixError
from .perm import DEFAULT_ORDER_CAP, PermGroup, Permutation
from .subgroups import check_prime

PERM_DEGREE_LIMIT = DEFAULT_ORDER_CAP


def _refuse_order(exceeds: bool, order_cap: int) -> None:
    # constructors check their closed-form order (or a lower bound on it)
    # before building a single permutation
    if exceeds:
        raise OrderCapError(f"group order exceeds cap {order_cap}")


def _power_exceeds(p: int, k: int, cap: int) -> bool:
    # p**k > cap for p >= 2, without building p**k for a huge k
    return k > cap.bit_length() or p**k > cap


def _factorial_exceeds(n: int, cap: int) -> bool:
    # n! > cap, multiplying only until the product passes cap
    out = 1
    for k in range(2, n + 1):
        out *= k
        if out > cap:
            return True
    return False


def cyclic_group(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    _refuse_order(n > order_cap, order_cap)
    if n == 1:
        return PermGroup(1, [], order_cap=order_cap)
    images = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [Permutation(images)], order_cap=order_cap)


def direct_product(
    groups: list[PermGroup], *, order_cap: int = DEFAULT_ORDER_CAP
) -> PermGroup:
    """Product acting on the disjoint union of the factors' points."""
    if not groups:
        raise ValueError("direct product needs at least one factor")
    order = 1
    for g in groups:
        order *= g.order
    _refuse_order(order > order_cap, order_cap)
    degree = sum(g.degree for g in groups)
    gens: list[Permutation] = []
    offset = 0
    for g in groups:
        for p in g.generators:
            images = list(range(degree))
            for pt, im in enumerate(p.images):
                images[offset + pt] = offset + im
            gens.append(Permutation(tuple(images)))
        offset += g.degree
    return PermGroup(degree, gens, order_cap=order_cap)


def elementary_abelian_group(
    p: int, d: int, *, order_cap: int = DEFAULT_ORDER_CAP
) -> PermGroup:
    if d < 1:
        raise ValueError("rank must be >= 1")
    _refuse_order(p >= 2 and _power_exceeds(p, d, order_cap), order_cap)
    check_prime(p)
    return direct_product([cyclic_group(p)] * d, order_cap=order_cap)


def dihedral_group(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    if n < 3:
        raise ValueError("dihedral parameter must be >= 3 (order 2n)")
    _refuse_order(2 * n > order_cap, order_cap)
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    flip = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, flip], order_cap=order_cap)


def symmetric_group(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric degree must be >= 1")
    _refuse_order(_factorial_exceeds(n, order_cap), order_cap)
    if n == 1:
        return PermGroup(1, [], order_cap=order_cap)
    gens = [Permutation((1, 0) + tuple(range(2, n)))]
    if n >= 3:
        gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
    return PermGroup(n, gens, order_cap=order_cap)


def alternating_group(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    if n < 3:
        raise ValueError("alternating degree must be >= 3")
    _refuse_order(_factorial_exceeds(n, 2 * order_cap), order_cap)
    three = list(range(n))
    three[0], three[1], three[2] = 1, 2, 0
    gens = [Permutation(tuple(three))]
    if n > 3:
        if n % 2 == 1:
            # an n-cycle is even for odd n
            gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
        else:
            # an (n-1)-cycle fixing the first point is even for even n
            gens.append(
                Permutation(tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)]))
            )
    return PermGroup(n, gens, order_cap=order_cap)


def quaternion_group(*, order_cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """The order-8 quaternion group in its regular representation.

    Points 1..8 are 1, -1, i, -i, j, -j, k, -k, and the two generators
    are right multiplication by i and by j.
    """
    gens = [
        Permutation.from_cycle_string(cycles, 8)
        for cycles in ("(1 3 2 4)(5 8 6 7)", "(1 5 2 6)(3 7 4 8)")
    ]
    return PermGroup(8, gens, order_cap=order_cap)


def affine_group(
    p: int,
    n_raw: int,
    matrices: list[list[list[int]]],
    power: int = 1,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> PermGroup:
    """(F_p^n_raw)^power semidirect the matrix group, acting diagonally.

    Points are the p^(n_raw*power) vectors in mixed-radix order;
    generators are the translations by standard basis vectors together
    with the block-diagonal action of each matrix. The translations alone
    have order p^(n_raw*power), so that count is checked against the cap.
    """
    if n_raw < 1 or power < 1:
        raise ValueError("dimensions must be >= 1")
    dim = n_raw * power
    _refuse_order(p >= 2 and _power_exceeds(p, dim, order_cap), order_cap)
    check_prime(p)
    npoints = p**dim
    for M in matrices:
        # a JSON matrix token may hold floats, null, booleans or nesting
        if not (isinstance(M, list) and len(M) == n_raw and all(
            isinstance(r, list) and len(r) == n_raw and all(type(x) is int for x in r) for r in M
        )):
            raise ValueError(f"matrix {M} is not a {n_raw} x {n_raw} integer matrix")
        if mat_rank([list(r) for r in M], p) != n_raw:
            raise SingularMatrixError(f"matrix {M} is singular mod {p}")

    gens: list[Permutation] = []
    for coord in range(dim):
        step = p**coord
        images = [0] * npoints
        for i in range(npoints):
            digit = (i // step) % p
            images[i] = i + step if digit < p - 1 else i - step * (p - 1)
        gens.append(Permutation(tuple(images)))
    for M in matrices:
        # M on the p^n_raw points of one block; a point's image is that of
        # its digits in each block, block by block
        images = on_block = _vector_images(p, n_raw, M)
        for _ in range(power - 1):
            step = len(images)
            images = [x + step * y for y in on_block for x in images]
        gens.append(Permutation(tuple(images)))
    return PermGroup(npoints, gens, order_cap=order_cap)


# -- grammar ---------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    """Split a spec line into tokens; adjacent cycle groups form one token."""
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            start = i
            while i < n and text[i] == "(":
                close = text.find(")", i)
                if close < 0:
                    raise ParseError(f"unbalanced parenthesis in {text!r}")
                i = close + 1
            tokens.append(text[start:i])
            continue
        start = i
        while i < n and not text[i].isspace():
            i += 1
        tokens.append(text[start:i])
    return tokens


def _take_int(tokens: list[str], pos: int, what: str) -> tuple[int, int]:
    if pos >= len(tokens):
        raise ParseError(f"expected {what}, got end of input")
    try:
        return int(tokens[pos]), pos + 1
    except ValueError:
        raise ParseError(f"expected {what}, got {tokens[pos]!r}") from None


# the heads that read a fixed number of integers: head -> (constructor,
# what each integer is); the label is the head and the integers
_CONSTRUCTORS = {
    "cyclic": (cyclic_group, ("order",)),
    "elementary": (elementary_abelian_group, ("prime", "rank")),
    "dihedral": (dihedral_group, ("parameter",)),
    "symmetric": (symmetric_group, ("degree",)),
    "alternating": (alternating_group, ("degree",)),
    "quaternion8": (quaternion_group, ()),
}


@dataclass(frozen=True)
class ParsedGroup:
    group: PermGroup
    label: str


def _parse_spec(
    tokens: list[str], pos: int, order_cap: int
) -> tuple[PermGroup, str, int]:
    if pos >= len(tokens):
        raise ParseError("empty group spec")
    head = tokens[pos]
    pos += 1
    try:
        if head in _CONSTRUCTORS:
            build, names = _CONSTRUCTORS[head]
            args = []
            for what in names:
                n, pos = _take_int(tokens, pos, what)
                args.append(n)
            label = " ".join([head, *map(str, args)])
            return build(*args, order_cap=order_cap), label, pos
        if head == "direct_product":
            factors: list[PermGroup] = []
            labels: list[str] = []
            while pos < len(tokens):
                g, lab, pos = _parse_spec(tokens, pos, order_cap)
                factors.append(g)
                labels.append(lab)
            if len(factors) < 2:
                raise ParseError("direct_product needs at least two factors")
            return (
                direct_product(factors, order_cap=order_cap),
                "direct_product " + " ".join(labels),
                pos,
            )
        if head == "affine":
            p, pos = _take_int(tokens, pos, "prime")
            n_raw, pos = _take_int(tokens, pos, "dimension")
            mats: list[list[list[int]]] = []
            while pos < len(tokens) and tokens[pos].startswith("["):
                try:
                    mat = json.loads(tokens[pos])
                except json.JSONDecodeError:
                    raise ParseError(f"bad matrix token {tokens[pos]!r}") from None
                mats.append(mat)
                pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos] == "power":
                power, pos = _take_int(tokens, pos + 1, "power")
            label = f"affine {p} {n_raw}"
            if mats:
                label += " " + " ".join(
                    json.dumps(m, separators=(",", ",")) for m in mats
                )
            if power != 1:
                label += f" power {power}"
            return (
                affine_group(p, n_raw, mats, power, order_cap=order_cap),
                label,
                pos,
            )
        if head == "perm":
            degree, pos = _take_int(tokens, pos, "degree")
            if degree > PERM_DEGREE_LIMIT:
                raise OrderCapError(
                    f"permutation degree {degree} exceeds the limit {PERM_DEGREE_LIMIT}"
                )
            gens: list[Permutation] = []
            while pos < len(tokens) and tokens[pos].startswith("("):
                gens.append(Permutation.from_cycle_string(tokens[pos], degree))
                pos += 1
            label = f"perm {degree} " + " ".join(g.cycle_string() for g in gens)
            return PermGroup(degree, gens, order_cap=order_cap), label.strip(), pos
    except ValueError as exc:
        # constructor argument errors are usage errors, like bad syntax
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown group constructor {head!r}")


def parse_group(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> ParsedGroup:
    """Parse one group spec line into a constructed group with its label."""
    tokens = _tokenize(text)
    try:
        group, label, pos = _parse_spec(tokens, 0, order_cap)
    except RecursionError:
        raise ParseError("group spec nests too deeply") from None
    if pos != len(tokens):
        raise ParseError(f"trailing tokens: {' '.join(tokens[pos:])!r}")
    return ParsedGroup(group=group, label=label)
