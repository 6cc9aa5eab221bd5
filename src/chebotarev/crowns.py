"""Chief series, chief factor modules, complements, crown data, derivations.

An abelian chief factor X/Y of order p^k is treated as an F_p-module with
the conjugation action of G written as k x k matrices over a fixed basis
of coset representatives (discovery order, so runs are reproducible).
All reported quantities (q, n, delta, theta, p_fix, m) are basis
invariant even though the matrices themselves are not.

Each group has one chief series (``chief_series``), and its crown data
is read off that series alone: no count of complemented factors depends
on the choice of series. The series takes abelian factors first, so it
runs through the soluble radical R. Below R, the chief series is found in
G by ``subgroups._minimal_normal(G, N)``, which returns preimages, and
every module acts through G's own generators.
A section X/Y is checked once, where a caller hands it in
(``factor_module``); the chief factors the pipeline found itself go
unchecked to ``_factor_module`` and ``_complement_system``.
Above R, the one quotient G/R is built (``perm._quotient``, unchecked;
G itself when R = 1, none when G is soluble), and only its subgroup
lattice is walked, one conjugacy class of subgroups at a time and with
no cap but the element-table one: for the maximal subgroups of G that
contain R, for d(G/R) and for the complements of the nonabelian chief
factors.

Every module question is linear over F_p and is answered by reduced row
echelon forms (``_rref``): G-isomorphism is a nonempty intertwiner space
(by Schur's lemma a nonzero intertwiner between irreducible modules of
equal dimension is invertible), and the commutant field is the
self-intertwiner space. Derivations solve the cocycle condition written
along the Cayley graph, and the complements of an abelian chief factor
X/Y solve its inhomogeneous form, written along the coset graph of X.
One function writes and solves both systems (``_cocycle_solve``). It
fixes the pivot columns of B^1 at 0, so each solution stands for one
coset of B^1: one class of H^1, or one conjugacy class of complements.
Each abelian section is solved once per G: its F_p coordinates (shared
by its module and its complements) and one complement per conjugacy
class are kept per group, and complementedness is whether the system is
consistent.
The complements of the factors below R, with the preimages of the
maximal subgroups of G/R, are all the maximal subgroups of G;
``maximal_subgroups`` gives one per conjugacy class to
``subgroups.maximal_classes``. The chief series, G/R, the right cosets
of its terms, each section's module and ``crown_data`` are kept per
group too (``perm.per_group``). Nothing here reads ``maximal_classes``,
which is built from this module's ``maximal_subgroups``, so Omega_V
membership (read off the chief factor that a maximal class complements)
is ``exact.omega_membership``, beside the restricted waiting sum that
reads its mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import eq, mul
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BadSectionError,
    InvariantError,
    NotAbelianFactorError,
    NotChiefFactorError,
    NotIrreducibleError,
)
from .perm import (
    PermGroup,
    Permutation,
    Subgroup,
    _coset_action,
    _quotient,
    bits_iter,
    per_group,
)
from .subgroups import (
    _cosets,
    _is_prime_power,
    _least_prime,
    _minimal_normal,
    all_subgroups,
    subgroup_classes,
)

Mat = tuple[tuple[int, ...], ...]


# -- small dense linear algebra over F_p --------------------------------


def _rref(
    rows: Iterable[Sequence[int]], ncols: int, p: int
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p: (nonzero rows, their pivot columns).

    Stops as soon as every row holds a pivot: the columns left are then
    free and already reduced.
    """
    work = [r for r in ([x % p for x in row] for row in rows) if any(r)]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        prow = work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            f = work[r][col]
            if f and r != rank:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], prow)]
        pivots.append(col)
    return work[: len(pivots)], pivots


def mat_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(_rref(rows, len(rows[0]) if rows else 0, p)[1])


def nullspace(rows: Iterable[Sequence[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """Basis of {v : rows @ v == 0} over F_p, one vector per free column."""
    return _kernel_basis(*_rref(rows, ncols, p), ncols, p)


def _kernel_basis(
    reduced: list[list[int]], pivots: list[int], ncols: int, p: int
) -> list[tuple[int, ...]]:
    # the nullspace of the first ncols columns of an ``_rref`` result
    basis = []
    for fcol in range(ncols):
        if fcol in pivots:
            continue
        vec = [0] * ncols
        vec[fcol] = 1
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = (-row[fcol]) % p
        basis.append(tuple(vec))
    return basis


def _vec_to_mat(v: tuple[int, ...], n: int) -> Mat:
    return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))


# -- chief series --------------------------------------------------------


@dataclass(frozen=True)
class ChiefSeries:
    """Descending chain G = N_0 > N_1 > ... > N_r = 1 of normal subgroups."""

    subgroups: tuple[Subgroup, ...]
    factor_orders: tuple[int, ...]
    factor_abelian: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.factor_orders)


@per_group
def chief_series(G: PermGroup) -> ChiefSeries:
    """G's chief series, built bottom-up inside G through the soluble radical.

    Starting from N = 1, each step takes a minimal normal subgroup of G/N
    as its preimage X in G (``_minimal_normal(G, N)``, sorted by order and
    bitset) and continues from N = X. The first abelian one is taken
    whenever G/N has one: a minimal normal subgroup is a direct power of a
    simple group, so it is abelian iff |X:N| is a prime power. The abelian
    factors at the bottom of the series then end at the soluble radical R
    (G/N has no abelian minimal normal subgroup iff N = R), so every
    nonabelian factor lies above R. No count downstream depends on the
    choice (Jordan-Hoelder, and Gaschuetz for the complemented factors).
    Kept per group.
    """
    chain_up = [Subgroup.trivial(G)]
    abelian_flags: list[bool] = []
    while chain_up[-1].order < G.order:
        N = chain_up[-1]
        mins = _minimal_normal(G, N.bits)
        abelian = [X for X in mins if _is_prime_power(X.order // N.order)]
        chain_up.append((abelian or mins)[0])
        abelian_flags.append(bool(abelian))
    subs = tuple(reversed(chain_up))
    orders = tuple(
        subs[i].order // subs[i + 1].order for i in range(len(subs) - 1)
    )
    return ChiefSeries(
        subgroups=subs,
        factor_orders=orders,
        factor_abelian=tuple(reversed(abelian_flags)),
    )


def _radical_index(series: ChiefSeries) -> int:
    # the index in series.subgroups of the soluble radical R: the top of
    # the bottom run of abelian factors
    i = len(series)
    while i > 0 and series.factor_abelian[i - 1]:
        i -= 1
    return i


@per_group
def _radical_quotient(G: PermGroup) -> Optional[tuple[PermGroup, list[int], Subgroup]]:
    """``(Q, fibre, R)``: G/R for the soluble radical R, with its fibres.

    ``fibre[q]`` is the bitmask of the coset of R in G that is Q's
    element q, so G/R's subgroups are read in G as preimages. Q is G
    itself (no quotient is built) when R = 1, and the result is None when
    R = G, that is when G is soluble. R is a term of G's own series, so
    the quotient is built unchecked.
    """
    series = chief_series(G)
    R = series.subgroups[_radical_index(series)]
    if R.order == G.order:
        return None
    Q, epi = (G, range(G.order)) if R.order == 1 else _quotient(G, R.bits)
    fibre = [0] * Q.order
    for i, q in enumerate(epi):
        fibre[q] |= 1 << i
    return Q, fibre, R


def _preimage(fibre: list[int], bits: int) -> int:
    return sum([fibre[q] for q in bits_iter(bits)])  # disjoint fibres


def radical_quotient_min_generators(G: PermGroup) -> int:
    """d(G/R) for the soluble radical R: 0 when G is soluble.

    G/R sorts last in its subgroup lattice, and the breadth-first walk
    gives it witnesses of minimal length (see ``subgroups``).
    """
    top = _radical_quotient(G)
    return 0 if top is None else len(all_subgroups(top[0])[-1].witnesses)


def _has_complement(G: PermGroup, X: Subgroup, Y: Subgroup) -> bool:
    # Lattice scan of G/R, needed only for nonabelian chief factors, whose
    # complements need not be maximal. On a series through R, R <= Y <= U
    # for any complement U, so U is the preimage of a subgroup of G/R.
    # |UX| = |U||X|/|U n X|, so U complements X/Y iff U n X = Y and
    # |U||X| = |G||Y|; the orders are compared before any preimage is read.
    top = _radical_quotient(G)
    if top is None:
        raise InvariantError("a soluble group has no nonabelian chief factor")
    Q, fibre, R = top
    if R.bits & ~Y.bits:
        raise InvariantError("a nonabelian chief factor lies below the soluble radical")
    target = G.order * Y.order
    # X and Y are normal, so complementing X/Y is conjugation invariant
    return any(
        U.order * R.order * X.order == target and _preimage(fibre, U.bits) & X.bits == Y.bits
        for U, *_ in subgroup_classes(Q)
    )


def _check_chief_factor(G: PermGroup, X: Subgroup, Y: Subgroup) -> None:
    # a section handed in must be an abelian chief factor of G: [X, X] <= Y, X minimal over Y
    if X.group is not G or Y.group is not G:
        raise BadSectionError("subgroups belong to a different group")
    if Y.bits & ~X.bits:
        raise BadSectionError("Y is not contained in X")
    if not X.is_normal() or not Y.is_normal():
        raise BadSectionError("X and Y must be normal in G")
    if not all((Y.bits >> G.commutator(a, b)) & 1 for a in X.witnesses for b in X.witnesses):
        raise NotAbelianFactorError("section X/Y is not abelian")
    if X.bits == Y.bits:
        raise NotChiefFactorError("the section X/Y is trivial")
    if X.bits not in [M.bits for M in _minimal_normal(G, Y.bits)]:
        raise NotChiefFactorError("a normal subgroup sits strictly between Y and X")


# -- abelian chief factor modules ----------------------------------------


@dataclass(frozen=True)
class ChiefFactorModule:
    """An abelian chief factor as an F_p-module for the ambient group.

    ``gen_matrices`` holds one matrix per ambient-group generator, in the
    generator order of ``group`` (column-vector convention, right action:
    the matrix of g sends v to the class of g^-1 v g), over the section
    coordinates that ``_complement_system`` shares. ``acting_group`` is
    H = G/C_G(V), built once as the permutations the generator matrices
    make of V's p^n vectors, its generators aligned with ``gen_matrices``;
    ``h_order`` and ``central`` are read off it. Fields after ``p_fix`` are
    filled by crown classification, which keeps complemented factors only,
    and ``theta`` is read off ``delta``.
    """

    group: PermGroup
    p: int
    n_raw: int
    gen_matrices: tuple[Mat, ...]
    acting_group: PermGroup
    p_fix: Fraction
    q: Optional[int] = None
    n: Optional[int] = None
    delta: Optional[int] = None
    m: Optional[int] = None
    label: str = ""

    @property
    def h_order(self) -> int:
        return self.acting_group.order

    @property
    def theta(self) -> Optional[int]:
        return None if self.delta is None else (0 if self.delta == 1 else 1)

    @property
    def central(self) -> bool:
        return self.h_order == 1


@per_group
def _section_coordinates(
    G: PermGroup, X: Subgroup, Y: Subgroup
) -> tuple[int, tuple[int, ...], dict[int, tuple[int, ...]], dict[tuple[int, ...], int]]:
    """Coordinates over F_p of the elementary abelian section X/Y.

    Returns ``(p, basis, vec, rep)``: the prime p, the smallest divisor of
    |X/Y|; the elements of X whose Y-cosets form the basis, chosen greedily
    from the cosets' least elements in ascending order; the coordinate vector
    of every element of X; and, per vector, the representative of its
    Y-coset. Raises ``NotChiefFactorError`` if the nontrivial X/Y is not
    elementary abelian. Kept per group and (X, Y).
    """
    vorder = X.order // Y.order
    p = _least_prime(vorder)
    # the cosets of Y inside X, by least element, so id 0 is Y itself (the
    # identity has element index 0)
    reps, cid, _ = _cosets(G, Y.bits)
    coset_rep = [r for r in reps if (X.bits >> r) & 1]
    local = {cid[r]: c for c, r in enumerate(coset_rep)}
    vid = {x: local[cid[x]] for x in bits_iter(X.bits)}
    if len(coset_rep) != vorder or vid[0] != 0:
        raise InvariantError("the cosets of Y do not partition X")

    def vadd(a: int, b: int) -> int:
        return vid[G.mult(coset_rep[a], coset_rep[b])]

    coords: dict[int, tuple[int, ...]] = {0: ()}
    basis: list[int] = []
    for v in range(vorder):
        if v in coords:
            continue
        i = len(basis)
        basis.append(v)
        coords = {w: wc + (0,) for w, wc in coords.items()}
        cur = 0
        for c in range(1, p):
            cur = vadd(cur, v)
            for w, wc in list(coords.items()):
                if wc[i] == 0:
                    u = vadd(w, cur)
                    coords[u] = wc[:i] + (c,)
        if vadd(cur, v) != 0:
            raise NotChiefFactorError("section X/Y is not elementary abelian")
    if len(coords) != vorder:
        raise InvariantError("the coordinates do not cover X/Y")
    vec = {x: coords[c] for x, c in vid.items()}
    rep = {coords[c]: coset_rep[c] for c in range(vorder)}
    return p, tuple(coset_rep[b] for b in basis), vec, rep


def _action_matrix(
    G: PermGroup, basis: Sequence[int], vec: dict[int, tuple[int, ...]], g: int
) -> Mat:
    # column j is the image of basis element j under x -> g^-1 x g
    c = G.conj_map(g)
    cols = [vec[c[b]] for b in basis]
    n = len(basis)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def factor_module(G: PermGroup, X: Subgroup, Y: Subgroup) -> ChiefFactorModule:
    """Matrices, acting group and fixed-vector probability for X/Y.

    Raises ``BadSectionError`` (``NotAbelianFactorError`` if nonabelian) or
    ``NotChiefFactorError`` unless X/Y is an abelian chief factor of G.
    """
    _check_chief_factor(G, X, Y)
    return _factor_module(G, X, Y)


@per_group
def _factor_module(G: PermGroup, X: Subgroup, Y: Subgroup) -> ChiefFactorModule:
    """``factor_module`` of a chief factor X/Y of G, unchecked.

    The basis is chosen greedily from coset representatives in discovery
    order. g acts on X/Y through its matrix, with kernel C_G(X/Y), so the
    acting group H = G/C_G(X/Y) is the group the generator matrices make
    of the p^n vectors of X/Y (``_acting_group``), and no other element
    of G is conjugated. |H| is its order, and ``p_fix`` is the share of
    its elements that fix a vector other than 0. Kept per group and (X, Y).
    """
    pfac, basis, vec, _ = _section_coordinates(G, X, Y)
    gen_mats = tuple(_action_matrix(G, basis, vec, gi) for gi in G.generator_indices)
    H = _acting_group(pfac, len(basis), gen_mats)
    points = range(H.degree)
    # 0 is fixed by every element, so a fixed nonzero vector is a second
    # fixed point
    fixing = sum(1 for h in H.elements if sum(map(eq, h.images, points)) > 1)
    return ChiefFactorModule(
        group=G,
        p=pfac,
        n_raw=len(basis),
        gen_matrices=gen_mats,
        acting_group=H,
        p_fix=Fraction(fixing, H.order),
    )


def _vector_images(p: int, n: int, M: Mat) -> tuple[int, ...]:
    # the images under M of the p^n vectors (v is the point sum v_i p^i);
    # by linearity that of v + c e_j is that of v plus c times column j
    weights = [p**i for i in range(n)]
    images: list[tuple[int, ...]] = [(0,) * n]
    for j in range(n):
        col = [row[j] for row in M]
        step = images[:]  # the images of the points below p^j
        for _ in range(1, p):
            step = [tuple([(a + b) % p for a, b in zip(v, col)]) for v in step]
            images.extend(step)
    return tuple([sum(map(mul, v, weights)) for v in images])


def _acting_group(p: int, n: int, gen_mats: Sequence[Mat]) -> PermGroup:
    # the permutations the matrices make of the p^n vectors, aligned with gen_mats
    return PermGroup(p**n, [Permutation._raw(_vector_images(p, n, M)) for M in gen_mats])


def _intertwiner_space(
    A_mats: Sequence[Mat], B_mats: Sequence[Mat], n: int, p: int
) -> list[tuple[int, ...]]:
    """Basis of {T : T A_g = B_g T for all g}, T flattened row-major."""
    rows: list[list[int]] = []
    for A, B in zip(A_mats, B_mats):
        for a in range(n):
            for b in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[a * n + k] = (row[a * n + k] + A[k][b]) % p
                    row[k * n + b] = (row[k * n + b] - B[a][k]) % p
                rows.append(row)
    return nullspace(rows, n * n, p)


def g_isomorphic(M1: ChiefFactorModule, M2: ChiefFactorModule) -> bool:
    """True iff the irreducible modules are isomorphic as G-modules.

    Both modules must carry matrices for the same generator list. A prime
    or dimension mismatch short-circuits to False. By Schur's lemma a
    nonzero intertwiner between irreducible modules of equal dimension is
    invertible, so a nonempty intertwiner space decides the question; a
    singular basis intertwiner proves a module reducible and raises
    ``NotIrreducibleError``.
    """
    if len(M1.gen_matrices) != len(M2.gen_matrices):
        raise ValueError("modules carry different generator lists")
    if M1.p != M2.p or M1.n_raw != M2.n_raw:
        return False
    p, n = M1.p, M1.n_raw
    basis = _intertwiner_space(M1.gen_matrices, M2.gen_matrices, n, p)
    if not basis:
        return False
    if mat_rank(_vec_to_mat(basis[0], n), p) == n:
        return True
    raise NotIrreducibleError("a nonzero intertwiner is singular, so a module is reducible")


def endo_field(M: ChiefFactorModule) -> tuple[int, int]:
    """(q, n) with q the commutant field size and n = n_raw / log_p(q).

    Solves the commutant system E and checks that E is a field, with no
    search over its q elements: e = dim E = 1 means E is the scalars;
    otherwise E must be commutative, and then the Frobenius map a -> a^p
    is F_p-linear on E. It is injective iff E has no nilpotents, so E is
    a product of fields, and its fixed space is F_p once per field. So E
    is a field iff its basis commutes pairwise and the Frobenius images of
    the basis have rank e with a fixed space of dimension 1. A module that
    fails (a reducible one) raises ``NotIrreducibleError``.
    """
    return _commutant_field(M.gen_matrices, M.p)


def _commutant_field(gen_matrices: Sequence[Mat], p: int) -> tuple[int, int]:
    # ``endo_field`` on the module the matrices give: the one solve of the
    # commutant system, shared with ``derivations``
    nr = len(gen_matrices[0])
    basis = _intertwiner_space(gen_matrices, gen_matrices, nr, p)
    e = len(basis)
    if e > 1:
        mats = [_vec_to_mat(v, nr) for v in basis]

        def prod(A: Mat, B: Mat) -> Mat:
            return tuple(tuple(sum(map(mul, row, col)) % p for col in zip(*B)) for row in A)

        def frobenius(A: Mat) -> tuple[int, ...]:
            # A^p by squaring along the bits of p, flattened row-major
            P = A
            for bit in f"{p:b}"[1:]:
                P = prod(prod(P, P), A) if bit == "1" else prod(P, P)
            return tuple(x for row in P for x in row)

        images = [frobenius(A) for A in mats]
        moved = [[a - b for a, b in zip(f, v)] for f, v in zip(images, basis)]
        if (
            any(prod(A, B) != prod(B, A) for i, A in enumerate(mats) for B in mats[:i])
            or mat_rank(images, p) != e
            or e - mat_rank(moved, p) != 1
        ):
            raise NotIrreducibleError("the commutant is not a field")
    return p**e, nr // e


# -- derivations and first cohomology ------------------------------------


def _cocycle_solve(
    right: Sequence[Sequence[int]],
    parent: Sequence[int],
    via: Sequence[int],
    gen_mats: Sequence[Mat],
    n: int,
    p: int,
    offset: Callable[[int, int, int], tuple[int, ...]],
) -> Optional[tuple[list[int], list[tuple[int, ...]], int]]:
    """Solve zeta(y) = M_k zeta(x) + u_k on a graph, once per coset of B^1.

    Node x has one edge ``x -> right[k][x]`` per generator k, with its
    n x n matrix M_k. The BFS tree ``(parent, via)``, rooted at node 0
    with ``parent[j] < j``, writes each zeta(x) as a linear map of the
    unknowns u_k in F_p^n: zeta(0) = 0, and a tree edge holds by
    construction. Every other edge gives n rows zeta(y) - (M_k zeta(x)
    + u_k), with ``offset(x, k, y)`` as their right-hand side; each
    distinct nonzero row is kept once, as the echelon form depends only
    on the row space.

    The coboundaries B^1 = {((I - M_k) v)_k} lie in Z^1, so the solutions
    are a union of cosets of B^1, and each coset holds one vector that is
    0 at the pivot columns of B^1's echelon form. So B^1 is eliminated
    first, for those columns, and one unit row per pivot column,
    right-hand side 0, fixes that gauge. One elimination of the whole
    system then gives ``None`` if it is inconsistent, else (particular,
    basis, dim B^1), the basis spanning a complement of B^1 in Z^1.
    """
    ncols = n * len(gen_mats)
    coboundaries = [[int(i == j) - M[j][i] for M in gen_mats for j in range(n)] for i in range(n)]
    _, b1_pivots = _rref(coboundaries, ncols, p)
    # the nonzero entries (column, value) of each row of each M_k, read once
    nonzero = [[[(t, m) for t, m in enumerate(Mi) if m] for Mi in M] for M in gen_mats]

    def image(L: list[list[int]], k: int) -> list[list[int]]:
        # coefficient rows of M_k zeta(x) + u_k, given those of zeta(x)
        out = []
        for i, terms in enumerate(nonzero[k]):
            row = [0] * ncols
            for t, m in terms:
                row = [(a + m * b) % p for a, b in zip(row, L[t])]
            row[k * n + i] = (row[k * n + i] + 1) % p
            out.append(row)
        return out

    lin = [[[0] * ncols for _ in range(n)]]
    for j in range(1, len(parent)):
        lin.append(image(lin[parent[j]], via[j]))
    rows: dict[tuple[int, ...], None] = {}
    for x, Lx in enumerate(lin):
        for k, targets in enumerate(right):
            y = targets[x]
            if parent[y] == x and via[y] == k:
                continue  # a tree edge holds by construction
            rhs = offset(x, k, y)
            for i, terms in enumerate(nonzero[k]):
                # row i of zeta(y) - (M_k zeta(x) + u_k)
                row = lin[y][i][:]
                for t, m in terms:
                    row = [(a - m * b) % p for a, b in zip(row, Lx[t])]
                row[k * n + i] = (row[k * n + i] - 1) % p
                rows[(*row, rhs[i])] = None  # and entry i of the offset
    system = [row for row in rows if any(row)]
    system += [tuple(int(j == col) for j in range(ncols + 1)) for col in b1_pivots]
    reduced, pivots = _rref(system, ncols + 1, p)
    if ncols in pivots:
        return None
    particular = [0] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row[ncols]
    return particular, _kernel_basis(reduced, pivots, ncols, p), len(b1_pivots)


@dataclass(frozen=True)
class DerivationCount:
    der_count: int
    inner_count: int
    m: int


def derivations(H: PermGroup, gen_matrices: Sequence[Mat], p: int) -> DerivationCount:
    """Count derivations H -> V by solving the cocycle condition over F_p.

    The unknowns are one vector u_k = zeta(g_k) per distinct BFS generator
    g_k of H, and every Cayley edge (x, g_k) must satisfy
    zeta(x*g_k) = zeta(x)^g_k + u_k. ``_cocycle_solve`` writes and solves
    that system with a zero right-hand side. It gives the dimension
    of B^1, the inner derivations v -> (v^g - v)_g, and a basis of a
    complement of B^1 in Z^1. So |Z^1| = p^(len(basis) + dim B^1), and
    m = len(basis) / (n / n_V) solves q^m = |Z^1| / |B^1| over the
    commutant field F_q, which comes from the same commutant solve as
    ``endo_field``. The matrices align with ``H.generators``, as those of
    a module align with its ``acting_group``: p must be prime, and some
    homomorphism H -> GL(n, p) must send each generator to its own n x n
    matrix, else ``ValueError``.
    """
    if H.order == 1:
        raise ValueError("derivations require a nontrivial acting group")
    sizes = {len(r) for M in gen_matrices for r in (M, *M)}  # each matrix and its rows
    if len(gen_matrices) != len(H.generators) or len(sizes) != 1 or p < 2 or _least_prime(p) != p:
        raise ValueError("derivations need a prime p and one n x n matrix per generator of H")
    n = len(gen_matrices[0])
    # phi gives each element of H, along its BFS tree, its matrix's images
    # of the basis vectors (the points p^j), which fix a linear map; the
    # matrices are an action iff phi holds on every Cayley edge and sends
    # each generator, repeated and identity ones too, to its own matrix
    images = [_vector_images(p, n, M) for M in gen_matrices]
    by_images = {g.images: (M, v) for g, M, v in zip(H.generators, gen_matrices, images)}
    gen_mats, acts = zip(*[by_images[g.images] for g in H._bfs_gens])
    phi = [tuple(p**j for j in range(n))]
    for j in range(1, H.order):
        phi.append(tuple(acts[H._via[j]][v] for v in phi[H._parent[j]]))
    own = [tuple(v[w] for w in phi[0]) for v in images]
    edges = ((a, x, y) for a, targets in zip(acts, H._right) for x, y in enumerate(targets))
    if [phi[i] for i in H.generator_indices] != own or any(
        phi[y] != tuple(a[v] for v in phi[x]) for a, x, y in edges
    ):
        raise ValueError("the matrices are not an action of H")
    zero = (0,) * n  # a homogeneous system is consistent, so never None
    _, basis, b1_dim = _cocycle_solve(H._right, H._parent, H._via, gen_mats, n, p, lambda *_: zero)

    _, nv = _commutant_field(gen_matrices, p)
    m, rest = divmod(len(basis), n // nv)
    if rest:
        raise NotIrreducibleError("H^1 size is not a power of the commutant field size")
    return DerivationCount(der_count=p ** (len(basis) + b1_dim), inner_count=p**b1_dim, m=m)


# -- complements of abelian chief factors --------------------------------


@per_group
def _complement_system(G: PermGroup, X: Subgroup, Y: Subgroup) -> tuple[Subgroup, ...]:
    """One complement of the abelian chief factor X/Y per conjugacy class.

    A complement U has UX = G and U n X = Y, so it meets each coset of X
    in one coset of Y. The BFS generators g_k of G outside X generate G
    modulo X, and each moves every coset of X (X is normal), so U is
    generated by Y and its elements g^_k = g_k x(u_k) in the cosets X g_k:
    one unknown u_k in X/Y = F_p^n per generator outside X, and none for
    a generator inside X. BFS the cosets of X, from X itself, with those
    g_k; coset c gets the tree element t_c. Build t^_c along the tree,
    t^_{c g_k} = t^_c g^_k, and write t^_c = t_c x(zeta(c)); then
    zeta(c g_k) = M_k zeta(c) + u_k, as in ``derivations``. The union of
    the cosets t^_c Y is a subgroup iff it is closed under the g^_k, that
    is iff every non-tree edge (c, g_k) -> c' satisfies
    zeta(c') = M_k zeta(c) + u_k + r, where r = vec(t_c'^-1 t_c g_k) is
    the offset of t_c g_k from t_c'. So the complements are the solutions
    of that inhomogeneous cocycle system: none if it is inconsistent,
    else a particular solution plus Z^1, the kernel (Celler, Neubueser
    and Wright, Acta Appl. Math. 21, 1990). For X = G no generator is
    left, the system is empty, and its one solution is Y.

    G = UX, so the conjugates of U are its conjugates by X, and Y <= U
    acts trivially. Conjugating by x(v) sends g^_k = g_k x(u_k) to
    g_k x(u_k + (I - M_k) v). So two complements are conjugate iff their
    solutions differ by a coboundary, and ``_cocycle_solve`` gives one
    solution per coset of B^1: only those complements are built, one per
    class. Unchecked; kept per group and (X, Y).
    """
    p, basis, vec, rep = _section_coordinates(G, X, Y)
    n = len(basis)
    gens = [g for g in G._bfs_gen_indices if not (X.bits >> g) & 1]
    mult = G.mult
    # BFS over the cosets of X by their ids, through each generator's
    # coset action; a tree element is built only when its coset is reached
    xreps, xcid, _ = _cosets(G, X.bits)
    acts = [_coset_action(G, xreps, xcid)(g) for g in gens]
    node = [-1] * len(xreps)
    node[0] = 0
    tree, coset = [0], [0]
    parent, via, right = [-1], [-1], [[] for _ in gens]
    for x, c in enumerate(coset):  # grows while it is walked
        for k, act in enumerate(acts):
            d = act[c]
            y = node[d]
            if y < 0:
                y = node[d] = len(tree)
                tree.append(mult(tree[x], gens[k]))
                coset.append(d)
                parent.append(x)
                via.append(k)
            right[k].append(y)

    def offset(x: int, k: int, y: int) -> tuple[int, ...]:
        return vec[mult(G.inv(tree[y]), mult(tree[x], gens[k]))]

    gen_mats = [_action_matrix(G, basis, vec, g) for g in gens]
    solved = _cocycle_solve(right, parent, via, gen_mats, n, p, offset)
    if solved is None:
        return ()
    particular, kernel, _ = solved
    solutions = [particular]
    for b in kernel:
        solutions = [[(a + c * v) % p for a, v in zip(u, b)] for c in range(p) for u in solutions]

    _, ycid, ycbits = _cosets(G, Y.bits)
    target = G.order * Y.order
    found = []
    for u in solutions:
        ghat = [mult(g, rep[tuple(u[k * n : (k + 1) * n])]) for k, g in enumerate(gens)]
        that = [0]
        for j in range(1, len(tree)):
            that.append(mult(that[parent[j]], ghat[via[j]]))
        kbits = sum([ycbits[ycid[t]] for t in that])  # one Y-coset per coset of X
        if kbits.bit_count() * X.order != target or kbits & X.bits != Y.bits:
            raise InvariantError("a solution of the complement system is not a complement")
        found.append(Subgroup(G, kbits))
    return tuple(found)


def maximal_subgroups(G: PermGroup) -> list[Subgroup]:
    """One maximal subgroup of G from each conjugacy class of them.

    Take G's own chief series, which runs through the soluble radical
    R (``chief_series``). A maximal M that does not contain R complements
    the abelian chief factor N_{j-1}/N_j below R where N_j is the first
    term inside M, and every complement of such a factor is maximal: these
    are the complements of the factors below R, one per class
    (``_complement_system``). A maximal M that contains R is the preimage
    of a maximal subgroup of G/R: of a class that the lattice walk of G/R
    built (``subgroup_classes``) and no larger maximal subgroup contains,
    represented by the least bitset among its members' preimages, its
    witnesses found on first read. A soluble G has R = G and walks no
    lattice; for R = 1 these are the lattice's own maximal classes of G
    (Cannon and Holt, J. Symbolic Comput. 37, 2004).
    """
    series = chief_series(G)
    subs = series.subgroups[_radical_index(series):]
    reps = [U for X, Y in zip(subs, subs[1:]) for U in _complement_system(G, X, Y)]
    top = _radical_quotient(G)
    if top is None:
        return reps
    Q, fibre, _ = top
    # a proper overgroup of H lies in a maximal subgroup of larger order;
    # Q, the one class of its order, sorts first and is skipped
    upper: list[list[Subgroup]] = []
    for cls in sorted(subgroup_classes(Q), key=lambda c: -c[0].order)[1:]:
        if not any(cls[0].bits & ~M.bits == 0 for kept in upper for M in kept):
            upper.append(cls)
    return reps + [Subgroup(G, min(_preimage(fibre, M.bits) for M in cls)) for cls in upper]


# -- crown data -----------------------------------------------------------


@dataclass(frozen=True)
class CrownData:
    """Complemented abelian chief factor classes split by centrality."""

    A: tuple[ChiefFactorModule, ...]  # non-central classes, h_order > 1
    B: tuple[ChiefFactorModule, ...]  # central classes, h_order = 1
    nonabelian_factors: tuple[tuple[int, bool], ...]  # (order, complemented)


@per_group
def crown_data(G: PermGroup) -> CrownData:
    """Group the complemented abelian chief factors into isomorphism classes.

    Reads G's chief series. An abelian factor counts iff its complement
    system has a solution (``_complement_system``); only those get a
    module. A nonabelian factor lies above the soluble radical R, and its
    complementedness is a scan of the lattice of G/R. Every class gets
    m = dim H^1(G/C_G(V), V) over the commutant field: 0 for a soluble G
    (first cohomology vanishes for a soluble group acting faithfully and
    irreducibly) and for a central class, else ``derivations`` on the
    ``acting_group`` its module was built with. Each class is labelled by
    the series index of its first factor. Kept per group.
    """
    series = chief_series(G)
    soluble = all(series.factor_abelian)
    modules: list[tuple[int, ChiefFactorModule]] = []
    nonabelian: list[tuple[int, bool]] = []
    subs = series.subgroups
    for i in range(len(subs) - 1):
        X, Y = subs[i], subs[i + 1]
        if not series.factor_abelian[i]:
            nonabelian.append((series.factor_orders[i], _has_complement(G, X, Y)))
        elif _complement_system(G, X, Y):
            modules.append((i, _factor_module(G, X, Y)))

    classes: list[list[tuple[int, ChiefFactorModule]]] = []
    for i, mod in modules:
        for cls in classes:
            if g_isomorphic(cls[0][1], mod):
                cls.append((i, mod))
                break
        else:
            classes.append([(i, mod)])

    A: list[ChiefFactorModule] = []
    B: list[ChiefFactorModule] = []
    for cls in classes:
        i, rep = cls[0]
        q, nv = endo_field(rep)
        m = 0
        if not (soluble or rep.central):
            m = derivations(rep.acting_group, rep.gen_matrices, rep.p).m
        V = replace(rep, q=q, n=nv, delta=len(cls), m=m, label=f"factor[{i:02d}]")
        (B if V.central else A).append(V)

    keyfun = lambda mod: (mod.p, mod.n_raw, mod.label)
    return CrownData(
        A=tuple(sorted(A, key=keyfun)),
        B=tuple(sorted(B, key=keyfun)),
        nonabelian_factors=tuple(nonabelian),
    )
