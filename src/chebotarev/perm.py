"""Permutations, finite permutation groups, conjugacy classes, sections.

Normal subgroups and sections are bitsets over one group's element
table; ``quotient`` builds G/N as a group of its own, for two callers:
G modulo its soluble radical, whose subgroup lattice ``crowns`` walks,
and the Frattini reduction. A subgroup's generating witnesses are found
on first read, and normality is checked on them: every generator of G
must conjugate every witness into the subgroup. Solubility is read off
G's chief series (every factor abelian), so no derived series is
computed. Each result computed once per group is kept by ``per_group``.

Everything downstream assumes a full, deterministically indexed element
table, so groups here are capped at desk scale (default 20 000 elements).
Element indices are assigned by a breadth-first closure from the sorted
generator list; index 0 is always the identity. All types are immutable
after construction (internal memo tables are filled lazily but never
change observable state).

Products, inverses and columns are built with C-level sequence
operations (``operator.itemgetter``), not Python loops over points:
the itemgetter of x's images, applied to g's images, gives the images
of ``x * g``, and x's inverse comes from its BFS parent's, so no
permutation is inverted point by point. One Cayley graph of the BFS
generators is the source of every product. Column j maps i to the
index of ``elements[i] * elements[j]``, and it is its BFS parent's
column read through one generator's edges, so ``PermGroup.column_at``
carries the nearest kept column among j's ancestors down the tree. Up
to the table limit it keeps each column it builds, so only the columns
that are read are ever built; above it only the identity column is
kept, and just the points read are carried, one itemgetter per letter.
``mult`` reads a kept column at one index, else asks ``column_at``. A
column is right multiplication by ``elements[j]``, so a closure reads
each seed's column at the elements found in its last round. Right
cosets read no column: a new coset Ht is the coset of t's BFS parent
read through one generator's edges. Conjugation by g is one kept map
of two column-g reads (``PermGroup.conj_map``), which classes, normal
closures and normality checks read for G's generators.
"""

from __future__ import annotations

import functools
import re
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    BadSectionError,
    DegreeMismatchError,
    InvariantError,
    NotNormalError,
    OrderCapError,
)

DEFAULT_ORDER_CAP = 20_000

# Up to this order every product column that is read is kept (column j
# lists the products elements[i] * elements[j]); above it each read is
# carried along the right factor's generator word.
_MULT_TABLE_LIMIT = 1500


class Permutation:
    """A bijection on {0, ..., degree-1}, stored as an image tuple.

    Composition is left-to-right: ``(a * b)(x) == b(a(x))``, i.e. points
    are acted on by ``a`` first. This matches the usual right-action
    convention for permutation groups.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # Internal fast path: caller guarantees images is a valid bijection.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return cls._raw(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(other.images) != len(self.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        o = other.images
        return Permutation._raw(tuple(o[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._raw(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity renders as ``()``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    @classmethod
    def from_cycle_string(cls, text: str, degree: Optional[int] = None) -> "Permutation":
        """Parse 1-based cycle notation such as ``(1 2 3)(4 5)`` or ``()``.

        Points may be separated by spaces or commas. If ``degree`` is not
        given, the largest point mentioned determines it (minimum 1).
        """
        text = text.strip()
        if not re.fullmatch(r"(\(\s*[\d\s,]*\))+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        chunks = re.findall(r"\(([^)]*)\)", text)
        cycles: list[list[int]] = []
        maxpt = 0
        for chunk in chunks:
            pts = [int(t) for t in re.split(r"[,\s]+", chunk.strip()) if t]
            if not pts:
                continue
            if any(p < 1 for p in pts):
                raise ValueError("cycle points are 1-based and must be >= 1")
            cycles.append([p - 1 for p in pts])
            maxpt = max(maxpt, max(pts))
        deg = degree if degree is not None else max(maxpt, 1)
        if maxpt > deg:
            raise ValueError(f"point {maxpt} exceeds degree {deg}")
        images = list(range(deg))
        touched: set[int] = set()
        for cyc in cycles:
            if len(set(cyc)) != len(cyc) or touched & set(cyc):
                raise ValueError(f"cycles are not disjoint in {text!r}")
            touched |= set(cyc)
            for i, p in enumerate(cyc):
                images[p] = cyc[(i + 1) % len(cyc)]
        return cls._raw(tuple(images))

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r})"


def bits_iter(bits: int) -> Iterator[int]:
    """Yield the set bit positions of an int bitmask in ascending order."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def per_group(fn: Callable) -> Callable:
    """``fn(G, *args)``, kept in ``G._cache`` under the key ``(fn, *args)``:
    a hit is one dict lookup, and a call that raises keeps nothing."""

    @functools.wraps(fn)
    def memo(G: PermGroup, *args):
        key = (fn, *args)
        try:
            return G._cache[key]
        except KeyError:
            pass
        out = G._cache[key] = fn(G, *args)
        return out

    return memo


class PermGroup:
    """A finite permutation group with a full element table.

    The table is the closure of the generators under composition,
    discovered breadth-first from the sorted generator list, so element
    indices are reproducible across runs. ``generators`` keeps the
    sequence exactly as given (including duplicates or identities), which
    downstream module-action code relies on for positional alignment.
    """

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        *,
        order_cap: int = DEFAULT_ORDER_CAP,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(generators)

        bfs_gens = sorted(
            {g.images for g in generators if not g.is_identity()}
        )
        self._bfs_gens: tuple[Permutation, ...] = tuple(
            Permutation._raw(im) for im in bfs_gens
        )

        ident = Permutation.identity(degree)
        elements: list[Permutation] = [ident]
        index: dict[tuple[int, ...], int] = {ident.images: 0}
        parent = [-1]
        via = [-1]
        right: list[list[int]] = [[] for _ in self._bfs_gens]
        pos = 0
        while pos < len(elements):
            # x * g has images g[x[v]]: one itemgetter of x applies to all g
            x_of = itemgetter(*elements[pos].images)
            for k, g in enumerate(self._bfs_gens):
                y = x_of(g.images)
                idx = index.get(y)
                if idx is None:
                    if len(elements) >= order_cap:
                        raise OrderCapError(
                            f"group order exceeds cap {order_cap}"
                        )
                    idx = len(elements)
                    index[y] = idx
                    elements.append(Permutation._raw(y))
                    parent.append(pos)
                    via.append(k)
                right[k].append(idx)
            pos += 1

        self.elements: tuple[Permutation, ...] = tuple(elements)
        self.index: dict[tuple[int, ...], int] = index
        self.order: int = len(elements)
        self._parent = parent
        self._via = via
        self._right = right  # _right[k][x]: x * gen[k], the Cayley graph
        self._bfs_gen_indices: tuple[int, ...] = tuple(r[0] for r in right)
        self.generator_indices: tuple[int, ...] = tuple(
            index[g.images] for g in self.generators
        )
        # (x * g)^-1 = g^-1 * x^-1, whose images are those of x^-1 picked
        # at the images of g^-1, so no permutation is inverted point by point
        inv_of = [itemgetter(*g.inverse().images) for g in self._bfs_gens]
        inv = [0] * self.order
        for j in range(1, self.order):
            inv[j] = index[inv_of[via[j]](elements[inv[parent[j]]].images)]
        self._inv = inv
        # the product columns that ``column_at`` keeps, None where not kept
        self._columns: list[Optional[tuple[int, ...]]] = [None] * self.order
        self._columns[0] = tuple(range(self.order))
        self._keeps_columns = self.order <= _MULT_TABLE_LIMIT
        self._conj_maps: dict[int, tuple[int, ...]] = {}
        self._cache: dict = {}  # see ``per_group``

    # -- multiplication -------------------------------------------------

    def mult(self, i: int, j: int) -> int:
        """Index of ``elements[i] * elements[j]``."""
        col = self._columns[j]
        return col[i] if col is not None else self.column_at(j, (i,))[0]

    def column_at(self, j: int, points: Sequence[int]) -> tuple[int, ...]:
        """``mult(x, j)`` for each x in ``points``, in order.

        elements[j] = elements[parent[j]] * gen[via[j]], so column j is
        column parent[j] read through ``_right[via[j]]``: the nearest kept
        column among j's BFS ancestors is carried down the tree. Up to the
        table limit every column built on the way is kept; above it only
        the identity column is, and just ``points`` are carried.
        """
        cols, parent, via, right = self._columns, self._parent, self._via, self._right
        path = []
        while cols[j] is None:
            path.append(j)
            j = parent[j]
        if self._keeps_columns:
            col = cols[j]
            for j in reversed(path):
                col = cols[j] = itemgetter(*col)(right[via[j]])
            return itemgetter(*points)(col) if len(points) > 1 else (col[points[0]],)
        # j is the identity here, so the points start as they are
        if len(points) == 1:
            x = points[0]
            for j in reversed(path):
                x = right[via[j]][x]
            return (x,)
        for j in reversed(path):
            points = itemgetter(*points)(right[via[j]])
        return tuple(points)

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, i: int, g: int) -> int:
        """Index of ``g^-1 * elements[i] * g``, read off ``conj_map(g)``."""
        return self.conj_map(g)[i]

    def commutator(self, i: int, j: int) -> int:
        """Index of ``i^-1 j^-1 i j``."""
        return self.mult(self.mult(self._inv[i], self._inv[j]), self.mult(i, j))

    # -- subgroup machinery ---------------------------------------------

    def closure_bits(self, seeds: Iterable[int]) -> int:
        """Bitmask of the subgroup generated by the given element indices."""
        seed_list = sorted({int(s) for s in seeds} - {0})
        bits = 1
        found = [0]
        # a round at a time: each seed right-multiplies all the elements
        # found in the last round at once
        while found:
            last, found = found, []
            for s in seed_list:
                for y in self.column_at(s, last):
                    if not (bits >> y) & 1:
                        bits |= 1 << y
                        found.append(y)
        return bits

    def normal_closure_bits(self, seeds: Iterable[int]) -> int:
        """Bitmask of the smallest normal subgroup containing the seeds."""
        seed_list = sorted({int(s) for s in seeds} - {0})
        return self._normal_closure_from(self.closure_bits(seed_list), seed_list)

    def _normal_closure_from(self, bits: int, seed_list: list[int]) -> int:
        # ``normal_closure_bits`` from ``bits`` = <seed_list>, already closed;
        # seed_list grows. <S> is normal iff s^g lies in <S> for every seed s
        # and generator g of G, so only seeds are conjugated; a conjugate that
        # falls outside joins the seed list (and is itself checked later in
        # this loop).
        maps = [self.conj_map(g) for g in self._bfs_gen_indices]
        for s in seed_list:
            for c in maps:
                y = c[s]
                if not (bits >> y) & 1:
                    seed_list.append(y)
                    bits = self.closure_bits(seed_list)
        return bits

    def witnesses_for_bits(self, bits: int) -> tuple[int, ...]:
        """A small generating sequence for a subgroup given as a bitmask."""
        ws: list[int] = []
        cl = 1
        for i in bits_iter(bits):
            if not (cl >> i) & 1:
                ws.append(i)
                cl = self.closure_bits(ws)
                if cl == bits:
                    break
        return tuple(ws)

    def right_cosets(self, bits: int) -> tuple[list[int], list[int], list[int]]:
        """The right cosets Ht of the subgroup ``bits``, ordered by least element.

        Returns ``(reps, cid, cbits)``: each coset's least element, the coset
        index of every element, and each coset as a bitmask. No product
        column is read: t = parent[t] * gen[via[t]], so Ht is the coset of
        t's BFS parent read through the one edge ``_right[via[t]]``.
        """
        if bits == 1:  # every element is its own coset, read without a walk
            ids = list(range(self.order))
            return ids, list(ids), [1 << x for x in ids]
        cid = [-1] * self.order
        reps: list[int] = []
        cbits: list[int] = []
        cosets = [tuple(bits_iter(bits))]  # each coset's members, H first
        parent, via, right = self._parent, self._via, self._right
        for t in range(self.order):
            if cid[t] >= 0:
                continue
            c = len(reps)
            reps.append(t)
            if c:
                # parent[t] < t, so its coset is already built
                cosets.append(itemgetter(*cosets[cid[parent[t]]])(right[via[t]]))
            for x in cosets[c]:
                cid[x] = c
            cbits.append(sum([1 << x for x in cosets[c]]))
        return reps, cid, cbits

    def conj_map(self, g: int) -> tuple[int, ...]:
        """Entry i is ``g^-1 i g``, kept per g: column g read at the inverses
        gives ``i^-1 g``, and read at their inverses ``g^-1 i g``."""
        # a hot read, so its own dict rather than a ``per_group`` key
        c = self._conj_maps.get(g)
        if c is None:
            inv = self._inv
            # order 1 gives (0,): an itemgetter of one index returns a scalar
            left = itemgetter(*self.column_at(g, inv))(inv) if self.order > 1 else (0,)
            c = self._conj_maps[g] = self.column_at(g, left)
        return c

    def conj_bits(self, bits: int, g: int) -> int:
        c = self.conj_map(g)
        return sum([1 << c[i] for i in bits_iter(bits)])  # conjugates are distinct

    @property
    def full_bits(self) -> int:
        return (1 << self.order) - 1

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


class Subgroup:
    """A subgroup stored as an element bitset over the parent's table.

    ``witnesses`` generate it: as given, else ``witnesses_for_bits`` on
    first read, so a subgroup that is built and discarded closes nothing.
    """

    __slots__ = ("group", "bits", "_witnesses")

    def __init__(
        self,
        group: PermGroup,
        bits: int,
        witnesses: Optional[tuple[int, ...]] = None,
    ):
        self.group = group
        self.bits = int(bits)
        self._witnesses = None if witnesses is None else tuple(witnesses)

    @property
    def witnesses(self) -> tuple[int, ...]:
        if self._witnesses is None:
            self._witnesses = self.group.witnesses_for_bits(self.bits)
        return self._witnesses

    @classmethod
    def generated(cls, group: PermGroup, seeds: Iterable[int]) -> "Subgroup":
        bits = group.closure_bits(tuple(seeds))
        return cls(group, bits)

    @classmethod
    def trivial(cls, group: PermGroup) -> "Subgroup":
        return cls(group, 1, ())

    @classmethod
    def full(cls, group: PermGroup) -> "Subgroup":
        return cls(group, group.full_bits, group._bfs_gen_indices)

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def members(self) -> Iterator[int]:
        return bits_iter(self.bits)

    def is_normal(self) -> bool:
        # H is normal iff every generator of G conjugates every witness into H
        G, bits = self.group, self.bits
        maps = [G.conj_map(g) for g in G._bfs_gen_indices]
        return all((bits >> c[w]) & 1 for w in self.witnesses for c in maps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        # equal bits of two groups collide here and differ in ``__eq__``
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group!r})"


class ConjClassTable:
    """Partition of a group's elements into conjugacy classes."""

    __slots__ = ("class_of", "reps", "sizes")

    def __init__(self, class_of: Sequence[int], reps: Sequence[int], sizes: Sequence[int]):
        self.class_of = tuple(class_of)
        self.reps = tuple(reps)
        self.sizes = tuple(sizes)


@per_group
def conjugacy_classes(G: PermGroup) -> ConjClassTable:
    """Conjugacy classes via orbits of the conjugation action by generators."""
    n = G.order
    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    maps = [G.conj_map(g) for g in G._bfs_gen_indices]
    for i in range(n):
        if class_of[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        orbit = [i]
        class_of[i] = cid
        for x in orbit:  # grows while it is walked
            for c in maps:
                y = c[x]
                if class_of[y] < 0:
                    class_of[y] = cid
                    orbit.append(y)
        sizes.append(len(orbit))
    return ConjClassTable(class_of, reps, sizes)


def is_soluble(G: PermGroup) -> bool:
    """True iff every factor of G's chief series is abelian.

    Reads the series that ``crowns`` keeps per group and builds anyway for
    every maximal subgroup and crown question, so no derived series is
    computed.
    """
    from .crowns import chief_series

    return all(chief_series(G).factor_abelian)


def is_klein_four(G: PermGroup) -> bool:
    """True iff G is the Klein four-group: order 4 and exponent 2."""
    return G.order == 4 and all(G.mult(i, i) == 0 for i in range(4))


def quotient(G: PermGroup, N: Subgroup) -> tuple[PermGroup, tuple[int, ...]]:
    """The action of G on the right cosets of a normal subgroup N.

    Returns ``(Q, epi)`` where Q is the image permutation group (its
    generators are the images of G's generators, in the same order) and
    ``epi[i]`` is the index in Q of the image of G's element ``i``.
    """
    if N.group is not G:
        raise BadSectionError("subgroup belongs to a different group")
    if not N.is_normal():
        raise NotNormalError("quotient requires a normal subgroup")
    return _quotient(G, N.bits)


def _quotient(G: PermGroup, nbits: int) -> tuple[PermGroup, tuple[int, ...]]:
    # ``quotient`` by the normal subgroup ``nbits``, unchecked: for a term
    # of G's own chief series
    reps, cid, _ = G.right_cosets(nbits)
    num = len(reps)
    if num * nbits.bit_count() != G.order:
        raise InvariantError("the right cosets of N do not partition G")
    coset_action = _coset_action(G, reps, cid)
    gen_perms = [Permutation._raw(coset_action(gi)) for gi in G.generator_indices]
    Q = PermGroup(num, gen_perms)
    if Q.order != num:
        raise InvariantError("coset action must be regular for a normal subgroup")
    # N acts trivially on its own cosets, so an element acts as its
    # coset's representative does
    image = [Q.index[coset_action(r)] for r in reps]
    epi = tuple([image[c] for c in cid])
    return Q, epi


def _coset_action(
    G: PermGroup, reps: Sequence[int], cid: Sequence[int]
) -> Callable[[int], tuple[int, ...]]:
    """The right action of G on the cosets that ``G.right_cosets`` returned.

    The returned function maps g to the tuple sending coset x to the coset
    of ``reps[x] * g``: column g read at the representatives, then their
    coset ids, so two itemgetters and no Python loop.
    """
    if len(reps) == 1:
        return lambda g: (0,)
    return lambda g: itemgetter(*G.column_at(g, reps))(cid)
