"""Brute-force twisted conjugacy on finite groups.

Elements are canonical hashable encodings: permutations as image tuples,
matrices over Z/m as row tuples with entries reduced into [0, m).  Groups
are built by breadth-first closure from generators, so element order is
discovery order and every derived quantity is deterministic.  The closure
keeps its Cayley graph as one edge column per generator s, column i the
index of elements[i] s, and records its breadth-first tree as it goes: each
element's parent and generator, from the edge that first reached it.  A map
given by generator images is defined and checked in one pass over the
columns in the closure's order: the first edge into an element defines its
image, every later edge checks f(x g) = f(x) f(g), and a bad map stops at
its first failed product.  An automorphism is one index table, images[i]
the index of the image of elements[i], so composing, comparing and
sweeping automorphisms hash no element.  Each encoding has
one product, the callable ops.right(b): x -> x b, so a right factor used
many times is taken once; FiniteGroup.mul(a, b) is ops.right(b)(a).  A
matrix product is a row lookup once warm: row i of x b is (row i of x) b,
and a group's elements share few distinct rows.  Products are taken by
closures, from_generator_images and element orders, and by the telescoping
check, which tests a product definition directly.

Orbit walks run on index maps, not on group products.  After closure every
map is composed from the edge columns down the recorded tree, so it takes
no product and inverts no element.  An element first reached as x s has
u (x s) = (u x) s, so x -> u x follows the tree from u.  The group keeps one
family of such maps, x -> s^-1 x for each generator s (s^-1 being the x
whose edge under s leads to 1), and x -> x^-1, which follows the tree from
1 along them, since (x s)^-1 = s^-1 x^-1.  FiniteGroup.inv reads this map,
so no element is inverted by powering; the closure gates each generator on
the same edges, since in the finite monoid it walked s is invertible exactly
when some x has x s = 1.  Every orbit map is y -> z^-1 y w for a generator
z, as L_{z^-1} o R_w, where R_w is w's edge column when w is a generator
and inv o L_{w^-1} o inv otherwise: conjugation is w = s, and the twisting
action of z is w = phi(z), the inverse of y -> z y phi(z)^-1 and so with
the same orbits, for any bijection phi.  A central move y -> y c is L_c.
The left maps and the inverse map are built on first use and kept on the
group, and so are the twist maps of the last automorphism with their orbit
count, so R and then S on one phi build and walk them once.  The center is
the set of elements every conjugation map fixes.  Orbits are walked forward
from the least unvisited index; the maps generate a finite group, so
walking forward reaches the whole orbit.  R of the map phi induces on G/N,
for any phi-invariant normal subgroup N, is counted in class space: it is
the number of phi-invariant orbits of conjugation and y -> n y with n in N
(Fel'shtyn-Hill), so no quotient group is built.  Normality and invariance
of N are checked on the conjugation maps and phi's table.  S(phi) is the
case N = Z, where the moves are the central moves.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from itertools import chain, product as cartesian_product
from math import gcd, prod
from operator import itemgetter, mul as scalar_mul

from .errors import (ConsistencyError, DomainError, Record, ResourceLimitError, charge,
                     closure_cap, decimal, integer, width_charge)


class PermOps:
    """Permutations of range(degree), encoded as image tuples."""

    encoding = "perm"

    def __init__(self, degree: int):
        self.degree = self.width = degree
        self.identity = tuple(range(degree))

    def canonical(self, raw):
        try:
            image = tuple(raw)
        except TypeError as exc:
            raise DomainError(f"{raw!r} is not a permutation of {self.degree} points") from exc
        if not {int}.issuperset(map(type, image)) or sorted(image) != list(range(self.degree)):
            raise DomainError(f"{raw!r} is not a permutation of {self.degree} points")
        return image

    def right(self, b):
        """x -> x b as one callable, for a right factor used many times."""
        # apply b first, then a, matching matrix composition; itemgetter
        # returns a scalar for one index and fails on none
        if self.degree < 2:
            return lambda a: tuple(a[v] for v in b)
        return itemgetter(*b)


class _RowImages(dict):
    """row -> row b mod m for one matrix b, each distinct row computed on its
    first lookup: a group's elements share few distinct rows."""

    __slots__ = ("columns", "modulus")

    def __init__(self, b, modulus: int):
        self.columns = tuple(zip(*b))
        self.modulus = modulus

    def __missing__(self, row):
        p = self.modulus
        image = self[row] = tuple(sum(map(scalar_mul, row, column)) % p
                                  for column in self.columns)
        return image


class MatModOps:
    """Invertible size x size matrices over Z/m, encoded as row tuples.

    The modulus need not be prime, and no element is inverted by powering:
    the closure gates each generator on its own edges, since in the finite
    monoid it walked s is invertible exactly when some x has x s = 1.
    """

    encoding = "matmod"

    def __init__(self, size: int, modulus: int):
        # the message names no value: an int past the int/str digit limit
        # cannot be formatted
        integer(modulus, 2, "matrix encoding needs an int modulus >= 2")
        # the closure's messages print the modulus and entries below it; only
        # an int of more than 3 * limit bits can reach 10**limit
        limit = sys.get_int_max_str_digits()
        if limit and modulus.bit_length() > 3 * limit and modulus >= 10**limit:
            raise DomainError(f"matrix modulus has more than {limit} digits")
        self.size = size
        self.width = size * size
        self.modulus = modulus
        self.identity = tuple(
            tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
        )

    def canonical(self, raw):
        try:
            rows = tuple(map(tuple, raw))
        except TypeError as exc:
            raise DomainError(f"matrix {raw!r} does not hold integer entries") from exc
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            raise DomainError(f"matrix {raw!r} does not hold integer entries")
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise DomainError(f"matrix is not {self.size}x{self.size}")
        p = self.modulus
        return tuple(tuple(v % p for v in row) for row in rows)

    def right(self, b):
        """x -> x b as one callable: row i of x b is (row i of x) b, and each
        distinct row's image is computed once per callable, then looked up."""
        images = _RowImages(b, self.modulus)
        return lambda a: tuple(map(images.__getitem__, a))


class FiniteGroup:
    """Closure of a generator list, with its Cayley graph and breadth-first
    tree kept as the walk recorded them."""

    def __init__(self, ops, elements, generators, index, columns, parent, via):
        self.ops = ops
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.index = index  # element -> its position in elements
        self.identity = ops.identity
        # columns[pos][i] = index of elements[i] * generators[pos]
        self.columns = columns
        # element j > 0 was first reached along the edge from parent[j - 1]
        # under generator via[j - 1]
        self.parent, self.via = parent, via
        # built on first use: (x -> s^-1 x per generator s, x -> x^-1), and
        # x -> s^-1 x s per generator s
        self._lefts = None
        self._conj_maps = None
        # [phi(z) indices, twist maps, their orbit count] of the last
        # automorphism walked
        self._twist = None

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self.ops.right(b)(a)

    def inv(self, a):
        """a^-1, read off the inverse map along the closure's tree."""
        return self.elements[_inverse_lefts(self)[1][self.index[self.element(a)]]]

    def conjugate(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))

    def element(self, raw):
        """raw in canonical form; the one gate for elements from outside."""
        x = self.ops.canonical(raw)
        if x not in self.index:
            raise DomainError(f"{x} lies outside the group")
        return x


def _closure(ops, generators) -> FiniteGroup:
    cap = closure_cap()
    gens = []
    for g in generators:
        c = ops.canonical(g)
        if c not in gens:
            gens.append(c)
    weight = width_charge(ops.width)
    G = _walk(ops, gens, [ops.right(g) for g in gens], cap, weight)
    # the walk closed a finite monoid, in which s is invertible exactly when
    # some x has x s = 1: when the edge column of s reaches the identity
    for s, column in zip(gens, G.columns):
        if 0 not in column:
            raise DomainError(f"matrix {s} is not invertible mod {ops.modulus}")
    return G


def _walk(ops, gens, rights, cap: int, weight: int = 1) -> FiniteGroup:
    """Breadth-first closure from the identity, rights[pos] being x -> x gens[pos],
    each element counting weight against cap; each edge goes to its
    generator's column, and each first edge into an element to the tree."""
    elements = [ops.identity]
    seen = {ops.identity: 0}
    columns = [[] for _ in rights]
    # as C ints: a list would keep one int object per element
    parent, via = array("i"), array("i")
    find, to_parent, to_via = seen.get, parent.append, via.append
    steps = [(pos, right, column.append) for pos, (right, column)
             in enumerate(zip(rights, columns))]
    limit = cap // weight
    for i, x in enumerate(elements):  # grows while it is walked: breadth-first order
        for pos, right, add_edge in steps:
            y = right(x)
            j = find(y)
            if j is None:
                if len(elements) >= limit:
                    raise ResourceLimitError(
                        f"closure exceeded cap {cap}; partial size {len(elements)}"
                        + (f" at width {ops.width} ({weight} per element)" if weight > 1 else ""))
                j = seen[y] = len(elements)
                elements.append(y)
                to_parent(i)
                to_via(pos)
            add_edge(j)
    return FiniteGroup(ops, elements, gens, seen, columns, parent, via)


def closure(generators, modulus: int | None = None) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators."""
    try:
        generators = list(generators)
        size = len(tuple(generators[0])) if generators else 0
    except TypeError as exc:  # closure(5), closure([5])
        raise DomainError(f"generators must be permutations or matrices: {exc}") from exc
    if modulus is not None:
        if not generators:
            raise DomainError("matrix closure needs at least one generator for its size")
        return _closure(MatModOps(size, modulus), generators)
    return _closure(PermOps(size), generators)


def subgroup(G: FiniteGroup, elements: Iterable) -> FiniteGroup:
    if not isinstance(elements, Iterable):
        raise DomainError(f"subgroup elements must be iterable, not {type(elements).__name__}")
    sub = _closure(G.ops, elements)
    missing = [x for x in sub.elements if x not in G.index]
    if missing:
        raise DomainError(f"element {missing[0]} lies outside the ambient group")
    return sub


def _element_orders(G: FiniteGroup) -> list:
    """The order of every element, by index, from one walk per cyclic subgroup.

    The powers x, x^2, ..., x^n = 1 of an element with no order yet give
    ord(x^k) = n / gcd(n, k) for every k at once.
    """
    index, identity, right = G.index, G.identity, G.ops.right
    orders = [0] * len(G)
    for i, x in enumerate(G.elements):
        if orders[i]:
            continue
        times_x, power, powers = right(x), x, [i]
        while power != identity:
            power = times_x(power)
            powers.append(index[power])
        n = len(powers)
        for k, j in enumerate(powers, 1):
            orders[j] = n // gcd(n, k)
    return orders


def _propagate(G: FiniteGroup, start: int, columns) -> list:
    """The index map f with f(1) = start and f(x s) = columns[s][f(x)], down
    the breadth-first tree: parents come first, so no product is taken.  On
    the edge columns it is x -> u x for u = elements[start], L_u, since
    u (x s) = (u x) s."""
    out = [start]
    append = out.append
    for i, pos in zip(G.parent, G.via):
        append(columns[pos][out[i]])
    return out


def _inverse_lefts(G: FiniteGroup) -> tuple:
    """For each generator s the map x -> s^-1 x, and x -> x^-1, as index
    lists built on first use and kept on the group.

    s^-1 is the element whose edge under s leads to 1, and (x s)^-1 =
    s^-1 x^-1, so x -> x^-1 follows the tree from 1 along the maps x -> s^-1 x.
    """
    if G._lefts is None:
        lefts = [_propagate(G, column.index(0), G.columns) for column in G.columns]
        G._lefts = lefts, _propagate(G, 0, lefts)
    return G._lefts


def _compose(outer, inner) -> tuple:
    """outer o inner for index maps, as a tuple of outer's own ints."""
    if len(inner) < 2:  # itemgetter returns a scalar for one index
        return tuple(outer[i] for i in inner)
    return itemgetter(*inner)(outer)


def _orbit_map(G: FiniteGroup, pos: int, w: int) -> tuple:
    """y -> z^-1 y w for z = generators[pos] and w an element index, as L_{z^-1} o R_w:
    R_w is w's edge column for a generator w, and otherwise (x -> x^-1 w) o inv,
    x -> x^-1 w following the left maps down the tree from w: (xs)^-1 w = s^-1 (x^-1 w)."""
    lefts, inverse = _inverse_lefts(G)
    for s, column in zip(G.generators, G.columns):
        if G.index[s] == w:
            return _compose(lefts[pos], column)
    return _compose(lefts[pos], _compose(_propagate(G, w, lefts), inverse))


def _conjugation_maps(G: FiniteGroup) -> list:
    """For each generator s, x -> s^-1 x s as an index map, built on first
    use and kept on the group."""
    if G._conj_maps is None:
        G._conj_maps = [_orbit_map(G, pos, G.index[s]) for pos, s in enumerate(G.generators)]
    return G._conj_maps


def all_automorphisms(G: FiniteGroup) -> list["GroupAutomorphism"]:
    """Every automorphism, searched up to inner ones and the rest conjugated.

    Every automorphism is i_h o phi with phi(g1) a conjugacy class
    representative, so the search puts g1 only on the least element of each
    class of its order; a later generator g goes to elements y of its order
    with g1 g and phi(g1) y of one order.  The other automorphisms are the
    orbit of each found phi under composition with the generators'
    conjugation maps, on index maps.  The list is ordered by the element
    indices of the generator images, the order a full sweep of the image
    tuples gives.
    """
    gens, elements, index = G.generators, G.elements, G.index
    if not gens:
        return [GroupAutomorphism.identity(G)]
    orders = _element_orders(G)
    conj = _conjugation_maps(G)
    at_gens = [index[g] for g in gens]
    reps = [i for i in _orbit_ids(len(G), conj)[1] if orders[i] == orders[at_gens[0]]]
    # the order of g and of g1 g, read off g's edge column
    targets = [(orders[j], orders[column[at_gens[0]]])
               for j, column in zip(at_gens[1:], G.columns[1:])]
    searches = []
    for r in reps:
        left = _propagate(G, r, G.columns)
        searches.append((r, [[y for i, y in enumerate(elements)
                              if orders[i] == o and orders[left[i]] == o_product]
                             for o, o_product in targets]))
    # the candidate tuples grow as |G|^(generators - 1), so all of them are
    # charged against the closure cap before the first is tried
    candidates = sum(prod(map(len, pools)) for _, pools in searches)
    charge(candidates, lambda cap: f"automorphism search exceeds closure cap {cap}: "
           f"{decimal(candidates)} candidate generator images")
    found = {}  # generator image indices -> image indices of every element
    for r, pools in searches:
        for images in cartesian_product([elements[r]], *pools):
            if tuple(index[x] for x in images) in found:
                continue
            try:
                table = GroupAutomorphism.from_generator_images(G, images).images
            except DomainError:
                continue
            found[tuple(table[j] for j in at_gens)] = table
            orbit = [table]
            for psi in orbit:
                for c in conj:
                    key = tuple(c[psi[j]] for j in at_gens)
                    if key not in found:
                        found[key] = moved = tuple(map(c.__getitem__, psi))
                        orbit.append(moved)
    return [GroupAutomorphism._composed(G, found[key]) for key in sorted(found)]


def center(G: FiniteGroup) -> FiniteGroup:
    """Elements that every generator's conjugation map fixes.

    Z is generated by a few central elements: one joins the generators only
    if the subgroup built so far misses it, so there are at most log2 |Z|.
    """
    return _center(G)[0]


def _center(G: FiniteGroup) -> tuple:
    """Z, and for each of its generators c the central move y -> y c = c y as
    an index map, L_c; Z is closed on those maps, at no product."""
    central = range(len(G))
    for conj in _conjugation_maps(G):
        central = [i for i in central if conj[i] == i]
    elements, index = G.elements, G.index
    gens, moves = [], []
    # Z lies in G, so its walk never reaches the cap len(G)
    Z = _walk(G.ops, gens, [], len(G))
    for i in central:
        if elements[i] not in Z.index:
            gens.append(elements[i])
            moves.append(_propagate(G, i, G.columns))
            rights = [lambda x, move=move: elements[move[index[x]]] for move in moves]
            Z = _walk(G.ops, gens, rights, len(G))
    return Z, moves


class GroupAutomorphism:
    """Bijective homomorphism as an index table: images[i] is the index of
    the image of group.elements[i]."""

    def __init__(self, group: FiniteGroup, images):
        self.group = group
        self.images = tuple(images)
        n = len(group)
        if (
            len(self.images) != n
            or not {int}.issuperset(map(type, self.images))
            or not set(self.images).issuperset(range(n))
        ):
            raise DomainError(f"images must list each of the {n} element indices once")

    @classmethod
    def _composed(cls, group: FiniteGroup, images: tuple) -> "GroupAutomorphism":
        """A table composed from the group's own bijections (index maps, or an
        automorphism checked before and its conjugates): a bijection by
        construction, so it skips the check and the set of |G| ints it builds."""
        phi = object.__new__(cls)
        phi.group, phi.images = group, images
        return phi

    @classmethod
    def from_generator_images(cls, group: FiniteGroup, images) -> "GroupAutomorphism":
        images = [group.element(im) for im in images]
        if len(images) != len(group.generators):
            raise DomainError(
                f"expected {len(group.generators)} generator images, got {len(images)}"
            )
        # Walking the columns in the closure's order meets each element first
        # at the edge that discovered it, so f(x) is defined before any later
        # edge reads it; passing every edge makes f a homomorphism.
        steps = [(group.ops.right(im), column) for im, column in zip(images, group.columns)]
        image = [group.identity]
        for i, fx in enumerate(image):  # grows while it is walked, as in the closure
            for right, column in steps:
                fy, j = right(fx), column[i]
                if j == len(image):
                    image.append(fy)
                elif image[j] != fy:
                    raise DomainError("generator images do not extend to a homomorphism")
        return cls(group, map(group.index.__getitem__, image))

    @classmethod
    def identity(cls, group: FiniteGroup) -> "GroupAutomorphism":
        return cls(group, range(len(group)))

    @classmethod
    def inner(cls, group: FiniteGroup, g) -> "GroupAutomorphism":
        """x -> g x g^-1, as L_g o inv o L_g o inv."""
        left = _propagate(group, group.index[group.element(g)], group.columns)
        inverse = _inverse_lefts(group)[1]
        return cls._composed(group, _compose(left, _compose(inverse, _compose(left, inverse))))

    def __call__(self, x):
        group = self.group
        return group.elements[self.images[group.index[group.element(x)]]]

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        if other.group is not self.group:
            raise DomainError("automorphisms act on different groups")
        return GroupAutomorphism._composed(
            self.group, tuple(map(self.images.__getitem__, other.images)))

    def __eq__(self, other):
        return (
            isinstance(other, GroupAutomorphism)
            and self.group is other.group
            and self.images == other.images
        )


def _orbit_ids(n: int, maps) -> tuple:
    """Orbits of range(n) under the index maps, walked forward from the
    least unvisited index: each index's orbit id, ids numbered in order of
    least index, and leaders[k] the least index of orbit k."""
    ids = [-1] * n
    leaders = []
    for start in range(n):
        if ids[start] >= 0:
            continue
        count = ids[start] = len(leaders)
        leaders.append(start)
        orbit = [start]
        for i in orbit:
            for m in maps:
                j = m[i]
                if ids[j] < 0:
                    ids[j] = count
                    orbit.append(j)
    return ids, leaders


def _orbit_blocks(G: FiniteGroup, ids, leaders) -> tuple:
    """The orbits as element tuples, ordered by least index, each in index order."""
    blocks = [[] for _ in leaders]
    for x, k in zip(G.elements, ids):
        blocks[k].append(x)
    return tuple(map(tuple, blocks))


def _twist_maps(G: FiniteGroup, phi: GroupAutomorphism) -> list:
    """For each generator z, y -> z^-1 y phi(z) as an index map: the inverse
    of y -> z y phi(z)^-1, so its orbits are the twisted classes.

    The maps of the last automorphism are kept on the group, keyed by the
    images phi(z) they depend on, so R and then S on one phi build them
    once.
    """
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    key = tuple(phi.images[G.index[z]] for z in G.generators)
    if G._twist is None or G._twist[0] != key:
        G._twist = None  # the old maps go before the new ones are built
        maps = [_orbit_map(G, pos, w) for pos, w in enumerate(key)]
        G._twist = [key, maps, None]
    return G._twist[1]


def twisted_classes(G: FiniteGroup, phi: GroupAutomorphism) -> tuple:
    """The classes of y ~ z y phi(z)^-1 as element tuples, by least element index."""
    blocks = _orbit_blocks(G, *_orbit_ids(len(G), _twist_maps(G, phi)))
    if sum(len(b) for b in blocks) != len(G):
        raise ConsistencyError("twisted classes do not partition the group")
    return blocks


def reidemeister_number(G: FiniteGroup, phi: GroupAutomorphism) -> int:
    """The number of twisted classes, kept with the twist maps it walked."""
    twists = _twist_maps(G, phi)
    if G._twist[2] is None:
        G._twist[2] = len(_orbit_ids(len(G), twists)[1])
    return G._twist[2]


def inner_twist_invariance(G: FiniteGroup, phi: GroupAutomorphism, g) -> bool:
    twisted = phi.compose(GroupAutomorphism.inner(G, g))
    return reidemeister_number(G, twisted) == reidemeister_number(G, phi)


def _quotient_count(G: FiniteGroup, phi: GroupAutomorphism, moves: list) -> int:
    """R of the map phi induces on G/N, counted on G two independent ways;
    moves are the maps y -> n y for generators n of the phi-invariant normal
    subgroup N.

    Route one enumerates orbits of y under y -> g y phi(g)^-1 and the moves.
    Route two counts the orbits of y -> g y g^-1 and the moves that phi maps
    to themselves: these orbits are the conjugacy classes of G/N, and the
    Reidemeister number of the induced map is its number of invariant
    classes (Fel'shtyn-Hill).  Since phi(N) = N, phi permutes the orbits,
    so one image per orbit decides.  The two counts must agree.
    """
    twists = _twist_maps(G, phi)
    # with no move, route one walks R's maps: the kept count serves
    direct = (len(_orbit_ids(len(G), twists + moves)[1]) if moves
              else reidemeister_number(G, phi))
    classes, leaders = _orbit_ids(len(G), _conjugation_maps(G) + moves)
    # an orbit is phi-invariant iff its least element's image lies in it
    invariant = sum(classes[phi.images[i]] == k for k, i in enumerate(leaders))
    if direct != invariant:
        raise ConsistencyError(
            f"isogredience routes disagree: direct {direct}, invariant classes {invariant}"
        )
    return direct


def induced_reidemeister_number(G: FiniteGroup, N, phi: GroupAutomorphism) -> int:
    """R of the map phi induces on G/N, for a phi-invariant normal subgroup
    N given as a group or by its elements, counted in class space: no
    quotient group is built."""
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    if not isinstance(N, FiniteGroup):
        N = subgroup(G, N)
    elif any(x not in G.index for x in N.elements):
        raise DomainError("subgroup lies outside the ambient group")
    members = [G.index[n] for n in N.elements]
    inside = set(members)
    for conj in _conjugation_maps(G):
        for n, i in zip(N.elements, members):
            if conj[i] not in inside:
                raise DomainError(f"subgroup is not normal: conjugate of {n} escapes")
    if any(phi.images[i] not in inside for i in members):
        raise DomainError("automorphism does not preserve the subgroup")
    # N is normal, so y -> n y moves y within its coset yN = Ny
    return _quotient_count(G, phi, [_propagate(G, G.index[n], G.columns) for n in N.generators])


class IsogredienceClassCount(Record):
    count: int


def isogredience_count(G: FiniteGroup, phi: GroupAutomorphism) -> IsogredienceClassCount:
    """S(phi), the orbit count of the twists phi_s phi: R of the map phi
    induces on G/Z, with the central moves y -> y c = c y."""
    return IsogredienceClassCount(_quotient_count(G, phi, _center(G)[1]))


def telescoping_product_check(G: FiniteGroup, phi: GroupAutomorphism, y, z, m: int) -> bool:
    """Identity behind pushing a twisted product through a conjugating element."""
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    integer(m, 1, "telescoping length must be at least 1")
    y, z = G.element(y), G.element(z)

    def product(base):
        acc = base
        current = base
        for _ in range(m - 1):
            current = phi(current)
            acc = G.mul(acc, current)
        return acc

    x = G.mul(G.mul(z, y), G.inv(phi(z)))
    left = product(x)
    phi_m_z = z
    for _ in range(m):
        phi_m_z = phi(phi_m_z)
    right = G.mul(G.mul(z, product(y)), G.inv(phi_m_z))
    return left == right


def group_descriptor(G: FiniteGroup) -> dict:
    gens = [
        [list(row) for row in g] if G.ops.encoding == "matmod" else list(g)
        for g in G.generators
    ]
    out = {"encoding": G.ops.encoding, "generators": gens}
    if G.ops.encoding == "matmod":
        out["modulus"] = G.ops.modulus
    return out


def group_from_descriptor(descriptor: dict) -> FiniteGroup:
    try:
        encoding = descriptor["encoding"]
        generators = descriptor["generators"]
    except KeyError as exc:
        raise DomainError(f"group descriptor missing key {exc}") from exc
    # the closure reads its degree or size off the first generator; the
    # encoding's canonical form checks every entry
    if not isinstance(generators, list) or not all(isinstance(g, list) for g in generators):
        raise DomainError("generators must be a list of lists")
    if encoding == "perm":
        return closure(generators)
    if encoding == "matmod":
        if "modulus" not in descriptor:
            raise DomainError("matmod descriptor needs a modulus")
        modulus = descriptor["modulus"]
        # the message names no value, which could be past the int/str digit limit
        integer(modulus, 2, "matmod modulus must be an integer >= 2")
        return closure(generators, modulus=modulus)
    raise DomainError(f"unknown encoding {encoding!r}")


def automorphism_from_descriptor(G: FiniteGroup, descriptor: dict) -> GroupAutomorphism:
    if "images" not in descriptor:
        raise DomainError("automorphism descriptor missing 'images'")
    images = descriptor["images"]
    if not isinstance(images, list):
        raise DomainError("images must be a list")
    return GroupAutomorphism.from_generator_images(G, images)
