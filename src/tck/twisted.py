"""Brute-force twisted conjugacy on finite groups.

Elements are canonical hashable encodings: permutations as image tuples,
matrices over Z/m as row tuples with entries reduced into [0, m).  Groups
are built by breadth-first closure from generators, so element order is
discovery order and every derived quantity is deterministic.  The closure
keeps every edge x -> x g it walks, so a map given by generator images is
defined and checked in one pass over those edges: the first edge into an
element defines its image, every later edge checks f(x g) = f(x) f(g), and
a bad map stops at its first failed product.  An automorphism is one index
table, images[i] the index of the image of elements[i], so composing,
comparing and sweeping automorphisms hash no element.  Each encoding has
one product, the callable ops.right(b): x -> x b, so a right factor used
many times is taken once; FiniteGroup.mul(a, b) is ops.right(b)(a).

Orbit walks run on index maps, not on group products.  For each generator s
the maps x -> s x and x -> s x s^-1 are read off the Cayley edges at no
product; they are built on first use and kept on the group, and the center
is the set of elements every conjugation map fixes.  The twisting action of
a generator z on y is z y phi(z)^-1: the left map gives z y, so its index
map costs one product per element, and the twist maps of the last
automorphism stay on the group, so R and then S on one phi build them once.
Orbits are walked forward from the least unvisited index; the maps generate
a finite group, so walking forward reaches the whole orbit.  S(phi) is
checked in class space: it is the number of phi-invariant orbits of
y -> z y z^-1 c with c central (Fel'shtyn-Hill on G/Z), so no quotient
group is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, product as cartesian_product
from math import gcd
from operator import itemgetter, mul as scalar_mul
from typing import Iterable

from .errors import ConsistencyError, DomainError, ResourceLimitError, integer

DEFAULT_CLOSURE_CAP = 200000


def closure_cap() -> int:
    raw = os.environ.get("TCK_CLOSURE_CAP")
    if raw is None:
        return DEFAULT_CLOSURE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"TCK_CLOSURE_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("TCK_CLOSURE_CAP must be positive")
    return value


class PermOps:
    """Permutations of range(degree), encoded as image tuples."""

    encoding = "perm"

    def __init__(self, degree: int):
        self.degree = degree
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

    def inv(self, a, cap=None):
        # linear in the degree, so the closure cap never binds here
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)


class MatModOps:
    """Invertible size x size matrices over Z/m, encoded as row tuples.

    The modulus need not be prime: inverses are found by powering until the
    identity recurs, which works for any invertible element of a finite
    monoid and detects non-invertible input by cycle revisit.  Under a
    closure cap the powering stops after cap steps: an element of larger
    order lies in no group the closure would accept.
    """

    encoding = "matmod"

    def __init__(self, size: int, modulus: int):
        if modulus < 2:
            raise DomainError(f"matrix encoding needs a modulus >= 2, got {modulus}")
        self.size = size
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
        """x -> x b as one callable, with the columns of b taken once."""
        p = self.modulus
        columns = tuple(zip(*b))
        return lambda a: tuple(
            tuple(sum(map(scalar_mul, row, column)) % p for column in columns)
            for row in a
        )

    def inv(self, a, cap=None):
        times_a = self.right(a)
        seen = {a}
        previous, current = a, times_a(a)
        while current != self.identity:
            if current in seen:
                raise DomainError(f"matrix {a} is not invertible mod {self.modulus}")
            if cap is not None and len(seen) >= cap:
                raise ResourceLimitError(f"matrix {a} has order above the closure cap {cap}")
            seen.add(current)
            previous, current = current, times_a(current)
        return previous


class FiniteGroup:
    """Closure of a generator list, with its Cayley graph edges kept."""

    def __init__(self, ops, elements, generators, edges, index):
        self.ops = ops
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.index = index  # element -> its position in elements
        self.identity = ops.identity
        # edges[i * len(generators) + pos] = index of elements[i] * generators[pos]
        self.edges = edges
        # per generator, x -> s x and x -> s x s^-1, built on first use
        self._left_maps = None
        self._conj_maps = None
        # the twist maps of the last automorphism walked, keyed by phi(z)^-1
        self._twist = None

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self.ops.right(b)(a)

    def inv(self, a):
        return self.ops.inv(a)

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
        ops.inv(c, cap)  # rejects non-invertible input before closure starts
        if c not in gens:
            gens.append(c)
    rights = [ops.right(g) for g in gens]
    elements = [ops.identity]
    edges = []
    seen = {ops.identity: 0}
    find, add_edge = seen.get, edges.append
    for x in elements:  # grows while it is walked: breadth-first order
        for right in rights:
            y = right(x)
            j = find(y)
            if j is None:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"closure exceeded cap {cap}; partial size {len(elements)}"
                    )
                j = seen[y] = len(elements)
                elements.append(y)
            add_edge(j)
    return FiniteGroup(ops, elements, gens, edges, seen)


def closure(generators, modulus: int | None = None) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators."""
    generators = list(generators)
    if modulus is not None:
        if not generators:
            raise DomainError("matrix closure needs at least one generator for its size")
        ops = MatModOps(len(tuple(generators[0])), modulus)
        return _closure(ops, generators)
    degree = len(tuple(generators[0])) if generators else 0
    return _closure(PermOps(degree), generators)


def subgroup(G: FiniteGroup, elements: Iterable) -> FiniteGroup:
    sub = _closure(G.ops, elements)
    missing = [x for x in sub.elements if x not in G.index]
    if missing:
        raise DomainError(f"element {missing[0]} lies outside the ambient group")
    return sub


def element_order(G: FiniteGroup, x) -> int:
    x = G.element(x)
    order = 1
    power = x
    while power != G.identity:
        power = G.mul(power, x)
        order += 1
    return order


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


def _left_maps(G: FiniteGroup) -> list:
    """For each generator s, x -> s x as an index array, read off the Cayley
    edges at no product, built on first use and kept on the group.

    An element x g first reached from x along the edge under g has
    s (x g) = (s x) g, so the map follows the closure's breadth-first tree
    from s 1 = s.
    """
    if G._left_maps is None:
        # imported on the first walk, so a process that walks no group
        # loads no extension module for it
        from array import array

        index, edges = G.index, G.edges
        ngens = len(G.generators)
        lefts = [[index[s]] for s in G.generators]
        reached = 1
        for k, j in enumerate(edges):
            if j == reached:  # the edge x -> x g that first reached element j
                reached += 1
                i, g = divmod(k, ngens)
                for left in lefts:
                    left.append(edges[left[i] * ngens + g])
        G._left_maps = [array("i", left) for left in lefts]
    return G._left_maps


def _conjugation_maps(G: FiniteGroup) -> list:
    """For each generator s, x -> s x s^-1 as an index array, built on first
    use and kept on the group: s x s^-1 is the element whose edge under s
    leads to s x."""
    if G._conj_maps is None:
        from array import array

        edges, ngens = G.edges, len(G.generators)
        conj_maps = []
        for pos, left in enumerate(_left_maps(G)):
            source = array("i", bytes(4 * len(G)))
            for i, j in enumerate(edges[pos::ngens]):
                source[j] = i
            conj_maps.append(array("i", map(source.__getitem__, left)))
        G._conj_maps = conj_maps
    return G._conj_maps


def all_automorphisms(G: FiniteGroup) -> list["GroupAutomorphism"]:
    """Every automorphism, searched up to inner ones and the rest conjugated.

    Every automorphism is i_h o phi with phi(g1) a conjugacy class
    representative, so the search puts g1 only on the least element of each
    class of its order; a later generator g goes to elements y of its order
    with g1 g and phi(g1) y of one order.  The other automorphisms are the
    orbit of each found phi under phi -> i_s o phi for the generators s, on
    index maps.  The list is ordered by the element indices of the generator
    images, the order a full sweep of the image tuples gives.
    """
    gens, elements, index = G.generators, G.elements, G.index
    if not gens:
        return [GroupAutomorphism.identity(G)]
    mul = G.mul
    orders = _element_orders(G)
    conj = _conjugation_maps(G)
    first = gens[0]
    reps = [elements[i] for i in _orbit_ids(len(G), conj)[1]
            if orders[i] == orders[index[first]]]
    targets = [(orders[index[g]], orders[index[mul(first, g)]]) for g in gens[1:]]
    at_gens = [index[g] for g in gens]
    found = {}  # generator image indices -> image indices of every element
    for r in reps:
        pools = [[y for i, y in enumerate(elements)
                  if orders[i] == o and orders[index[mul(r, y)]] == o_product]
                 for o, o_product in targets]
        for images in cartesian_product([r], *pools):
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
    return [GroupAutomorphism(G, found[key]) for key in sorted(found)]


def center(G: FiniteGroup) -> FiniteGroup:
    """Elements that every generator's conjugation map fixes.

    Z is generated by a few central elements: one joins the generators only
    if the subgroup built so far misses it, so there are at most log2 |Z|.
    """
    central = range(len(G))
    for conj in _conjugation_maps(G):
        central = [i for i in central if conj[i] == i]
    Z = subgroup(G, [])
    for i in central:
        if G.elements[i] not in Z.index:
            Z = subgroup(G, Z.generators + (G.elements[i],))
    return Z


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
    def from_generator_images(cls, group: FiniteGroup, images) -> "GroupAutomorphism":
        images = [group.element(im) for im in images]
        if len(images) != len(group.generators):
            raise DomainError(
                f"expected {len(group.generators)} generator images, got {len(images)}"
            )
        # Breadth-first discovery numbers each element at its first incoming
        # edge, so walking the edges in order defines f(x) before any later
        # edge reads it; passing every edge makes f a homomorphism.
        rights = [group.ops.right(im) for im in images]
        ngens = len(images)
        image = [group.identity]
        for k, j in enumerate(group.edges):
            fy = rights[k % ngens](image[k // ngens])
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
        g = group.element(g)
        mul, times_g_inv, index = group.mul, group.ops.right(group.ops.inv(g)), group.index
        return cls(group, [index[times_g_inv(mul(g, x))] for x in group.elements])

    def __call__(self, x):
        group = self.group
        return group.elements[self.images[group.index[group.element(x)]]]

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        if other.group is not self.group:
            raise DomainError("automorphisms act on different groups")
        images = map(self.images.__getitem__, other.images)
        return GroupAutomorphism(self.group, images)

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
    """For each generator z, y -> z y phi(z)^-1 as an index array.

    z y is read off the left map, so each costs one product per element.
    The maps of the last automorphism are kept on the group, keyed by the
    images phi(z)^-1 they depend on, so R and then S on one phi build them
    once.
    """
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    key = tuple(G.inv(phi(z)) for z in G.generators)
    if G._twist is None or G._twist[0] != key:
        from array import array

        G._twist = None  # the old maps go before the new ones are built
        index, elements, lefts = G.index, G.elements, _left_maps(G)
        G._twist = key, [array("i", [index[times_w(elements[j])] for j in left])
                         for left, times_w in zip(lefts, map(G.ops.right, key))]
    return G._twist[1]


def _right_maps(G: FiniteGroup, factors) -> list:
    """y -> y c as an index list for each c, one product per element."""
    index, elements = G.index, G.elements
    return [[index[times_c(y)] for y in elements] for times_c in map(G.ops.right, factors)]


def twisted_classes(G: FiniteGroup, phi: GroupAutomorphism) -> tuple:
    """The classes of y ~ z y phi(z)^-1 as element tuples, by least element index."""
    blocks = _orbit_blocks(G, *_orbit_ids(len(G), _twist_maps(G, phi)))
    if sum(len(b) for b in blocks) != len(G):
        raise ConsistencyError("twisted classes do not partition the group")
    return blocks


def reidemeister_number(G: FiniteGroup, phi: GroupAutomorphism) -> int:
    return len(_orbit_ids(len(G), _twist_maps(G, phi))[1])


def inner_twist_invariance(G: FiniteGroup, phi: GroupAutomorphism, g) -> bool:
    twisted = phi.compose(GroupAutomorphism.inner(G, g))
    return reidemeister_number(G, twisted) == reidemeister_number(G, phi)


def _coset_leaders(G: FiniteGroup, N: FiniteGroup) -> dict:
    """Map each element to min(xN); each coset is formed once, |G| products in all."""
    mul, elements, index = G.mul, G.elements, G.index
    leader = {}
    for x in elements:
        if x in leader:
            continue
        # keyed by G's own element objects, not fresh copies of them
        coset = [elements[index[mul(x, n)]] for n in N.elements]
        best = min(coset)
        for y in coset:
            leader[y] = best
    return leader


class _QuotientOps:
    def __init__(self, G: FiniteGroup, leader: dict):
        self.encoding = G.ops.encoding
        self._G = G
        self._leader = leader
        self.identity = leader[G.identity]

    def canonical(self, raw):
        x = self._G.ops.canonical(raw)
        if x not in self._leader:
            raise DomainError(f"{x} lies outside the group")
        return self._leader[x]

    def right(self, b):
        times_b, leader = self._G.ops.right(b), self._leader
        return lambda a: leader[times_b(a)]

    def inv(self, a, cap=None):
        return self._leader[self._G.inv(a)]


def induced_automorphism(G: FiniteGroup, N, phi: GroupAutomorphism):
    """Quotient by a phi-invariant normal subgroup with the induced map."""
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    if not isinstance(N, FiniteGroup):
        N = subgroup(G, N)
    elif any(x not in G.index for x in N.elements):
        raise DomainError("subgroup lies outside the ambient group")
    n_set = set(N.elements)
    mul = G.mul
    for g in G.generators:
        times_g_inv = G.ops.right(G.inv(g))
        for n in N.elements:
            if times_g_inv(mul(g, n)) not in n_set:
                raise DomainError(f"subgroup is not normal: conjugate of {n} escapes")
    if {phi(n) for n in N.elements} != n_set:
        raise DomainError("automorphism does not preserve the subgroup")
    leader = _coset_leaders(G, N)
    qops = _QuotientOps(G, leader)
    quotient = _closure(qops, [leader[g] for g in G.generators])
    images = [leader[phi(g)] for g in quotient.generators]
    phi_bar = GroupAutomorphism.from_generator_images(quotient, images)
    return quotient, phi_bar


@dataclass(frozen=True)
class IsogredienceClassCount:
    count: int


def isogredience_count(G: FiniteGroup, phi: GroupAutomorphism) -> IsogredienceClassCount:
    """Orbit count of the twists phi_s phi, computed two independent ways.

    Route one enumerates orbits of s under s -> g s phi(g)^-1 and s -> s c
    with c central.  Route two counts the orbits of y -> g y g^-1 c that phi
    maps to themselves: these orbits are the conjugacy classes of G/Z, and
    the Reidemeister number of the induced map is its number of invariant
    classes (Fel'shtyn-Hill).  Since phi(Z) = Z, phi permutes the orbits,
    so one image per orbit decides.  The two counts must agree.
    """
    twists = _twist_maps(G, phi)  # checks phi's group before the center is built
    central = _right_maps(G, center(G).generators)
    direct = len(_orbit_ids(len(G), twists + central)[1])
    classes, leaders = _orbit_ids(len(G), _conjugation_maps(G) + central)
    # an orbit is phi-invariant iff its least element's image lies in it
    invariant = sum(classes[phi.images[i]] == k for k, i in enumerate(leaders))
    if direct != invariant:
        raise ConsistencyError(
            f"isogredience routes disagree: direct {direct}, invariant classes {invariant}"
        )
    return IsogredienceClassCount(direct)


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
        integer(modulus, 2, f"matmod modulus must be an integer >= 2, got {modulus!r}")
        return closure(generators, modulus=modulus)
    raise DomainError(f"unknown encoding {encoding!r}")


def automorphism_from_descriptor(G: FiniteGroup, descriptor: dict) -> GroupAutomorphism:
    if "images" not in descriptor:
        raise DomainError("automorphism descriptor missing 'images'")
    images = descriptor["images"]
    if not isinstance(images, list):
        raise DomainError("images must be a list")
    return GroupAutomorphism.from_generator_images(G, images)
