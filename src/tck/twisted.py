"""Brute-force twisted conjugacy on finite groups.

Elements are canonical hashable encodings: permutations as image tuples,
matrices over Z/m as row tuples with entries reduced into [0, m).  Groups
are built by breadth-first closure from generators, so element order is
discovery order and every derived quantity is deterministic.  The closure
keeps every edge x -> x g it walks, so a map given by generator images is
defined and checked in one pass over those edges: the first edge into an
element defines its image, every later edge checks f(x g) = f(x) f(g), and
a bad map stops at its first failed product.  The same edges give x g for
every generator g, so the center multiplies out only g x.

The twisting action of z on y is z y phi(z)^-1.  Orbits are walked forward
from the least unvisited element under the generator moves y -> a y b; the
moves generate a finite group, so walking forward reaches the whole orbit.
The identity move y -> y reaches nothing new and is skipped.  S(phi) is
checked in class space: it is the number of phi-invariant orbits of
y -> z y z^-1 c with c central (Fel'shtyn-Hill on G/Z), so no quotient
group is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as cartesian_product
from operator import itemgetter, mul as scalar_mul
from typing import Iterable

from .errors import ConsistencyError, DomainError, ResourceLimitError

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
            image = tuple(int(v) for v in raw)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{raw!r} is not a permutation of {self.degree} points") from exc
        if sorted(image) != list(range(self.degree)):
            raise DomainError(f"{raw!r} is not a permutation of {self.degree} points")
        return image

    def mul(self, a, b):
        # apply b first, then a, matching matrix composition; itemgetter
        # returns a scalar for one index and fails on none
        if self.degree < 2:
            return tuple(a[v] for v in b)
        return itemgetter(*b)(a)

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
        p = self.modulus
        try:
            rows = tuple(tuple(int(v) % p for v in row) for row in raw)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"matrix {raw!r} does not hold integer entries") from exc
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise DomainError(f"matrix is not {self.size}x{self.size}")
        return rows

    def mul(self, a, b):
        p = self.modulus
        columns = tuple(zip(*b))
        return tuple(
            tuple(sum(map(scalar_mul, row, column)) % p for column in columns)
            for row in a
        )

    def inv(self, a, cap=None):
        seen = {a}
        previous, current = a, self.mul(a, a)
        while current != self.identity:
            if current in seen:
                raise DomainError(f"matrix {a} is not invertible mod {self.modulus}")
            if cap is not None and len(seen) >= cap:
                raise ResourceLimitError(f"matrix {a} has order above the closure cap {cap}")
            seen.add(current)
            previous, current = current, self.mul(current, a)
        return previous


class FiniteGroup:
    """Closure of a generator list, with its Cayley graph edges kept."""

    def __init__(self, ops, elements, generators, edges):
        self.ops = ops
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.identity = ops.identity
        # edges[i * len(generators) + pos] = index of elements[i] * generators[pos]
        self.edges = edges

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def mul(self, a, b):
        return self.ops.mul(a, b)

    def inv(self, a):
        return self.ops.inv(a)

    def conjugate(self, g, x):
        return self.mul(self.mul(g, x), self.inv(g))


def _closure(ops, generators, cap=None) -> FiniteGroup:
    cap = closure_cap() if cap is None else cap
    gens = []
    for g in generators:
        c = ops.canonical(g)
        ops.inv(c, cap)  # rejects non-invertible input before closure starts
        if c not in gens:
            gens.append(c)
    elements = [ops.identity]
    edges = []
    seen = {ops.identity: 0}
    head = 0
    while head < len(elements):
        x = elements[head]
        for g in gens:
            y = ops.mul(x, g)
            j = seen.get(y)
            if j is None:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"closure exceeded cap {cap}; partial size {len(elements)}"
                    )
                j = seen[y] = len(elements)
                elements.append(y)
            edges.append(j)
        head += 1
    return FiniteGroup(ops, elements, gens, edges)


def closure(generators, modulus: int | None = None, cap: int | None = None) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators."""
    generators = list(generators)
    if modulus is not None:
        if not generators:
            raise DomainError("matrix closure needs at least one generator for its size")
        ops = MatModOps(len(tuple(generators[0])), modulus)
        return _closure(ops, generators, cap)
    degree = len(tuple(generators[0])) if generators else 0
    return _closure(PermOps(degree), generators, cap)


def subgroup(G: FiniteGroup, elements: Iterable) -> FiniteGroup:
    sub = _closure(G.ops, elements)
    missing = [x for x in sub.elements if x not in G.index]
    if missing:
        raise DomainError(f"element {missing[0]} lies outside the ambient group")
    return sub


def element_order(G: FiniteGroup, x) -> int:
    order = 1
    power = x
    while power != G.identity:
        power = G.mul(power, x)
        order += 1
    return order


def _conjugation_maps(G: FiniteGroup) -> list:
    """For each generator s, x -> s x s^-1 as a list over element indices.

    s^-1 x costs one product and its Cayley edge under s gives y = s^-1 x s,
    the element that s x s^-1 sends to x.
    """
    mul, index, edges = G.ops.mul, G.index, G.edges
    ngens = len(G.generators)
    maps = []
    for pos, s in enumerate(G.generators):
        s_inv = G.inv(s)
        conj = [0] * len(G)
        for i, x in enumerate(G.elements):
            conj[edges[index[mul(s_inv, x)] * ngens + pos]] = i
        maps.append(conj)
    return maps


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
    mul = G.ops.mul
    orders = [element_order(G, x) for x in elements]
    conj = _conjugation_maps(G)
    first = gens[0]
    reps, covered = [], set()
    for i, o in enumerate(orders):
        if o == orders[index[first]] and i not in covered:
            reps.append(elements[i])
            covered.add(i)
            klass = [i]
            for j in klass:
                for c in conj:
                    if c[j] not in covered:
                        covered.add(c[j])
                        klass.append(c[j])
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
                phi = GroupAutomorphism.from_generator_images(G, images)
            except DomainError:
                continue
            table = [index[phi.table[x]] for x in elements]
            found[tuple(table[j] for j in at_gens)] = table
            orbit = [table]
            for psi in orbit:
                for c in conj:
                    key = tuple(c[psi[j]] for j in at_gens)
                    if key not in found:
                        found[key] = moved = [c[v] for v in psi]
                        orbit.append(moved)
    return [GroupAutomorphism(G, dict(zip(elements, map(elements.__getitem__, found[key]))))
            for key in sorted(found)]


def center(G: FiniteGroup) -> FiniteGroup:
    """Elements commuting with every generator; x g is read off the edges.

    Z is generated by a few central elements: one joins the generators only
    if the subgroup built so far misses it, so there are at most log2 |Z|.
    """
    mul, elements, edges = G.ops.mul, G.elements, G.edges
    ngens = len(G.generators)
    Z = subgroup(G, [])
    for i, x in enumerate(elements):
        if x not in Z.index and all(elements[edges[i * ngens + pos]] == mul(g, x)
                                    for pos, g in enumerate(G.generators)):
            Z = subgroup(G, Z.generators + (x,))
    return Z


class GroupAutomorphism:
    """Bijective homomorphism given by generator images, fully tabulated."""

    def __init__(self, group: FiniteGroup, table: dict):
        self.group = group
        self.table = table

    @classmethod
    def from_generator_images(cls, group: FiniteGroup, images) -> "GroupAutomorphism":
        images = [group.ops.canonical(im) for im in images]
        if len(images) != len(group.generators):
            raise DomainError(
                f"expected {len(group.generators)} generator images, got {len(images)}"
            )
        for im in images:
            if im not in group.index:
                raise DomainError(f"image {im} lies outside the group")
        # Breadth-first discovery numbers each element at its first incoming
        # edge, so walking the edges in order defines f(x) before any later
        # edge reads it; passing every edge makes f a homomorphism.
        mul = group.ops.mul
        ngens = len(images)
        image = [group.identity]
        for k, j in enumerate(group.edges):
            fy = mul(image[k // ngens], images[k % ngens])
            if j == len(image):
                image.append(fy)
            elif image[j] != fy:
                raise DomainError("generator images do not extend to a homomorphism")
        if len(set(image)) != len(group):
            raise DomainError("generator images do not extend to a bijection")
        return cls(group, dict(zip(group.elements, image)))

    @classmethod
    def identity(cls, group: FiniteGroup) -> "GroupAutomorphism":
        return cls(group, {x: x for x in group.elements})

    @classmethod
    def inner(cls, group: FiniteGroup, g) -> "GroupAutomorphism":
        g = group.ops.canonical(g)
        if g not in group.index:
            raise DomainError(f"{g} lies outside the group")
        mul, g_inv = group.ops.mul, group.ops.inv(g)
        return cls(group, {x: mul(mul(g, x), g_inv) for x in group.elements})

    def __call__(self, x):
        return self.table[x]

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        if other.group is not self.group:
            raise DomainError("automorphisms act on different groups")
        return GroupAutomorphism(self.group, {x: self.table[other.table[x]] for x in self.group.elements})

    def inverse(self) -> "GroupAutomorphism":
        return GroupAutomorphism(self.group, {v: k for k, v in self.table.items()})

    def __pow__(self, n: int) -> "GroupAutomorphism":
        base = self if n >= 0 else self.inverse()
        result = GroupAutomorphism.identity(self.group)
        for _ in range(abs(n)):
            result = base.compose(result)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, GroupAutomorphism)
            and self.group is other.group
            and self.table == other.table
        )


@dataclass(frozen=True)
class TwistedClassPartition:
    blocks: tuple
    automorphism: GroupAutomorphism

    @property
    def count(self) -> int:
        return len(self.blocks)


def _orbit_blocks(G: FiniteGroup, moves) -> tuple:
    """Orbits under the moves y -> a y b, one per (a, b) pair, each grown
    forward from its least index and listed in index order."""
    mul, index, elements, identity = G.ops.mul, G.index, G.elements, G.identity
    # the identity move is dropped; a left factor of None costs no product
    moves = [(None if a == identity else a, b)
             for a, b in moves if a != identity or b != identity]
    seen = [False] * len(elements)
    blocks = []
    for start in range(len(elements)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:
            y = elements[i]
            for a, b in moves:
                j = index[mul(y if a is None else mul(a, y), b)]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        blocks.append(tuple(elements[i] for i in sorted(orbit)))
    return tuple(blocks)


def _twisted_moves(G: FiniteGroup, phi: GroupAutomorphism) -> list:
    """The twisting action of each generator z as the pair (z, phi(z)^-1)."""
    return [(z, G.inv(phi(z))) for z in G.generators]


def twisted_classes(G: FiniteGroup, phi: GroupAutomorphism) -> TwistedClassPartition:
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    blocks = _orbit_blocks(G, _twisted_moves(G, phi))
    if sum(len(b) for b in blocks) != len(G):
        raise ConsistencyError("twisted classes do not partition the group")
    return TwistedClassPartition(blocks, phi)


def reidemeister_number(G: FiniteGroup, phi: GroupAutomorphism) -> int:
    return twisted_classes(G, phi).count


def inner_twist_invariance(G: FiniteGroup, phi: GroupAutomorphism, g) -> bool:
    g = G.ops.canonical(g)
    if g not in G.index:
        raise DomainError(f"{g} lies outside the group")
    twisted = phi.compose(GroupAutomorphism.inner(G, g))
    return reidemeister_number(G, twisted) == reidemeister_number(G, phi)


def _coset_leaders(G: FiniteGroup, N: FiniteGroup) -> dict:
    """Map each element to min(xN); each coset is formed once, |G| products in all."""
    mul, elements, index = G.ops.mul, G.elements, G.index
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
        self._mul = G.ops.mul
        self._leader = leader
        self.identity = leader[G.identity]

    def canonical(self, raw):
        x = self._G.ops.canonical(raw)
        if x not in self._leader:
            raise DomainError(f"{x} lies outside the group")
        return self._leader[x]

    def mul(self, a, b):
        return self._leader[self._mul(a, b)]

    def inv(self, a, cap=None):
        return self._leader[self._G.inv(a)]


def induced_automorphism(G: FiniteGroup, N, phi: GroupAutomorphism):
    """Quotient by a phi-invariant normal subgroup with the induced map."""
    if not isinstance(N, FiniteGroup):
        N = subgroup(G, N)
    elif any(x not in G.index for x in N.elements):
        raise DomainError("subgroup lies outside the ambient group")
    n_set = set(N.elements)
    mul = G.ops.mul
    for g in G.generators:
        g_inv = G.inv(g)
        for n in N.elements:
            if mul(mul(g, n), g_inv) not in n_set:
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
    automorphism: GroupAutomorphism


def isogredience_count(G: FiniteGroup, phi: GroupAutomorphism) -> IsogredienceClassCount:
    """Orbit count of the twists phi_s phi, computed two independent ways.

    Route one enumerates orbits of s under s -> g s phi(g)^-1 and s -> s c
    with c central.  Route two counts the orbits of y -> g y g^-1 c that phi
    maps to themselves: these orbits are the conjugacy classes of G/Z, and
    the Reidemeister number of the induced map is its number of invariant
    classes (Fel'shtyn-Hill).  Since phi(Z) = Z, phi permutes the orbits,
    so one image per orbit decides.  The two counts must agree.
    """
    if phi.group is not G:
        raise DomainError("automorphism acts on a different group")
    central = [(G.identity, c) for c in center(G).generators]
    direct = len(_orbit_blocks(G, _twisted_moves(G, phi) + central))
    classes = _orbit_blocks(G, [(z, G.inv(z)) for z in G.generators] + central)
    invariant = sum(phi(b[0]) in b for b in classes)
    if direct != invariant:
        raise ConsistencyError(
            f"isogredience routes disagree: direct {direct}, invariant classes {invariant}"
        )
    return IsogredienceClassCount(direct, phi)


def telescoping_product_check(G: FiniteGroup, phi: GroupAutomorphism, y, z, m: int) -> bool:
    """Identity behind pushing a twisted product through a conjugating element."""
    if m < 1:
        raise DomainError("telescoping length must be at least 1")
    y = G.ops.canonical(y)
    z = G.ops.canonical(z)
    if y not in G.index or z not in G.index:
        raise DomainError("arguments lie outside the group")

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


def _nested_lists(value, depth: int) -> bool:
    """Whether value is a list whose items are nested lists depth - 1 deep."""
    return isinstance(value, list) and (
        depth == 1 or all(_nested_lists(v, depth - 1) for v in value))


def group_from_descriptor(descriptor: dict) -> FiniteGroup:
    try:
        encoding = descriptor["encoding"]
        generators = descriptor["generators"]
    except KeyError as exc:
        raise DomainError(f"group descriptor missing key {exc}") from exc
    if encoding == "perm":
        if not _nested_lists(generators, 2):
            raise DomainError("perm generators must be a list of image lists")
        return closure([tuple(g) for g in generators])
    if encoding == "matmod":
        if not _nested_lists(generators, 3):
            raise DomainError("matmod generators must be a list of matrices given as row lists")
        if "modulus" not in descriptor:
            raise DomainError("matmod descriptor needs a modulus")
        modulus = descriptor["modulus"]
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
            raise DomainError(f"matmod modulus must be an integer >= 2, got {modulus!r}")
        return closure([tuple(tuple(row) for row in g) for g in generators], modulus=modulus)
    raise DomainError(f"unknown encoding {encoding!r}")


def automorphism_from_descriptor(G: FiniteGroup, descriptor: dict) -> GroupAutomorphism:
    if "images" not in descriptor:
        raise DomainError("automorphism descriptor missing 'images'")
    matmod = G.ops.encoding == "matmod"
    if not _nested_lists(descriptor["images"], 3 if matmod else 2):
        raise DomainError("images must be a list of "
                          + ("matrices given as row lists" if matmod else "image lists"))
    images = [
        tuple(tuple(row) for row in im) if matmod else tuple(im)
        for im in descriptor["images"]
    ]
    return GroupAutomorphism.from_generator_images(G, images)
