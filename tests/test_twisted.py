"""Finite-group twisted classes, isogredience, and descriptors."""

import json
import math
import random
import sys
import time
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from tck import twisted
from tck import (
    ConsistencyError,
    DomainError,
    FiniteGroup,
    GroupAutomorphism,
    ResourceLimitError,
    all_automorphisms,
    automorphism_from_descriptor,
    center,
    closure,
    group_descriptor,
    group_from_descriptor,
    heisenberg_group,
    induced_reidemeister_number,
    inner_twist_invariance,
    isogredience_count,
    reidemeister_number,
    subgroup,
    telescoping_product_check,
    twisted_classes,
)


def s3():
    return closure([(1, 0, 2), (1, 2, 0)])


def s4():
    return closure([(1, 0, 2, 3), (1, 2, 3, 0)])


def d4():
    return closure([(1, 2, 3, 0), (3, 2, 1, 0)])


def q8():
    return closure([((0, 2), (1, 0)), ((1, 1), (1, 2))], modulus=3)


def sl2(q):
    return closure([((1, 1), (0, 1)), ((1, 0), (1, 1))], modulus=q)


def s5():
    return closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def element_order(g, x):
    """The order of x by repeated products: the oracle for ``_element_orders``."""
    order, power = 1, x
    while power != g.identity:
        power = g.mul(power, x)
        order += 1
    return order


def power_inverse(g, x):
    """x^(ord x - 1) by repeated products: the inverse oracle for the map
    ``FiniteGroup.inv`` reads off the closure's tree."""
    inverse = g.identity
    for _ in range(element_order(g, x) - 1):
        inverse = g.mul(inverse, x)
    return inverse


def _composition(a, b):
    """a b as permutations: apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def _triple_loop(a, b, modulus):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) % modulus for j in range(size))
        for i in range(size))


def _right_maps(g, factors):
    """y -> y c as an index list for each c, one product per element: the
    product oracle for the index maps built along the closure's tree."""
    return [[g.index[g.mul(y, c)] for y in g.elements] for c in factors]


def _assert_walk_records(g):
    """columns[pos][i] is the index of elements[i] gens[pos], and the tree
    holds each element's first edge in, found by scanning every edge in the
    walk's order: element by element, and generator by generator within."""
    assert list(map(list, g.columns)) == _right_maps(g, g.generators)
    edges = [column[i] for i in range(len(g)) for column in g.columns]
    first, k = [], 0
    for j in range(1, len(g)):
        k = edges.index(j, k)
        first.append(divmod(k, len(g.generators)))
    assert len(g.parent) == len(g.via) == len(g) - 1
    assert list(zip(g.parent, g.via)) == first


def test_perm_product_matches_composition():
    rng = random.Random(31)
    for degree in (0, 1, 2, 5, 8):
        ops = twisted.PermOps(degree)
        for _ in range(40):
            a, b = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
            assert ops.right(b)(a) == _composition(a, b)


def test_matmod_product_matches_triple_loop():
    rng = random.Random(32)
    for size in (1, 2, 3):
        for modulus in (2, 4, 6, 7, 9):
            ops = twisted.MatModOps(size, modulus)
            for _ in range(30):
                a, b = (tuple(tuple(rng.randrange(modulus) for _ in range(size))
                              for _ in range(size)) for _ in range(2))
                assert ops.right(b)(a) == _triple_loop(a, b, modulus)


def test_row_cached_matmod_product_matches_triple_loop():
    # one callable per right factor, applied to left factors built from a few
    # rows, so most rows are looked up, not multiplied
    rng = random.Random(33)
    for size, modulus in ((2, 6), (3, 4), (3, 7), (3, 9)):
        ops = twisted.MatModOps(size, modulus)
        rows = [tuple(rng.randrange(modulus) for _ in range(size)) for _ in range(5)]
        for _ in range(10):
            b = tuple(tuple(rng.randrange(modulus) for _ in range(size)) for _ in range(size))
            times_b = ops.right(b)
            for _ in range(30):
                a = tuple(rng.choice(rows) for _ in range(size))
                assert times_b(a) == _triple_loop(a, b, modulus)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda d: st.tuples(
    st.permutations(range(d)), st.permutations(range(d)))))
@example(((), ()))
@example(((0,), (0,)))
def test_perm_right_factor_matches_the_product(case):
    a, b = map(tuple, case)
    ops = twisted.PermOps(len(a))
    assert ops.right(b)(a) == _composition(a, b)


@st.composite
def matrix_pairs(draw):
    size, modulus = draw(st.integers(1, 3)), draw(st.sampled_from((2, 3, 4, 6, 7, 9, 11)))
    entry = st.integers(0, modulus - 1)
    a, b = (draw(st.tuples(*[st.tuples(*[entry] * size)] * size)) for _ in range(2))
    return twisted.MatModOps(size, modulus), a, b


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(matrix_pairs())
def test_matmod_right_factor_matches_the_product(case):
    ops, a, b = case
    assert ops.right(b)(a) == _triple_loop(a, b, ops.modulus)


def test_closure_sizes_and_orders():
    groups = {"S3": (s3(), 6), "S4": (s4(), 24), "D4": (d4(), 8), "Q8": (q8(), 8)}
    for name, (g, size) in groups.items():
        assert len(g) == size
    assert element_order(s3(), (1, 2, 0)) == 3
    assert element_order(q8(), ((0, 2), (1, 0))) == 4
    g = d4()
    assert sorted(element_order(g, x) for x in g.elements) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_element_order_refuses_elements_outside_the_group():
    # orders are taken of elements through the group's one gate, which
    # reduces a matrix mod m before the membership check
    shear = closure([((1, 1), (0, 1))], modulus=3)
    assert element_order(shear, shear.element(((1, 4), (3, 1)))) == 3
    assert GroupAutomorphism.identity(shear)(((1, 4), (3, 1))) == ((1, 1), (0, 1))
    with pytest.raises(DomainError, match="lies outside the group"):
        shear.element(((0, 0), (0, 0)))
    with pytest.raises(DomainError, match="lies outside the group"):
        GroupAutomorphism.identity(shear)(((0, 0), (0, 0)))
    with pytest.raises(DomainError, match="lies outside the group"):
        GroupAutomorphism.identity(closure([(1, 0, 2)]))((1, 2, 0))


# entries that int() reads as 1, in an element whose entry 1 they replace
NON_INT_ENTRIES = {"float": 1.5, "bool": True, "str": "1"}
ENTRY_GATES = {
    "call": lambda g, x, _: GroupAutomorphism.identity(g)(x),
    "group_from_descriptor": lambda g, x, descriptor: group_from_descriptor(descriptor),
    "from_generator_images":
        lambda g, x, _: GroupAutomorphism.from_generator_images(g, [x, *g.generators[1:]]),
    "inner": lambda g, x, _: GroupAutomorphism.inner(g, x),
    "telescoping_product_check": lambda g, x, _: telescoping_product_check(
        g, GroupAutomorphism.identity(g), x, g.identity, 1),
}


@pytest.mark.parametrize("gate", sorted(ENTRY_GATES))
@pytest.mark.parametrize("entry", sorted(NON_INT_ENTRIES))
@pytest.mark.parametrize("encoding", ["perm", "matmod"])
def test_non_int_entries_are_a_domain_error(encoding, entry, gate):
    if encoding == "perm":
        g, message = s3(), "is not a permutation of 3 points"
        element = lambda v: [v, 0, 2]
        descriptor = lambda v: {"encoding": "perm", "generators": [element(v), [1, 2, 0]]}
    else:
        g, message = sl2(3), "does not hold integer entries"
        element = lambda v: [[1, v], [0, 1]]
        descriptor = lambda v: {"encoding": "matmod", "modulus": 3,
                                "generators": [element(v), [[1, 0], [1, 1]]]}
    ENTRY_GATES[gate](g, element(1), descriptor(1))  # the int 1 passes
    v = NON_INT_ENTRIES[entry]
    with pytest.raises(DomainError, match=message):
        ENTRY_GATES[gate](g, element(v), descriptor(v))


def test_each_argument_outside_the_group_is_named():
    g, outside = d4(), (1, 0, 2, 3)
    phi = GroupAutomorphism.identity(g)
    with pytest.raises(DomainError, match=r"^\(1, 0, 2, 3\) lies outside the group$"):
        telescoping_product_check(g, phi, outside, g.identity, 2)
    with pytest.raises(DomainError, match=r"^\(1, 0, 2, 3\) lies outside the group$"):
        telescoping_product_check(g, phi, g.identity, outside, 2)
    with pytest.raises(DomainError, match=r"^\(1, 0, 2, 3\) lies outside the group$"):
        GroupAutomorphism.from_generator_images(g, [outside, g.generators[1]])
    with pytest.raises(DomainError, match="lies outside the group"):
        inner_twist_invariance(g, phi, outside)
    with pytest.raises(DomainError, match=r"^\(1, 0, 2, 3\) lies outside the group$"):
        phi(outside)


def test_automorphism_call_takes_elements_through_the_gate():
    g = s3()
    phi = GroupAutomorphism.inner(g, (1, 2, 0))
    # a list is canonicalised as at every other gate
    assert phi([1, 0, 2]) == phi((1, 0, 2)) == (0, 2, 1)
    for raw in ((0, 1, 2, 3), [1.0, 0, 2], 5):
        with pytest.raises(DomainError, match="is not a permutation of 3 points"):
            phi(raw)


def test_identity_twist_recovers_conjugacy_classes():
    for g, classes in ((s3(), 3), (s4(), 5), (d4(), 5), (q8(), 5)):
        ident = GroupAutomorphism.identity(g)
        assert reidemeister_number(g, ident) == classes


def test_partition_blocks_cover_the_group():
    g = s4()
    for phi in (GroupAutomorphism.identity(g), GroupAutomorphism.inner(g, g.elements[5])):
        blocks = twisted_classes(g, phi)
        assert len(blocks) == reidemeister_number(g, phi)
        assert sum(len(b) for b in blocks) == len(g)
        seen = {x for b in blocks for x in b}
        assert seen == set(g.elements)


def test_twisted_classes_are_twist_orbits():
    g = s3()
    phi = GroupAutomorphism.inner(g, (1, 2, 0))
    index = {x: k for k, block in enumerate(twisted_classes(g, phi)) for x in block}
    for x in g.elements:
        for z in g.elements:
            moved = g.mul(g.mul(z, x), power_inverse(g, phi(z)))
            assert index[moved] == index[x]


ORACLE_GROUPS = {"S3": s3, "S4": s4, "D4": d4, "Q8": q8, "SL(2,3)": lambda: sl2(3),
                 "SL(2,5)": lambda: sl2(5), "H(3)": lambda: heisenberg_group(3)}


def _definition_blocks(g, phi, central):
    """Classes {z x phi(z)^-1 c : z in G, c central} straight from the
    definition, ordered by least index and each in index order."""
    twists = [(z, power_inverse(g, phi(z))) for z in g.elements]
    done, blocks = set(), []
    for x in g.elements:
        if x not in done:
            block = {g.mul(g.mul(g.mul(z, x), w), c) for z, w in twists for c in central}
            done |= block
            blocks.append(tuple(sorted(block, key=g.index.__getitem__)))
    return tuple(blocks)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_orbit_walk_matches_the_definition(name):
    g = ORACLE_GROUPS[name]()
    central = [x for x in g.elements if all(g.mul(x, y) == g.mul(y, x) for y in g.elements)]
    noncentral = next(x for x in g.elements if x not in central)
    phis = [GroupAutomorphism.identity(g), GroupAutomorphism.inner(g, noncentral)]
    if name in ("S3", "D4", "Q8"):
        phis += all_automorphisms(g)
    for phi in phis:
        assert twisted_classes(g, phi) == _definition_blocks(g, phi, [g.identity])
        maps = twisted._twist_maps(g, phi) + _right_maps(g, central)
        ids, leaders = twisted._orbit_ids(len(g), maps)
        blocks = twisted._orbit_blocks(g, ids, leaders)
        assert blocks == _definition_blocks(g, phi, central)
        # leaders[k] is the least index of block k, and its id is k
        assert leaders == [g.index[block[0]] for block in blocks]
        assert [ids[i] for i in leaders] == list(range(len(blocks)))


MAP_GROUPS = {"S3": s3, "Q8": q8, "D4": d4, "SL(2,3)": lambda: sl2(3), "SL(2,5)": lambda: sl2(5),
              "SL(2,7)": lambda: sl2(7), "H(3)": lambda: heisenberg_group(3)}


@pytest.mark.parametrize("name", sorted(MAP_GROUPS))
def test_index_maps_match_their_product_definitions(name):
    g = MAP_GROUPS[name]()
    elements, mul = g.elements, g.mul
    inverses = {x: power_inverse(g, x) for x in elements}
    inv = inverses.__getitem__

    def image(table):
        return [elements[j] for j in table]

    assert image(twisted._inverse_map(g)) == [inv(x) for x in elements]
    assert [g.inv(x) for x in elements] == [inv(x) for x in elements]
    rng = random.Random(41)
    for u in rng.sample(elements, 4) + [g.identity, *g.generators, elements[-1]]:
        assert image(twisted._left_map(g, g.index[u])) == [mul(u, x) for x in elements]
        assert (image(GroupAutomorphism.inner(g, u).images)
                == [mul(mul(u, x), inv(u)) for x in elements])
    for s, conj in zip(g.generators, twisted._conjugation_maps(g)):
        assert image(conj) == [mul(mul(s, x), inv(s)) for x in elements]
    centre, moves = twisted._center(g)
    assert [image(move) for move in moves] == [image(m) for m in _right_maps(g, centre.generators)]
    for walked in (g, subgroup(g, [elements[-1], g.generators[0]]), centre):
        _assert_walk_records(walked)
    autos = all_automorphisms(g)
    phis = autos if len(autos) <= 120 else rng.sample(autos, 8)
    # exchanging the identity with another element is a bijection and no
    # homomorphism; the twist identity holds for it all the same
    swapped = list(range(len(g)))
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    for phi in phis + [GroupAutomorphism(g, swapped)]:
        for z, twist in zip(g.generators, twisted._twist_maps(g, phi)):
            w = inv(phi(z))
            assert image(twist) == [mul(mul(z, y), w) for y in elements]


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_automorphism_tables_match_their_definitions(name):
    g = ORACLE_GROUPS[name]()
    assert GroupAutomorphism.identity(g).images == tuple(range(len(g)))
    for h in random.Random(3).sample(g.elements, 4) + [g.elements[-1]]:
        inner = GroupAutomorphism.inner(g, h)
        for x in g.elements:
            assert inner(x) == g.mul(g.mul(h, x), power_inverse(g, h))
    for phi in all_automorphisms(g):
        assert sorted(phi.images) == list(range(len(g)))


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_element_orders_in_one_pass_match_the_powering_oracle(name):
    g = ORACLE_GROUPS[name]()
    assert twisted._element_orders(g) == [element_order(g, x) for x in g.elements]


def test_element_orders_product_budget(monkeypatch):
    g = sl2(7)
    products = _count_products(monkeypatch)
    orders = twisted._element_orders(g)
    # one walk per cyclic subgroup with no order yet, instead of powering
    # each element up to its order (2019 products)
    assert sorted(set(orders)) == [1, 2, 3, 4, 6, 7, 8, 14]
    assert 0 < products[0] <= 500


def test_twist_maps_kept_on_the_group_match_fresh_groups():
    g = s4()
    t, c = g.generators
    identity = GroupAutomorphism.identity(g)
    # (0 1 3 2) commutes with t, so this inner automorphism agrees with the
    # identity on t and not on c
    inner = GroupAutomorphism.inner(g, (0, 1, 3, 2))
    assert inner(t) == t and inner(c) != c
    swapped = list(identity.images)
    swapped[g.index[t]], swapped[5] = 5, g.index[t]
    bijection = GroupAutomorphism(g, swapped)
    assert bijection.images not in [phi.images for phi in all_automorphisms(g)]

    def s_count(group, phi):
        return isogredience_count(group, phi).count

    def outcome(f, group, phi):
        try:
            return f(group, phi)
        except ConsistencyError as exc:
            return str(exc)

    calls = [(reidemeister_number, identity), (reidemeister_number, inner),
             (reidemeister_number, identity), (s_count, inner),
             (reidemeister_number, bijection), (s_count, bijection),
             (s_count, identity), (reidemeister_number, inner)]
    for f, phi in calls:
        fresh = s4()
        expected = outcome(f, fresh, GroupAutomorphism(fresh, phi.images))
        assert outcome(f, g, phi) == expected, (f.__name__, phi.images)
        twist_maps = g._twist[1]
        assert outcome(f, g, phi) == expected
        assert g._twist[1] is twist_maps  # the same phi again builds nothing
    fresh = s4()
    assert (twisted_classes(g, inner)
            == twisted_classes(fresh, GroupAutomorphism(fresh, inner.images)))


def _count_inversions(monkeypatch):
    """Count every call of ``FiniteGroup.inv``, the one element inverse."""
    counter = [0]
    inv = FiniteGroup.inv

    def counting_inv(self, a):
        counter[0] += 1
        return inv(self, a)
    monkeypatch.setattr(FiniteGroup, "inv", counting_inv)
    return counter


@pytest.mark.parametrize("build, isogredience", [(lambda: sl2(7), 6), (lambda: closure(
    [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]), 22)], ids=["SL(2,7)", "S8"])
def test_inversions_are_hoisted_out_of_the_loops(monkeypatch, build, isogredience):
    g = build()
    inversions = _count_inversions(monkeypatch)
    products = _count_products(monkeypatch)
    # the inner table is L_g o inv o L_g o inv on index maps: g^-1 is never
    # formed, and x^-1 follows the closure's tree
    phi = GroupAutomorphism.inner(g, g.elements[7])
    assert inversions[0] == products[0] == 0
    assert isogredience_count(g, phi).count == isogredience
    assert inversions[0] == products[0] == 0


def test_inner_twists_preserve_the_count():
    rng = random.Random(23)
    g = q8()
    autos = all_automorphisms(g)
    for phi in rng.sample(autos, 6):
        for h in g.elements:
            assert inner_twist_invariance(g, phi, h)
            composed = phi.compose(GroupAutomorphism.inner(g, h))
            assert reidemeister_number(g, composed) == reidemeister_number(g, phi)


def test_automorphism_group_sizes():
    assert len(all_automorphisms(s3())) == 6
    assert len(all_automorphisms(d4())) == 8
    assert len(all_automorphisms(q8())) == 24


def _exhaustive_automorphisms(g):
    """Every tuple of generator images of matching order, tried in index order."""
    orders = {x: element_order(g, x) for x in g.elements}
    candidates = [[x for x in g.elements if orders[x] == orders[gen]] for gen in g.generators]
    found = []
    for images in product(*candidates):
        try:
            found.append(GroupAutomorphism.from_generator_images(g, images))
        except DomainError:
            continue
    return found


SWEEP_GROUPS = {"S3": s3, "S4": s4, "D4": d4, "Q8": q8, "SL(2,3)": lambda: sl2(3),
                "SL(2,5)": lambda: sl2(5), "C12": lambda: closure([((2, 0), (0, 1))], modulus=13),
                "trivial": lambda: closure([]), "trivial on one generator": lambda: closure([(0, 1)])}


@pytest.mark.parametrize("name", sorted(SWEEP_GROUPS))
def test_sweep_matches_the_exhaustive_oracle(name):
    g = SWEEP_GROUPS[name]()
    assert ([phi.images for phi in all_automorphisms(g)]
            == [phi.images for phi in _exhaustive_automorphisms(g)])


@st.composite
def small_groups(draw):
    count = draw(st.integers(0, 3))
    if count == 3 or draw(st.booleans()):
        degree = draw(st.integers(1, 4 if count == 3 else 5))
        return closure([tuple(draw(st.permutations(range(degree)))) for _ in range(count)])
    m = draw(st.integers(2, 4))
    entry = st.integers(0, m - 1)
    matrix = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)).filter(
        lambda a: math.gcd(a[0][0] * a[1][1] - a[0][1] * a[1][0], m) == 1)
    return closure([draw(matrix) for _ in range(max(count, 1))], modulus=m)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(small_groups())
def test_sweep_matches_the_exhaustive_oracle_on_drawn_groups(g):
    assert ([phi.images for phi in all_automorphisms(g)]
            == [phi.images for phi in _exhaustive_automorphisms(g)])


def test_sweep_tries_class_representatives_only(monkeypatch):
    g = sl2(5)
    build = GroupAutomorphism.from_generator_images.__func__
    tried = []

    def counting_build(cls, group, images):
        tried.append(images)
        return build(cls, group, images)

    monkeypatch.setattr(GroupAutomorphism, "from_generator_images", classmethod(counting_build))
    assert len(all_automorphisms(g)) == 120
    # the exhaustive sweep tries all 24 * 24 order-matched pairs; the first
    # image is a class representative and the second keeps the order of g1 g2
    assert 0 < len(tried) <= 10


def test_sweep_product_budget(monkeypatch):
    g = sl2(7)
    products = _count_products(monkeypatch)
    # element orders take about 1.3 |G| products and the conjugation maps
    # none; the exhaustive sweep walked the edges of 48 * 48 order-matched
    # pairs
    assert len(all_automorphisms(g)) == 336
    assert 0 < products[0] <= 20 * len(g)


FELSHTYN_HILL_GROUPS = {"S4": s4, "D4": d4, "Q8": q8, "SL(2,3)": lambda: sl2(3),
                        "SL(2,5)": lambda: sl2(5)}


@pytest.mark.parametrize("name", sorted(FELSHTYN_HILL_GROUPS))
def test_reidemeister_number_counts_invariant_classes(name):
    # Fel'shtyn-Hill: R(phi) is the number of phi-invariant conjugacy classes
    g = FELSHTYN_HILL_GROUPS[name]()
    inverse = {z: power_inverse(g, z) for z in g.elements}
    classes = {frozenset(g.mul(g.mul(z, x), inverse[z]) for z in g.elements)
               for x in g.elements}
    for phi in all_automorphisms(g):
        invariant = sum({phi(x) for x in c} == c for c in classes)
        assert reidemeister_number(g, phi) == invariant


def test_from_generator_images_validates():
    g = s3()
    with pytest.raises(DomainError):
        # collapsing a 3-cycle onto a transposition is no automorphism
        GroupAutomorphism.from_generator_images(g, [(1, 0, 2), (1, 0, 2)])
    flip = GroupAutomorphism.inner(g, (0, 2, 1))
    rebuilt = GroupAutomorphism.from_generator_images(g, [flip(x) for x in g.generators])
    assert rebuilt == flip


def _word_oracle(g, images):
    """The map generator words define, or None unless it is onto and
    f(xy) = f(x) f(y) holds on every pair."""
    table = {g.identity: g.identity}
    frontier = [g.identity]
    while frontier:
        following = []
        for x in frontier:
            for gen, im in zip(g.generators, images):
                y = g.mul(x, gen)
                if y not in table:
                    table[y] = g.mul(table[x], im)
                    following.append(y)
        frontier = following
    if len(set(table.values())) != len(g):
        return None
    if any(table[g.mul(x, y)] != g.mul(table[x], table[y])
           for x in g.elements for y in g.elements):
        return None
    return table


AUTOMORPHISM_COUNTS = {"S3": (s3, 6), "D4": (d4, 8), "Q8": (q8, 24),
                       "SL(2,3)": (lambda: sl2(3), 24), "S4": (s4, 24)}


@pytest.mark.parametrize("name", sorted(AUTOMORPHISM_COUNTS))
def test_from_generator_images_matches_a_word_oracle(name):
    build, automorphisms = AUTOMORPHISM_COUNTS[name]
    g = build()
    accepted = 0
    for images in product(g.elements, repeat=len(g.generators)):
        try:
            phi = GroupAutomorphism.from_generator_images(g, images)
            table = {x: phi(x) for x in g.elements}
        except DomainError:
            table = None
        assert table == _word_oracle(g, images), (name, images)
        accepted += table is not None
    assert accepted == automorphisms


def test_rejected_candidates_stop_at_the_first_failed_product(monkeypatch):
    g = sl2(5)
    orders = {x: element_order(g, x) for x in g.elements}
    candidates = [[x for x in g.elements if orders[x] == orders[gen]] for gen in g.generators]
    products = _count_products(monkeypatch)
    costs = []
    for images in product(*candidates):
        products[0] = 0
        try:
            GroupAutomorphism.from_generator_images(g, images)
        except DomainError:
            costs.append(products[0])
    # |Aut SL(2,5)| = |PGL(2,5)| = 120 of the 24^2 order-matched pairs
    assert len(costs) == 24 * 24 - 120
    # defining every image alone takes |G| - 1 products
    assert max(costs) < len(g) - 1


def test_centers():
    assert len(center(s3())) == 1
    assert len(center(q8())) == 2
    assert len(center(d4())) == 2
    assert set(center(d4()).elements) <= set(d4().elements)


CENTER_GROUPS = {"S3": s3, "Q8": q8, "D4": d4, "SL(2,3)": lambda: sl2(3),
                 "SL(2,5)": lambda: sl2(5), "S5": s5, "H(3)": lambda: heisenberg_group(3)}


@pytest.mark.parametrize("name", sorted(CENTER_GROUPS))
def test_center_matches_the_two_sided_definition(name):
    g = CENTER_GROUPS[name]()
    central = {x for x in g.elements if all(g.mul(x, y) == g.mul(y, x) for y in g.elements)}
    assert set(center(g).elements) == central


def _count_products(monkeypatch):
    """Count every product of both encodings, however the caller reaches it:
    right is each encoding's only product, so each call of a callable that
    right returns."""
    counter = [0]
    for ops in (twisted.PermOps, twisted.MatModOps):
        def counting_right(self, b, right=ops.right):
            times_b = right(self, b)

            def counted(a):
                counter[0] += 1
                return times_b(a)
            return counted
        monkeypatch.setattr(ops, "right", counting_right)
    return counter


def test_product_counter_sees_fixed_right_factors(monkeypatch):
    g = s4()
    products = _count_products(monkeypatch)
    times = g.ops.right(g.generators[1])
    for x in g.elements:
        times(x)
    g.mul(g.generators[0], g.generators[1])
    assert products[0] == len(g) + 1


def test_center_r_and_s_product_budget(monkeypatch):
    g = sl2(5)
    products = _count_products(monkeypatch)
    inversions = _count_inversions(monkeypatch)
    # after closure every map is an index composition: the center is closed
    # on its central moves L_c, and R and S walk index lists
    phi = GroupAutomorphism.inner(g, g.elements[7])
    assert len(center(g)) == 2
    assert reidemeister_number(g, phi) == 9
    assert isogredience_count(g, phi).count == 5
    assert products[0] == inversions[0] == 0


def test_s8_inner_job_product_budget(monkeypatch):
    products = _count_products(monkeypatch)
    inversions = _count_inversions(monkeypatch)
    g = closure([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)])
    # the closure takes one product per element and generator, and gates
    # each generator on its edges, inverting none
    assert (products[0], inversions[0]) == (2 * len(g), 0)
    products[0] = inversions[0] = 0
    phi = GroupAutomorphism.inner(g, g.elements[7])
    assert (reidemeister_number(g, phi), isogredience_count(g, phi).count) == (22, 22)
    assert products[0] == inversions[0] == 0


def test_isogredience_product_budget(monkeypatch):
    g = s5()
    phi = GroupAutomorphism.inner(g, g.elements[7])
    products = _count_products(monkeypatch)
    inversions = _count_inversions(monkeypatch)
    # S5 is centerless, so Z has no generators and neither walk takes a
    # central move; the class walk replaces the rebuilt quotient
    assert isogredience_count(g, phi).count == 7
    assert products[0] == inversions[0] == 0


def test_centerless_isogredience_reuses_the_reidemeister_walk(monkeypatch):
    g = s5()
    phi = GroupAutomorphism.inner(g, g.elements[7])
    walks = []
    orbit_ids = twisted._orbit_ids

    def recorded_orbit_ids(n, maps):
        walks.append(maps)
        return orbit_ids(n, maps)

    monkeypatch.setattr(twisted, "_orbit_ids", recorded_orbit_ids)
    assert reidemeister_number(g, phi) == 7
    assert walks == [g._twist[1]]
    # with no central move, route one's maps are R's: only the class walk runs
    assert isogredience_count(g, phi).count == 7
    assert len(walks) == 2 and walks[1] == twisted._conjugation_maps(g)


def test_cyclic_center_and_isogredience_are_linear_in_the_order(monkeypatch):
    # every element is central: one generator per doubling of the subgroup
    # built so far, not one per central element
    g = closure([((2, 0), (0, 1))], modulus=421)
    products = _count_products(monkeypatch)
    z = center(g)
    assert len(z) == len(g) == 420
    assert len(z.generators) == 1
    assert products[0] <= 5 * len(g)
    products[0] = 0
    assert isogredience_count(g, GroupAutomorphism.identity(g)).count == 1
    assert products[0] <= 15 * len(g)


def test_automorphism_algebra():
    g = q8()
    autos = all_automorphisms(g)
    rng = random.Random(1)
    for _ in range(10):
        a, b = rng.choice(autos), rng.choice(autos)
        c = a.compose(b)
        for x in g.elements:
            assert c(x) == a(b(x))
        assert a.compose(GroupAutomorphism.identity(g)) == a


@pytest.mark.parametrize("name", ["S4", "SL(2,3)"])
def test_compose_is_index_table_composition(name):
    g = {"S4": s4, "SL(2,3)": lambda: sl2(3)}[name]()
    autos = all_automorphisms(g)
    for a in autos:
        for b in autos:
            c = a.compose(b)
            assert c.images == tuple(a.images[i] for i in b.images)
            # the unchecked table passes the bijection check it skips
            assert GroupAutomorphism(g, c.images) == c
    with pytest.raises(DomainError, match="different groups"):
        autos[0].compose(GroupAutomorphism.identity(s3()))


def quotient_oracle(g, normal, phi):
    """R of the map phi induces on G/N, rebuilt as the image of G acting on
    the cosets xN by left multiplication: the oracle for
    ``induced_reidemeister_number``.  normal lists the elements of N."""
    coset, leaders = {}, []
    for x in g.elements:
        if x not in coset:
            coset.update((g.mul(x, n), len(leaders)) for n in normal)
            leaders.append(x)

    def action(s):
        return tuple(coset[g.mul(s, x)] for x in leaders)

    # generators with one action have images with one action: phi(N) = N
    images = {action(s): action(phi(s)) for s in g.generators}
    quotient = closure(list(images))
    return reidemeister_number(
        quotient, GroupAutomorphism.from_generator_images(quotient, list(images.values())))


@pytest.mark.parametrize("name", sorted(AUTOMORPHISM_COUNTS))
def test_induced_reidemeister_number_matches_the_quotient_on_every_automorphism(name):
    g = AUTOMORPHISM_COUNTS[name][0]()
    # every automorphism preserves 1, Z and G, and V4 in S4
    normals = {"1": [g.identity], "Z": center(g).elements, "G": g.elements}
    if name == "S4":
        normals["V4"] = subgroup(g, [(1, 0, 3, 2), (2, 3, 0, 1)]).elements
    for label, normal in normals.items():
        for phi in all_automorphisms(g):
            expected = quotient_oracle(g, normal, phi)
            assert induced_reidemeister_number(g, normal, phi) == expected, (label, phi.images)
            assert induced_reidemeister_number(g, subgroup(g, normal), phi) == expected


def test_induced_reidemeister_number_on_known_quotients():
    g = s4()
    v4 = subgroup(g, [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
    identity = GroupAutomorphism.identity(g)
    # S4/V4 = S3 has three conjugacy classes, and the projected count never
    # exceeds the upstairs count
    assert induced_reidemeister_number(g, v4, identity) == 3
    assert 3 <= reidemeister_number(g, identity)
    # SL(2,5)/Z = A5 has five
    h = sl2(5)
    assert induced_reidemeister_number(h, center(h), GroupAutomorphism.identity(h)) == 5


def test_induced_reidemeister_number_gates_the_subgroup():
    g = s4()
    identity = GroupAutomorphism.identity(g)
    not_normal = subgroup(g, [(0, 1, 2, 3), (1, 0, 2, 3)])
    with pytest.raises(DomainError, match=r"^subgroup is not normal: conjugate of \(1, 0, 2, 3\) "
                                          r"escapes$"):
        induced_reidemeister_number(g, not_normal, identity)
    with pytest.raises(DomainError, match="^subgroup lies outside the ambient group$"):
        induced_reidemeister_number(g, center(s3()), identity)
    # in the Klein four group, the swap of its generators moves the normal
    # subgroup of order 2 that the first one generates
    v4 = closure([(1, 0, 2, 3), (0, 1, 3, 2)])
    swap = GroupAutomorphism.from_generator_images(v4, v4.generators[::-1])
    with pytest.raises(DomainError, match="^automorphism does not preserve the subgroup$"):
        induced_reidemeister_number(v4, [(1, 0, 2, 3)], swap)
    assert induced_reidemeister_number(
        v4, [(1, 0, 2, 3)], GroupAutomorphism.identity(v4)) == 2


def test_quotient_routes_must_agree(monkeypatch):
    # route two walks the conjugation maps; with the first one, conjugation
    # by a transposition, taken out, S4/V4 = S3 seems to have four classes
    g = s4()
    conjugation_maps = twisted._conjugation_maps

    def perturbed(group):
        return [tuple(range(len(group)))] + conjugation_maps(group)[1:]

    monkeypatch.setattr(twisted, "_conjugation_maps", perturbed)
    v4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
    with pytest.raises(ConsistencyError,
                       match="^isogredience routes disagree: direct 3, invariant classes 4$"):
        induced_reidemeister_number(g, v4, GroupAutomorphism.identity(g))


def test_isogredience_counts():
    for g, expected in ((s3(), 3), (d4(), 4), (q8(), 4)):
        result = isogredience_count(g, GroupAutomorphism.identity(g))
        assert result.count == expected
    # centerless case: isogredience equals the plain twisted count
    g = s3()
    for phi in all_automorphisms(g):
        assert isogredience_count(g, phi).count == reidemeister_number(g, phi)


def _isogredience_oracle(g, phi):
    """R of the automorphism phi induces on the rebuilt quotient G/Z."""
    return quotient_oracle(g, center(g).elements, phi)


@pytest.mark.parametrize("name", sorted(AUTOMORPHISM_COUNTS))
def test_isogredience_matches_the_quotient_on_every_automorphism(name):
    g = AUTOMORPHISM_COUNTS[name][0]()
    for phi in all_automorphisms(g):
        assert isogredience_count(g, phi).count == _isogredience_oracle(g, phi)


@pytest.mark.parametrize("build", [s5, lambda: sl2(5), lambda: sl2(7)],
                         ids=["S5", "SL(2,5)", "SL(2,7)"])
def test_isogredience_matches_the_quotient_on_inner_twists(build):
    g = build()
    for x in random.Random(11).sample(g.elements, 4) + [g.elements[7]]:
        phi = GroupAutomorphism.inner(g, x)
        assert isogredience_count(g, phi).count == _isogredience_oracle(g, phi)


@st.composite
def groups_with_twists(draw):
    if draw(st.booleans()):
        degree = draw(st.integers(1, 6))
        g = closure([tuple(draw(st.permutations(range(degree)))) for _ in range(2)])
    else:
        m = draw(st.integers(2, 7))
        entry = st.integers(0, m - 1)
        matrix = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)).filter(
            lambda a: math.gcd(a[0][0] * a[1][1] - a[0][1] * a[1][0], m) == 1)
        g = closure([draw(matrix), draw(matrix)], modulus=m)
    normal = draw(st.sampled_from([[g.identity], center(g).elements, g.elements]))
    if draw(st.booleans()):
        return g, normal, GroupAutomorphism.inner(g, draw(st.sampled_from(g.elements)))
    return g, normal, GroupAutomorphism.identity(g)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(groups_with_twists())
def test_isogredience_matches_the_quotient_on_drawn_groups(case):
    g, normal, phi = case
    assert isogredience_count(g, phi).count == _isogredience_oracle(g, phi)
    assert induced_reidemeister_number(g, normal, phi) == quotient_oracle(g, normal, phi)


def test_isogredience_check_rejects_bijections_that_are_not_homomorphisms():
    g = s3()
    autos = [phi.images for phi in all_automorphisms(g)]
    rejected = 0
    for images in permutations(range(len(g))):
        try:
            isogredience_count(g, GroupAutomorphism(g, images))
        except ConsistencyError as exc:
            assert images not in autos
            assert "direct" in str(exc) and "invariant classes" in str(exc)
            rejected += 1
    assert rejected == 456


@pytest.mark.parametrize("images", [
    [0, 1, 2, 3, 4],  # one index short
    [0, 1, 2, 3, 4, 5, 0],  # one index too many
    [0] * 6,  # the right length, but not a bijection
    [0, 1, 2, 3, 4, 6],  # an index outside the group
    [0.0, 1, 2, 3, 4, 5],  # equal to a permutation, but a float is no index
    [False, True, 2, 3, 4, 5],  # likewise for bools
], ids=["short", "long", "six-zeros", "outside", "float", "bool"])
def test_automorphism_table_must_permute_the_element_indices(images):
    with pytest.raises(DomainError, match="each of the 6 element indices once"):
        GroupAutomorphism(s3(), images)


def test_generator_images_of_a_trivial_map_are_a_domain_error():
    g = s3()
    with pytest.raises(DomainError, match="each of the 6 element indices once"):
        GroupAutomorphism.from_generator_images(g, [g.identity] * len(g.generators))


FOREIGN_AUTOMORPHISM_CALLS = {
    "twisted_classes": twisted_classes,
    "reidemeister_number": reidemeister_number,
    "isogredience_count": isogredience_count,
    "induced_reidemeister_number":
        lambda g, phi: induced_reidemeister_number(g, center(g), phi),
    "telescoping_product_check":
        lambda g, phi: telescoping_product_check(g, phi, g.identity, g.generators[0], 2),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_AUTOMORPHISM_CALLS))
def test_foreign_automorphism_is_a_domain_error(name):
    call = FOREIGN_AUTOMORPHISM_CALLS[name]
    with pytest.raises(DomainError, match="different group"):
        call(s4(), GroupAutomorphism.identity(s3()))
    with pytest.raises(DomainError, match="different group"):
        call(s3(), GroupAutomorphism.identity(s3()))


def test_telescoping_identity_sweep():
    g = d4()
    rng = random.Random(8)
    autos = all_automorphisms(g)
    for _ in range(40):
        phi = rng.choice(autos)
        y = rng.choice(g.elements)
        z = rng.choice(g.elements)
        m = rng.randrange(1, 7)
        assert telescoping_product_check(g, phi, y, z, m)
    with pytest.raises(DomainError):
        telescoping_product_check(g, autos[0], g.elements[0], g.elements[1], 0)


def test_closure_cap(monkeypatch):
    monkeypatch.setenv("TCK_CLOSURE_CAP", "10")
    with pytest.raises(ResourceLimitError):
        closure([(1, 2, 3, 0), (1, 0, 2, 3)])
    monkeypatch.setenv("TCK_CLOSURE_CAP", "5")
    with pytest.raises(ResourceLimitError):
        s4()
    monkeypatch.setenv("TCK_CLOSURE_CAP", "not a number")
    with pytest.raises(DomainError):
        s4()


def test_the_automorphism_search_is_charged_before_it_runs(monkeypatch):
    # S5 closed from its 10 transpositions has 10339840 candidate tuples of
    # generator images, far past the cap; from a transposition and a 5-cycle
    # it has 12
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    transpositions = []
    for a, b in ((a, b) for b in range(5) for a in range(b)):
        p = list(range(5))
        p[a], p[b] = b, a
        transpositions.append(tuple(p))
    g = closure(transpositions)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match="^automorphism search exceeds closure cap 200000: 10339840 "
                             "candidate generator images$"):
        all_automorphisms(g)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setenv("TCK_CLOSURE_CAP", "120")
    assert len(all_automorphisms(s5())) == 120


def test_the_closure_cap_counts_element_width(monkeypatch):
    # an element of up to 64 entries counts 1 against the cap; a wider one
    # counts ceil(width / 64), and the message names its width
    def cycle(degree):
        return [*range(1, degree), 0]

    def transvection(size):
        return [[int(i == j or (i, j) == (0, 1)) for j in range(size)] for i in range(size)]

    monkeypatch.setenv("TCK_CLOSURE_CAP", "10")
    for generators, modulus, tail in (
            (cycle(64), None, ""), (cycle(65), None, "5 at width 65 (2 per element)"),
            (cycle(200), None, "2 at width 200 (4 per element)"),
            (transvection(8), 1000003, ""),
            (transvection(9), 1000003, "5 at width 81 (2 per element)")):
        with pytest.raises(ResourceLimitError) as raised:
            closure([generators], modulus=modulus)
        assert str(raised.value) == f"closure exceeded cap 10; partial size {tail or 10}"


def test_matrix_inverse_is_bounded_by_the_closure_cap(monkeypatch):
    # [[0,1],[1,1]] has order about 2 * 10^6 mod 1000003, far above the cap:
    # the closure stops at the cap, and no generator is inverted by powering
    fibonacci = [[0, 1], [1, 1]]
    monkeypatch.setenv("TCK_CLOSURE_CAP", "1000")
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match="^closure exceeded cap 1000; partial size 1000$"):
        closure([fibonacci], modulus=1000003)
    assert time.perf_counter() - start < 2.0
    # an element of order at most the cap closes and passes the gate
    monkeypatch.setenv("TCK_CLOSURE_CAP", "16")
    g = closure([fibonacci], modulus=7)
    assert len(g) == 16
    assert g.inv(fibonacci) == ((6, 1), (1, 0))
    monkeypatch.setenv("TCK_CLOSURE_CAP", "1000")
    # a generator whose edge column misses the identity is refused once its
    # monoid closes, and the message names it
    with pytest.raises(DomainError,
                       match=r"^matrix \(\(1, 1\), \(1, 1\)\) is not invertible mod 7$"):
        closure([[[1, 1], [1, 1]]], modulus=7)
    # a non-unit on a composite modulus, beside an invertible generator
    with pytest.raises(DomainError,
                       match=r"^matrix \(\(2, 0\), \(0, 1\)\) is not invertible mod 4$"):
        closure([[[1, 1], [0, 1]], [[2, 0], [0, 1]]], modulus=4)
    with pytest.raises(DomainError, match=r"^\(\(0, 0\), \(0, 1\)\) lies outside the group$"):
        g.inv([[0, 0], [0, 1]])
    # a non-invertible generator whose monoid passes the cap meets the cap
    with pytest.raises(ResourceLimitError, match="^closure exceeded cap 1000"):
        closure([[[2, 0], [0, 0]]], modulus=1000003)


def test_a_modulus_past_the_digit_limit_is_a_domain_error():
    # the refusal names the modulus, so one that cannot be printed is refused
    # up front; one of exactly as many digits as the limit still prints
    zero, limit = [[[0, 0], [0, 0]]], 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for modulus in (10**limit, 10**5000):
            with pytest.raises(DomainError,
                               match=f"^matrix modulus has more than {limit} digits$"):
                closure(zero, modulus=modulus)
        printable = 10**limit - 1
        with pytest.raises(DomainError) as raised:
            closure(zero, modulus=printable)
        assert str(raised.value) == f"matrix ((0, 0), (0, 0)) is not invertible mod {printable}"
    finally:
        sys.set_int_max_str_digits(saved)


def test_group_descriptor_roundtrip():
    for g in (s3(), q8()):
        descriptor = group_descriptor(g)
        json.dumps(descriptor)  # must be serializable as given
        rebuilt = group_from_descriptor(descriptor)
        assert len(rebuilt) == len(g)
        assert set(rebuilt.elements) == set(g.elements)
        for a in g.elements[:4]:
            for b in g.elements[:4]:
                assert rebuilt.mul(a, b) == g.mul(a, b)


def test_automorphism_descriptor():
    g = s3()
    descriptor = {"images": [[1, 0, 2], [2, 0, 1]]}
    phi = automorphism_from_descriptor(g, descriptor)
    assert phi((1, 0, 2)) == (1, 0, 2)
    with pytest.raises(DomainError):
        automorphism_from_descriptor(g, {"images": [[1, 0, 2]]})


def test_group_from_descriptor_rejects_junk():
    with pytest.raises(DomainError):
        group_from_descriptor({"encoding": "perm"})
    with pytest.raises(DomainError):
        group_from_descriptor({"encoding": "poem", "generators": []})


# JSON values: the scalars, and lists and objects of them
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1, 7), st.floats(),
                         st.text(max_size=2))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=12)
NEAR_INTS = st.one_of(st.integers(-1, 7), JSON_SCALARS)


def perm_lists(n):
    """Up to 3 permutations of n points, or lists of n near-integers."""
    return st.lists(st.permutations(range(n)).map(list)
                    | st.lists(NEAR_INTS, min_size=n, max_size=n), max_size=3)


def matrix_lists(n):
    """Up to 3 n x n matrices of integers, or of near-integers."""
    def matrices(cell):
        return st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.lists(matrices(st.integers(-1, 7)) | matrices(NEAR_INTS), max_size=3)


GROUP_DESCRIPTORS = st.one_of(
    st.integers(0, 6).flatmap(lambda n: st.fixed_dictionaries(
        {"encoding": st.just("perm"), "generators": perm_lists(n)})),
    st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries(
        {"encoding": st.just("matmod"), "modulus": st.integers(2, 7),
         "generators": matrix_lists(n)})),
    st.fixed_dictionaries(
        {"encoding": st.sampled_from(["perm", "matmod"]) | JSON_VALUES,
         "generators": JSON_VALUES},
        optional={"modulus": JSON_VALUES}),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(GROUP_DESCRIPTORS)
@example({"encoding": "perm", "generators": [[0, 1.5]]})
@example({"encoding": "perm", "generators": [[True, False]]})
@example({"encoding": "matmod", "modulus": 3, "generators": [[["1", "0"], ["0", "1"]]]})
def test_group_descriptors_build_int_groups_or_raise_typed_errors(descriptor):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TCK_CLOSURE_CAP", "1000")  # GL(3, 7) is far larger
        try:
            g = group_from_descriptor(descriptor)
        except (DomainError, ResourceLimitError):
            return
    matmod = g.ops.encoding == "matmod"
    entries = [v for x in g.generators for v in (sum(x, ()) if matmod else x)]
    assert {int}.issuperset(map(type, entries))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.tuples(st.just("S3"), perm_lists(3) | JSON_VALUES)
       | st.tuples(st.just("Q8"), matrix_lists(2) | JSON_VALUES))
@example(("S3", [[1.0, 0, 2], [1, 2, 0]]))
@example(("S3", [[1, 0, 2], [1, 2, 0]]))
@example(("Q8", [[[0, 5], [1, 3]], [[1, 1], [1, 2]]]))  # entries reduce mod 3
def test_automorphism_descriptors_map_into_the_group_or_raise_domain_errors(case):
    name, images = case
    g = ORACLE_GROUPS[name]()
    try:
        phi = automorphism_from_descriptor(g, {"images": images})
    except DomainError:
        return
    assert all(phi(x) in g.index for x in g.generators)
