"""Root system data: closure, Cartan integers, structure constants, symmetries."""

import pytest

from tck import (
    ConsistencyError,
    DomainError,
    DiagramSymmetry,
    build_root_system,
    diagram_symmetries,
    extend_symmetry_to_roots,
)
from tck.roots import permutation_order, root_permutation

COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "A4": 20,
    "B2": 8,
    "B3": 18,
    "C3": 18,
    "D4": 24,
    "D5": 40,
    "G2": 12,
    "F4": 48,
    "E6": 72,
}


@pytest.mark.parametrize("name,count", sorted(COUNTS.items()))
def test_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) == count // 2


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_roots_closed_under_negation(name):
    rs = build_root_system(name)
    for beta in rs.roots:
        assert rs.negate(beta) in rs.root_index
        assert rs.root_index[rs.roots[rs.root_index[beta]]] == rs.root_index[beta]


def test_bad_types_rejected():
    for text in ("A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "H2", "X1", "A"):
        with pytest.raises(DomainError):
            build_root_system(text)


def test_cartan_matrix_matches_pairings():
    for name in ("A3", "B3", "G2"):
        rs = build_root_system(name)
        # simple roots are the unit tuples, in node order
        simple = [
            tuple(1 if k == i else 0 for k in range(rs.rank)) for i in range(rs.rank)
        ]
        for i, a in enumerate(simple):
            for j, b in enumerate(simple):
                assert rs.cartan[i][j] == rs.cartan_integer(a, b)
        # diagonal is always 2, off-diagonal entries are nonpositive
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            assert all(rs.cartan[i][j] <= 0 for j in range(rs.rank) if j != i)


def test_cartan_integers_are_integral():
    for name in ("B2", "G2", "F4"):
        rs = build_root_system(name)
        for beta in rs.roots:
            for alpha in rs.roots:
                r = rs.cartan_integer(beta, alpha)
                assert isinstance(r, int)
                if beta == alpha:
                    assert r == 2
                elif beta == rs.negate(alpha):
                    assert r == -2
                else:
                    # string identity: pairing = down-length minus up-length
                    assert r == rs.root_string_down(alpha, beta) - rs.root_string_down(
                        rs.negate(alpha), beta
                    )


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3"])
def test_structure_constants(name):
    rs = build_root_system(name)
    data = rs.constants
    for a in rs.roots:
        for b in rs.roots:
            if a == b or a == rs.negate(b):
                continue
            total = tuple(x + y for x, y in zip(a, b))
            n = data.n(a, b)
            if rs.is_root(total):
                # |N(a,b)| = p + 1 with p the length of the string below b
                assert abs(n) == rs.root_string_down(a, b) + 1
                assert n == -data.n(b, a)
                assert n == -data.n(rs.negate(a), rs.negate(b))
            else:
                assert n == 0


def test_symmetry_group_sizes():
    for name, orders in (
        ("A1", [1]),
        ("A2", [1, 2]),
        ("A3", [1, 2]),
        ("B2", [1]),
        ("G2", [1]),
        ("F4", [1]),
        ("D4", [1, 2, 2, 2, 3, 3]),
        ("D5", [1, 2]),
        ("E6", [1, 2]),
    ):
        rs = build_root_system(name)
        symmetries = diagram_symmetries(rs)
        assert sorted(s.order for s in symmetries) == sorted(orders)
        # the identity leads the list
        assert symmetries[0].permutation == tuple(range(rs.rank))


def test_permutation_order_is_the_cycle_lcm():
    for perm in ((), (0,), (1, 0, 2), (1, 0, 3, 4, 2), (1, 2, 3, 4, 0, 6, 5)):
        order, current = 1, perm
        while current != tuple(range(len(perm))):
            current = tuple(perm[i] for i in current)
            order += 1
        assert permutation_order(perm) == order
    assert permutation_order((1, 0, 3, 4, 2)) == 6


def test_symmetry_must_preserve_the_diagram():
    rs = build_root_system("A3")
    # swapping adjacent with non-adjacent nodes maps 0+1+1 outside the system
    with pytest.raises(ConsistencyError):
        extend_symmetry_to_roots(rs, DiagramSymmetry((1, 0, 2)), (0, 1, 1))
    with pytest.raises(DomainError):
        extend_symmetry_to_roots(rs, DiagramSymmetry((2, 1, 0)), (1, 0, 1))


def test_symmetry_extension_permutes_roots():
    for name in ("A3", "D4", "E6"):
        rs = build_root_system(name)
        for sigma in diagram_symmetries(rs):
            images = [extend_symmetry_to_roots(rs, sigma, beta) for beta in rs.roots]
            assert sorted(images) == sorted(rs.roots)
            assert root_permutation(rs, sigma) == tuple(rs.root_index[b] for b in images)
            # pairings are preserved, so the extension respects the geometry
            for a in rs.roots[:6]:
                for b in rs.roots[:6]:
                    assert rs.cartan_integer(a, b) == rs.cartan_integer(
                        extend_symmetry_to_roots(rs, sigma, a),
                        extend_symmetry_to_roots(rs, sigma, b),
                    )


def test_triality_acts_transitively_on_outer_nodes():
    rs = build_root_system("D4")
    order3 = [s for s in diagram_symmetries(rs) if s.order == 3]
    assert len(order3) == 2
    sigma = order3[0]
    # the branch node is fixed, the three leaves cycle
    moved = {i for i in range(4) if sigma(i) != i}
    assert len(moved) == 3


def test_height_and_addition():
    rs = build_root_system("A2")
    a, b = rs.positive_roots[0], rs.positive_roots[1]
    total = rs.add(a, b)
    assert rs.is_root(total)
    assert rs.height(total) == 2
    assert rs.height(rs.negate(total)) == -2
    with pytest.raises(DomainError):
        rs.check_root(tuple(2 * x for x in total))
