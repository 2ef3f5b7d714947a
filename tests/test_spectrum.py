"""Spectrum computations: Z^n, discrete Heisenberg, lamplighters, metabelian."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tck import (
    ConsistencyError,
    DomainError,
    ExtendedCount,
    GroupAutomorphism,
    INFINITY,
    ResourceLimitError,
    center,
    closure,
    abelian_oracle_count,
    cokernel_order_mod,
    heisenberg_automorphism,
    heisenberg_cokernel_product,
    heisenberg_group,
    heisenberg_oracle,
    heisenberg_reidemeister,
    int_det,
    lamplighter_r_infinity,
    metabelian_spectrum,
    reidemeister_zn,
    zn_fullness_witness,
)


def test_extended_count_semantics():
    assert ExtendedCount(3) == 3
    assert ExtendedCount(3) == ExtendedCount(3)
    assert INFINITY != 3
    assert not INFINITY.is_finite
    assert str(INFINITY) == "infinity"
    assert str(ExtendedCount(12)) == "12"
    with pytest.raises(DomainError):
        ExtendedCount(0)
    with pytest.raises(DomainError):
        ExtendedCount(-2)
    # a finite count hashes as its int, so a set of values holds 3 once
    assert {ExtendedCount(3), 3} == {3}
    # exact positive ints only: no truncation, no bool, no parsing
    for value in (Fraction(5, 2), 2.7, True, "7"):
        with pytest.raises(DomainError):
            ExtendedCount(value)
    with pytest.raises(AttributeError):
        ExtendedCount(3).value = 4


def test_zn_counts():
    assert reidemeister_zn([[1]]) == INFINITY
    assert reidemeister_zn([[-1]]) == 2
    assert reidemeister_zn([[0, 1], [1, 0]]) == INFINITY
    assert reidemeister_zn([[0, 1], [-1, 0]]) == 2
    assert reidemeister_zn([[0, 1], [-1, -3]]) == 5
    with pytest.raises(DomainError):
        reidemeister_zn([[2, 0], [0, 1]])
    with pytest.raises(DomainError):
        reidemeister_zn([[1, 2, 3], [4, 5, 6]])


def test_zn_count_matches_determinant():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        # random unimodular via shears and swaps
        for _ in range(3 * n):
            op = rng.randrange(3)
            i, j = rng.randrange(n), rng.randrange(n)
            if op == 0 and i != j:
                c = rng.choice((-2, -1, 1, 2))
                for k in range(n):
                    m[i][k] += c * m[j][k]
            elif op == 1:
                m[i], m[j] = m[j], m[i]
            else:
                m[i] = [-x for x in m[i]]
        shifted = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
        d = int_det(shifted)
        expected = INFINITY if d == 0 else ExtendedCount(abs(d))
        assert reidemeister_zn(m) == expected


def test_fullness_witnesses():
    for n in (2, 3, 4):
        for target in list(range(1, 12)) + [25, 60]:
            witness = zn_fullness_witness(n, target)
            assert len(witness) == n and all(len(row) == n for row in witness)
            assert abs(int_det(witness)) == 1
            assert reidemeister_zn(witness) == target
    with pytest.raises(DomainError):
        zn_fullness_witness(1, 3)
    with pytest.raises(DomainError):
        zn_fullness_witness(2, 0)


def test_fullness_past_rank_two_is_the_companion_matrix():
    # every m up to 64, so every m divisible by 2^(n-2) as well; the last
    # column is pinned by the characteristic polynomial det(xI - A), monic of
    # degree n and so fixed by its values at x = 0..n - 1
    for n in range(3, 7):
        for m in range(1, 65):
            witness = zn_fullness_witness(n, m)
            assert all(witness[i][j] == (j == i - 1) for i in range(n) for j in range(n - 1))
            for x in range(n):
                shifted = [[x * (i == j) - witness[i][j] for j in range(n)] for i in range(n)]
                assert int_det(shifted) == x**n + m * x ** (n - 1) - 1
            assert abs(int_det(witness)) == 1
            assert reidemeister_zn(witness) == m


def test_cokernel_order_mod():
    assert cokernel_order_mod([[2, 0], [0, 3]], 6) == 6
    assert cokernel_order_mod([[1, 0], [0, 1]], 5) == 1
    assert cokernel_order_mod([[0, 0], [0, 0]], 4) == 16
    with pytest.raises(DomainError):
        cokernel_order_mod([[1]], 0)


def test_abelian_oracle_agrees_with_cokernel():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(1, 3)
        m = rng.randrange(2, 7)
        matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice((-1, 1, 2))
                for k in range(n):
                    matrix[i][k] += c * matrix[j][k]
        shifted = [[matrix[i][j] - (i == j) for j in range(n)] for i in range(n)]
        assert abelian_oracle_count(matrix, m) == cokernel_order_mod(shifted, m)


@st.composite
def unimodular_moduli(draw):
    """A unimodular n x n matrix, n <= 3, from row additions, swaps and sign
    flips of the identity, with a modulus m <= 6."""
    n = draw(st.integers(1, 3))
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = st.integers(0, n - 1)
    for kind, i, j, c in draw(st.lists(st.tuples(st.integers(0, 2), rows, rows,
                                                 st.sampled_from((-2, -1, 1, 2))), max_size=8)):
        if kind == 0 and i != j:
            matrix[i] = [a + c * b for a, b in zip(matrix[i], matrix[j])]
        elif kind == 1:
            matrix[i], matrix[j] = matrix[j], matrix[i]
        else:
            matrix[i] = [-a for a in matrix[i]]
    return matrix, draw(st.integers(2, 6))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(unimodular_moduli())
def test_abelian_oracle_matches_the_cokernel_on_drawn_matrices(case):
    matrix, m = case
    shifted = [[matrix[i][j] - (i == j) for j in range(len(matrix))] for i in range(len(matrix))]
    assert abelian_oracle_count(matrix, m) == cokernel_order_mod(shifted, m)


def test_abelian_oracle_is_bounded_by_the_closure_cap():
    # (Z/3000)^2 has 9 * 10^6 translations, past the default cap: the closure
    # stops there, before any structure of size m^n is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^closure exceeded cap"):
        abelian_oracle_count([[1, 0], [0, 1]], 3000)
    assert time.perf_counter() - start < 2.0


def test_heisenberg_counts():
    assert heisenberg_reidemeister([[0, 1], [1, 1]]) == 2
    assert heisenberg_reidemeister([[1, 2], [2, 3]]) == 8
    # determinant one forces an infinite count through the center
    assert heisenberg_reidemeister([[2, 1], [1, 1]]) == INFINITY
    assert heisenberg_reidemeister([[1, 1], [0, 1]]) == INFINITY
    with pytest.raises(DomainError):
        heisenberg_reidemeister([[2, 0], [0, 1]])


def test_heisenberg_finite_counts_are_even():
    rng = random.Random(37)
    seen_finite = 0
    for _ in range(60):
        a, b, c = (rng.randrange(-4, 5) for _ in range(3))
        for sign in (1, -1):
            # solve for d with ad - bc = sign when possible
            if a == 0:
                continue
            if (sign + b * c) % a == 0:
                d = (sign + b * c) // a
                count = heisenberg_reidemeister([[a, b], [c, d]])
                if count.is_finite:
                    seen_finite += 1
                    assert count.value % 2 == 0
    assert seen_finite >= 10


def test_heisenberg_group_shape():
    g = heisenberg_group(3)
    assert len(g) == 27
    assert len(center(g)) == 3
    with pytest.raises(DomainError):
        heisenberg_group(1)


def test_heisenberg_automorphism_lift():
    g = heisenberg_group(5)
    phi = heisenberg_automorphism(g, [[0, 1], [1, 1]])
    x, y = g.generators[0], g.generators[1]
    assert phi(x) != x or phi(y) != y
    # even modulus obstructs this lift: ac and bd must both be even
    g2 = heisenberg_group(2)
    with pytest.raises(DomainError):
        heisenberg_automorphism(g2, [[0, 1], [1, 1]])
    assert heisenberg_automorphism(g2, [[1, 0], [0, 1]]) == GroupAutomorphism.identity(g2)
    # the images are the closed forms x^a y^c = ((1, a, ac), (0, 1, c), (0, 0, 1)) mod m
    phi = heisenberg_automorphism(g, [[2, -1], [3, -1]])
    assert (phi(x), phi(y)) == (((1, 2, 1), (0, 1, 3), (0, 0, 1)), ((1, 4, 1), (0, 1, 4), (0, 0, 1)))
    # outside a Heisenberg group the element gate refuses the images
    for other in (closure([(1, 0, 2), (1, 2, 0)]), closure([((1, 1), (0, 1))], modulus=5)):
        with pytest.raises(DomainError):
            heisenberg_automorphism(other, [[0, 1], [1, 1]])


def test_heisenberg_oracle_matches_product_in_coprime_range():
    done = 0
    for matrix in ([[0, 1], [1, 1]], [[1, 2], [2, 3]], [[0, 1], [-1, 0]], [[1, 1], [1, 2]]):
        shifted = [[matrix[i][j] - (i == j) for j in range(2)] for i in range(2)]
        for m in (2, 3, 4, 5):
            if gcd(int_det(shifted), m) != 1:
                continue
            try:
                oracle = heisenberg_oracle(matrix, m)
            except DomainError:
                continue  # no lift at this modulus
            assert oracle == heisenberg_cokernel_product(matrix, m)
            done += 1
    assert done >= 6


def test_heisenberg_oracle_departs_from_product_otherwise():
    # the identity on the mod-2 group: 5 orbits against a product of 8
    assert heisenberg_oracle([[1, 0], [0, 1]], 2) == 5
    assert heisenberg_cokernel_product([[1, 0], [0, 1]], 2) == 8


def test_lamplighter_dichotomy():
    for n in (2, 3, 4, 6, 9, 12, 21, 100):
        assert lamplighter_r_infinity(n)
    for n in (5, 7, 11, 25, 35, 49, 55):
        assert not lamplighter_r_infinity(n)
    with pytest.raises(DomainError):
        lamplighter_r_infinity(1)


def test_metabelian_equal_units():
    desc = metabelian_spectrum(1, 1, 3)
    assert desc.case == "equal-units"
    assert desc.contains(2) and desc.contains(4) and desc.contains(8)
    assert not desc.contains(6) and not desc.contains(12)
    assert not desc.contains(3)
    assert desc.contains(INFINITY)
    negative = metabelian_spectrum(-1, -1, 5)
    assert negative.case == "equal-units"
    assert negative.contains(14) and not negative.contains(20)


def test_metabelian_opposite_units():
    desc = metabelian_spectrum(1, -1, 3)
    assert desc.case == "opposite-units"
    # 2*3*(3-1) = 12, 2*3*(3+1) = 24, 4*3 = 12, 4*9 = 36
    assert desc.contains(12) and desc.contains(24) and desc.contains(36)
    assert desc.contains(2 * 9 * (27 - 1))
    assert not desc.contains(4)  # the l = 0 boundary stays out
    assert not desc.contains(2 * (3 - 1))
    assert not desc.contains(10)
    assert desc.contains(INFINITY)


def test_metabelian_reciprocal_pair():
    desc = metabelian_spectrum(2, Fraction(1, 2), 2)
    assert desc.case == "reciprocal-pair"
    assert desc.contains(4)
    assert desc.contains(6)  # 2*(2^2 - 1)
    assert desc.contains(2 * (2**3 + 1))
    assert not desc.contains(8)
    assert not desc.contains(12)
    assert desc.contains(INFINITY)


def test_metabelian_generic():
    desc = metabelian_spectrum(5, 25, 5)
    assert desc.case == "generic"
    assert desc.contains(INFINITY)
    assert not any(desc.contains(v) for v in range(1, 30))


def test_metabelian_parameter_validation():
    with pytest.raises(DomainError):
        metabelian_spectrum(2, 3, 5)  # 2 is no unit once 5 is inverted
    with pytest.raises(DomainError, match=r"cofactor 6/7"):
        metabelian_spectrum(Fraction(-150, 7), 1, 5)
    with pytest.raises(DomainError, match="is only decided below"):
        metabelian_spectrum(1, 1, 2 ** 127 - 1)
    with pytest.raises(DomainError):
        metabelian_spectrum(1, 1, 4)
    with pytest.raises(DomainError):
        metabelian_spectrum(0, 1, 3)
    with pytest.raises(DomainError):
        desc = metabelian_spectrum(1, 1, 3)
        desc.contains(0)
    for text in ("six", "infinity"):
        with pytest.raises(DomainError):
            metabelian_spectrum(1, 1, 3).contains(text)
