"""Exact dense inversion, checked against closed forms and the identity."""

import random
from fractions import Fraction

import pytest

from tck import DomainError, RationalFunction, build_root_system, h_alpha
from tck.linalg import identity_matrix, mat_inv, mat_mul


def test_torus_inverse_is_the_reciprocal_parameter():
    T = RationalFunction.variable(1, 0)
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(3), Fraction(-2, 7), T * 2 + 1, T - Fraction(1, 3)):
                assert mat_inv(h_alpha(rs, alpha, t)) == h_alpha(rs, alpha, 1 / t), (name, alpha, t)


def test_dense_rational_inverse():
    rng = random.Random(6)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
    inverse = mat_inv(a)
    assert mat_mul(a, inverse) == identity_matrix(6)
    assert mat_mul(inverse, a) == identity_matrix(6)


def test_singular_matrices_are_refused():
    singular = [[Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(2), Fraction(4), Fraction(6)],
                [Fraction(0), Fraction(1), Fraction(5)]]
    with pytest.raises(DomainError):
        mat_inv(singular)
    with pytest.raises(DomainError):
        mat_inv([[Fraction(0)] * 2] * 2)
