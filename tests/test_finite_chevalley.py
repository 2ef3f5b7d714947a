"""The finite Chevalley groups G(F_p) closed from tck's own generators.

The reduced x_{+-alpha_i}(1) of the adjoint representation generate the
adjoint group G(F_p); its order must follow Chevalley's formula
q^N prod (q^{d_i} - 1) / d (Carter, Simple Groups of Lie Type, Wiley 1972)
and its class count, R of the identity, the known class number.
"""

import random
from math import gcd, prod

import pytest

from tck import (
    GroupAutomorphism,
    ResourceLimitError,
    build_root_system,
    closure,
    reduce_mod_p,
    reidemeister_number,
    x_alpha,
)

# type, p, number of conjugacy classes
TABLE = [("A1", 5, 5), ("A1", 7, 6), ("A2", 2, 6), ("A1", 11, 8), ("B2", 2, 11),
         ("A2", 3, 12), ("G2", 2, 16), ("A3", 2, 14), ("B2", 3, 20)]


def chevalley_order(name, p):
    """q^N prod (q^{d_i} - 1) / d from the degrees d_i, with N = sum (d_i - 1)
    and d the order of the center of the simply connected group."""
    family, rank = name[0], int(name[1:])
    if family == "A":
        degrees, center = range(2, rank + 2), gcd(rank + 1, p - 1)
    elif family == "B":
        degrees, center = range(2, 2 * rank + 1, 2), gcd(2, p - 1)
    else:  # G2
        degrees, center = (2, 6), 1
    return p ** sum(d - 1 for d in degrees) * prod(p**d - 1 for d in degrees) // center


def simple_root_generators(name, p):
    """x_{alpha_i}(1) and x_{-alpha_i}(1) reduced mod p, for each simple root."""
    rs = build_root_system(name)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    return [reduce_mod_p(x_alpha(rs, tuple(sign * c for c in root), 1), p)
            for root in units for sign in (1, -1)]


@pytest.mark.parametrize("name, p, classes", TABLE, ids=[f"{n} mod {p}" for n, p, _ in TABLE])
def test_adjoint_group_mod_p_has_chevalley_order_and_class_number(name, p, classes):
    g = closure(simple_root_generators(name, p), modulus=p)
    assert len(g) == chevalley_order(name, p)
    assert reidemeister_number(g, GroupAutomorphism.identity(g)) == classes
    # x inv(x) = 1 by products, on every element up to 6000 elements and on
    # a seeded sample of 1000 above: one product of 10x10 to 15x15 matrices
    # per element would add about 5 s on the three largest groups
    checked = g.elements if len(g) <= 6000 else random.Random(p).sample(g.elements, 1000)
    assert all(g.mul(x, g.inv(x)) == g.identity for x in checked)


def test_d4_mod_2_meets_the_closure_cap(monkeypatch):
    # |D4(F_2)| = 174182400, far above any cap; a lowered one stops it early,
    # each 28x28 element counting ceil(784 / 64) = 13 against it
    monkeypatch.setenv("TCK_CLOSURE_CAP", "2000")
    with pytest.raises(ResourceLimitError, match=r"^closure exceeded cap 2000; partial size 153 "
                                                 r"at width 784 \(13 per element\)$"):
        closure(simple_root_generators("D4", 2), modulus=2)
