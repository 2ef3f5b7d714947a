"""The exponent-row certificate against the Fraction oracle of
``fraction_oracle``: the same verdict, uncertified positions, generators and
integer entries on every type, graph part, product and correction drawn.
Corrections are drawn freely, beyond those a diagonal part produces, so they
go to the private ``_certify`` that both certificate routes share."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tck import (
    ChevalleyAutomorphism,
    ProductAutomorphism,
    ScalingAutomorphism,
    build_root_system,
    diagram_symmetries,
    generate_witnesses,
    obstruction_check,
    project_product_to_first_factor,
    reduced_obstruction_check,
)
from tck.witness import _certify, _collapse, _index_map

from fraction_oracle import (
    fraction_collapse,
    fraction_diagonals,
    fraction_obstruction_check,
    fraction_products,
    fraction_projection,
    fraction_reduced_check,
    summary,
)

TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "D6",
         "G2", "F4", "E6", "E7", "E8")
SCALINGS = (ScalingAutomorphism((Fraction(2),)),
            ScalingAutomorphism((Fraction(3, 2), Fraction(5))))


def _agree(got, expected):
    assert summary(got) == summary(expected)
    assert (got.index, got.bound, got.family_size) == (
        expected.index, expected.bound, expected.family_size)


@pytest.mark.parametrize("name", TYPES)
def test_certificates_match_the_fraction_route(name):
    # every diagram symmetry up to rank 6 (D4 triality included), and every
    # index, on both sides of the transcendence bound
    rs = build_root_system(name)
    witnesses = generate_witnesses(rs, 5)
    assert (fraction_products(witnesses.primes, witnesses.root_system.pairings)
            == fraction_diagonals(witnesses))
    graphs = [None] + (diagram_symmetries(rs)[1:] if rs.rank <= 6 else [])
    verdicts = set()
    for symmetry in graphs:
        for scaling in SCALINGS:
            for index in range(1, witnesses.count + 1):
                got = obstruction_check(rs, witnesses, symmetry, scaling, index)
                _agree(got, fraction_obstruction_check(witnesses, symmetry, scaling, index))
                verdicts.add(got.verdict)
    assert verdicts == {"inconclusive", "obstructed"}


def _cycle_product(rs, permutation, graphs, scalars):
    factors = [ChevalleyAutomorphism(rs, graph=graph, field=ScalingAutomorphism((c,)))
               for graph, c in zip(graphs, scalars)]
    return ProductAutomorphism(factors, permutation)


@pytest.mark.parametrize("name, permutation, order", [("A2", (1, 2, 0), 2), ("D4", (1, 0), 3)])
def test_product_certificates_match_the_fraction_route(name, permutation, order):
    # the A2^3 3-cycle and the D4^2 swap, through the first-factor reduction
    rs = build_root_system(name)
    witnesses = generate_witnesses(rs, 5)
    graph = next(s for s in diagram_symmetries(rs) if s.order == order)
    k = len(permutation)
    for graphs in ((graph,) * k, (None,) * (k - 1) + (graph,)):
        product = _cycle_product(rs, permutation, graphs, (Fraction(2), Fraction(3), Fraction(5)))
        reduction = project_product_to_first_factor(product, witnesses)
        products, theta = fraction_projection(product, witnesses)
        assert reduction.scaling == theta and reduction.primes == witnesses.primes
        assert tuple(products) == fraction_products(reduction.primes, reduction.exponents)
        for index in range(1, witnesses.count + 1):
            got = reduced_obstruction_check(reduction, index)
            _agree(got, fraction_reduced_check(product, witnesses, index))


@functools.cache
def _setting(name):
    rs = build_root_system(name)
    return rs, generate_witnesses(rs, 4), [None] + diagram_symmetries(rs)[1:]


# Witness primes of the first blocks, the scalars' primes, and a prime that
# appears nowhere else, as numerators and denominators of either sign.
CORRECTION_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
entry = st.builds(lambda sign, p, q, e, f: sign * Fraction(p ** e, q ** f),
                  st.sampled_from((1, -1)), st.sampled_from(CORRECTION_PRIMES),
                  st.sampled_from(CORRECTION_PRIMES), st.integers(0, 6), st.integers(0, 6))


@st.composite
def corrected_checks(draw):
    rs, witnesses, graphs = _setting(draw(st.sampled_from(("A2", "A3", "B2", "G2", "D4"))))
    symmetry = draw(st.sampled_from(graphs))
    scalars = draw(st.lists(st.sampled_from((Fraction(2), Fraction(3), Fraction(1, 2),
                                             Fraction(6), Fraction(5, 3), Fraction(-7))),
                            min_size=1, max_size=2))
    correction = draw(st.lists(entry, min_size=len(rs.roots), max_size=len(rs.roots)))
    scaling = ScalingAutomorphism(tuple(scalars))
    index = draw(st.integers(1, witnesses.count))
    # The eigencharacter of entry (0, 1) becomes 1 or a generator, which lie
    # in the lattice, or their negatives, which lie outside it and differ
    # from a member in the sign of the key alone.
    lift = draw(st.sampled_from((None, 1, -1, (scaling ** 6).scalars[0],
                                 -(scaling ** 6).scalars[0])))
    if lift is not None:
        cycle = (_index_map(rs, symmetry),)
        first, other = (fraction_collapse(cycle, fraction_diagonals(witnesses)[i], 6)
                        for i in (0, index - 1))
        correction[1] = lift * first[0] * correction[0] / other[1]
    return witnesses, symmetry, scaling, index, correction


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(corrected_checks())
def test_corrected_certificates_match_the_fraction_route(case):
    witnesses, symmetry, scaling, index, correction = case
    rs = witnesses.root_system
    exponents = _collapse((_index_map(rs, symmetry),), witnesses.root_system.pairings, 6)
    got = _certify(rs, witnesses.primes, exponents, scaling, correction, index)
    _agree(got, fraction_obstruction_check(witnesses, symmetry, scaling, index, correction))
