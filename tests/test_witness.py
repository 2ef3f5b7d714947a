"""Witness families, collapsed products, and the zero-block certification."""

import ast
import functools
import hashlib
import itertools
import random
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tck import (
    ChevalleyAutomorphism,
    ConsistencyError,
    DiagramSymmetry,
    DomainError,
    FirstFactorReduction,
    ObstructionCertificate,
    ProductAutomorphism,
    RationalFunction,
    ScalingAutomorphism,
    WitnessSequence,
    ZeroEntryWitness,
    build_root_system,
    character_lattice_member,
    diagram_symmetries,
    exponent_vector,
    generate_witnesses,
    n_alpha,
    obstruction_check,
    pattern_determinant,
    project_product_to_first_factor,
    reduced_obstruction_check,
    supports_pairwise_disjoint,
    x_alpha,
)
import tck.witness
from tck.witness import CertifiedEntries, _collapse, _index_map
from tck.chevalley import GraphMatrixRealization
from tck.linalg import diagonal_entries, is_diagonal, mat_mul, mat_product
from tck.roots import root_permutation

from dense_oracle import mat_det
from fraction_oracle import (
    fraction_certify,
    fraction_collapse,
    fraction_diagonals,
    fraction_products,
    summary,
)

TYPES = ("A1", "A2", "A3", "B2", "D4", "G2")


def _nontrivial_symmetry(rs):
    for sigma in diagram_symmetries(rs):
        if sigma.order > 1:
            return sigma
    return None


def _dense_witness(rs, block):
    """The witness as the dense product of h_alpha(p) = n_alpha(p) n_alpha(-1)."""
    simple = [tuple(int(j == t) for j in range(rs.rank)) for t in range(rs.rank)]
    return mat_product([n_alpha(rs, alpha, q)
                        for alpha, p in zip(simple, block) for q in (Fraction(p), Fraction(-1))])


def _root_block(rs, matrix):
    """Root-position diagonal of a torus matrix whose Cartan block is 1."""
    entries = diagonal_entries(matrix)
    assert is_diagonal(matrix) and entries[len(rs.roots):] == [1] * rs.rank
    return tuple(entries[:len(rs.roots)])


def _exponent_rows(entries, block):
    """The exponent vectors of positive entries over a prime block."""
    assert all(a > 0 for a in entries)
    return tuple(tuple(exponent_vector(a, block)) for a in entries)


def _power_product(phi, g, m):
    """g phi(g) ... phi^{m-1}(g) for a root-position diagonal g, on the
    Fraction oracle: the field and diagonal parts fix g, and the graph part
    moves its entries along the root permutation."""
    return fraction_collapse((_index_map(phi.rs, phi.graph),), g, m)


def test_generate_witnesses_shapes():
    rs = build_root_system("A1")
    w = generate_witnesses(rs, 1)
    assert w.count == 1
    assert w.primes == ((2,),)
    assert w.root_system.pairings == ((2,), (-2,))
    assert fraction_diagonals(w)[0] == (Fraction(4), Fraction(1, 4))
    rs2 = build_root_system("A2")
    w2 = generate_witnesses(rs2, 2)
    assert w2.primes == ((2, 3), (5, 7))
    for block in w2.primes:
        assert (_exponent_rows(_root_block(rs2, _dense_witness(rs2, block)), block)
                == w2.root_system.pairings)
    with pytest.raises(DomainError):
        generate_witnesses(rs, 0)


# sha256 prefixes of repr(fraction_diagonals) for four witnesses, recorded
# with every entry computed as prod(Fraction(p) ** k) over its block
DIAGONAL_DIGESTS = {
    "A1": "9e9e0a0ab242ba65", "A2": "7d8ae30aa32ba773", "A3": "d286f4d1d311f76d",
    "B2": "444a02b2160e6083", "B3": "713996cc7a7d5c67", "C3": "201d914e99eacf9e",
    "G2": "d7e69cd32d8743ff", "D4": "ea87a1c9261797ce", "F4": "8a623a531f7f30b6",
    "E6": "94b3482d71a4dec9", "E7": "fe645b385a446434", "E8": "4d8093762b4ec2bc",
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_DIGESTS))
def test_witness_diagonals_are_pinned(name):
    diagonals = fraction_diagonals(generate_witnesses(build_root_system(name), 4))
    digest = hashlib.sha256(repr(diagonals).encode()).hexdigest()[:16]
    assert digest == DIAGONAL_DIGESTS[name]


@pytest.mark.parametrize("name", TYPES)
def test_witness_supports_disjoint_across_the_family(name):
    rs = build_root_system(name)
    witnesses = generate_witnesses(rs, 6)
    phi = ChevalleyAutomorphism(
        rs, graph=_nontrivial_symmetry(rs), field=ScalingAutomorphism((Fraction(2),))
    )
    reduction = project_product_to_first_factor(ProductAutomorphism([phi], (0,)), witnesses)
    diagonals = fraction_products(witnesses.primes, witnesses.root_system.pairings)
    products = fraction_products(reduction.primes, reduction.exponents)
    root_count = len(rs.roots)
    for n in range(root_count):
        # per root position, entries and collapsed entries use fresh primes
        assert supports_pairwise_disjoint([d[n] for d in diagonals])
        assert supports_pairwise_disjoint([p[n] for p in products])
    # blocks share no prime and every entry is a product of its own block,
    # so whole-family supports are disjoint block by block
    assert supports_pairwise_disjoint(prod(block) for block in witnesses.primes)
    for block, g, p in zip(witnesses.primes, diagonals, products):
        for n in range(root_count):
            assert exponent_vector(g[n], block) is not None
            assert exponent_vector(p[n], block) is not None


def test_field_part_fixes_rational_witnesses():
    rs = build_root_system("A3")
    sigma = _nontrivial_symmetry(rs)
    delta = ScalingAutomorphism((Fraction(3),))
    phi = ChevalleyAutomorphism(rs, graph=sigma, field=delta)
    rho = GraphMatrixRealization(rs, sigma)
    witnesses = generate_witnesses(rs, 1)
    block = witnesses.primes[0]
    g = _dense_witness(rs, block)
    assert phi.apply(g) == rho.apply(g)
    # the collapse reads the graph part alone, and two of its steps are the
    # dense g rho(g)
    graph_only = ChevalleyAutomorphism(rs, graph=sigma)
    exponents = [project_product_to_first_factor(ProductAutomorphism([f], (0,)),
                                                 witnesses).exponents
                 for f in (phi, graph_only)]
    assert exponents[0] == exponents[1]
    rows = _collapse((_index_map(rs, sigma),), witnesses.root_system.pairings, 2)
    assert rows == _exponent_rows(_root_block(rs, mat_mul(g, rho.apply(g))), block)


def test_collapse_without_a_graph_part_is_a_power():
    rows = generate_witnesses(build_root_system("A1"), 1).root_system.pairings
    # trivial graph part: the collapse is a plain sixth power, 2^(+-2) to 2^(+-12)
    assert _collapse((None,), rows, 6) == ((12,), (-12,))
    assert _collapse((None,), rows, 1) == rows


def test_collapse_matches_iterated_dense_action():
    # an order-3 graph part tells the root permutation from its inverse at
    # every m that is not a multiple of 3
    rs = build_root_system("D4")
    sigma = next(s for s in diagram_symmetries(rs) if s.order == 3)
    phi = ChevalleyAutomorphism(rs, graph=sigma, field=ScalingAutomorphism((Fraction(2),)))
    witnesses = generate_witnesses(rs, 1)
    block = witnesses.primes[0]
    acc = current = _dense_witness(rs, block)
    for m in range(1, 6):
        rows = _collapse((_index_map(rs, sigma),), witnesses.root_system.pairings, m)
        assert rows == _exponent_rows(_root_block(rs, acc), block)
        current = phi.apply(current)
        acc = mat_mul(acc, current)


def test_product_automorphism_validation():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    delta = ScalingAutomorphism((Fraction(2),))
    f_a2 = ChevalleyAutomorphism(a2, field=delta)
    f_b2 = ChevalleyAutomorphism(b2, field=delta)
    with pytest.raises(DomainError):
        ProductAutomorphism([f_a2, f_b2], (1, 0))
    with pytest.raises(DomainError):
        ProductAutomorphism([f_a2, f_a2], (0, 0))
    with pytest.raises(DomainError):
        ProductAutomorphism([], ())
    mixed = ChevalleyAutomorphism(a2, field=ScalingAutomorphism((Fraction(2), Fraction(3))))
    with pytest.raises(DomainError):
        ProductAutomorphism([f_a2, mixed], (0, 1))
    product = ProductAutomorphism([f_a2, f_a2], (1, 0))
    assert product.k == 2
    assert product.permutation_order == 2


def test_first_factor_projection_matches_dense_route():
    # the projection against the defining action iterated on dense
    # n_alpha(p) n_alpha(-1) products, with each factor acting through
    # ChevalleyAutomorphism.apply
    rng = random.Random(41)
    for name in ("A2", "A3", "D4"):
        rs = build_root_system(name)
        symmetries = diagram_symmetries(rs)[1:]
        witnesses = generate_witnesses(rs, 2)
        for _ in range(3):
            k = rng.randrange(1, 4)
            factors = [
                ChevalleyAutomorphism(
                    rs, graph=rng.choice(symmetries),
                    field=ScalingAutomorphism((Fraction(rng.choice((2, 3))),)),
                )
                for _ in range(k)
            ]
            perm = list(range(k))
            rng.shuffle(perm)
            product = ProductAutomorphism(factors, tuple(perm))
            reduction = project_product_to_first_factor(product, witnesses)
            products = fraction_products(reduction.primes, reduction.exponents)
            for block, p in zip(witnesses.primes, products):
                summands = [_dense_witness(rs, block)] * k
                hat = summands[0]
                for _ in range(6 * reduction.permutation_order - 1):
                    summands = [factors[j].apply(summands[j]) for j in perm]
                    hat = mat_mul(hat, summands[0])
                assert p == _root_block(rs, hat), (name, perm)


def _character(rs, simple):
    """A diagonal part's entries at ``rs.roots`` from its values at the
    simple roots: entry beta is prod_k simple[k] ** beta_k."""
    return tuple(prod(Fraction(c) ** b for c, b in zip(simple, beta)) for beta in rs.roots)


def _diagonal_certificate(phi, witnesses, index):
    """The certificate of one automorphism, through its one-factor reduction,
    the route that carries a diagonal part into the certificate."""
    reduction = project_product_to_first_factor(ProductAutomorphism([phi], (0,)), witnesses)
    return reduced_obstruction_check(reduction, index)


# Values at the simple roots, shifted by the factor's position so that the
# factors of a product carry different diagonal parts.
SIMPLE_VALUES = (2, Fraction(3, 5), 7, Fraction(-1, 11), 13, 17, Fraction(19, 23), 29)

# (type, permutation, parts): each factor's parts as (index into
# diagram_symmetries, 0 for no graph part; diagonal part; field part).
DIAGONAL_CASES = [(name, (0,), ((graph, True, True),))
                  for name, count in (("A2", 2), ("A3", 2), ("D4", 6), ("E6", 2))
                  for graph in range(count)]
DIAGONAL_CASES += [
    ("A2", (1, 0), ((1, True, False), (0, False, True))),
    ("A2", (0, 1), ((0, True, True), (1, True, False))),
    ("A2", (1, 2, 0), ((0, True, False), (1, False, False), (1, True, True))),
    ("A2", (2, 0, 1), ((1, True, False), (0, True, False), (0, False, True))),
    ("D4", (1, 0), ((3, True, False), (0, True, True))),
    ("D4", (0, 1), ((1, True, False), (5, False, True))),
    ("D4", (1, 2, 0), ((3, True, True), (4, False, False), (2, True, False))),
    ("D4", (0, 2, 1), ((1, True, False), (3, True, True), (0, False, True))),
]


@pytest.mark.parametrize("name, permutation, parts", DIAGONAL_CASES,
                         ids=[f"{i}-{name}^{len(perm)}-{''.join(map(str, perm))}"
                              for i, (name, perm, _) in enumerate(DIAGONAL_CASES)])
def test_diagonal_parts_give_the_dense_correction(name, permutation, parts):
    # the first summand of Phi^{6s}(x_alpha(1), ..., x_alpha(1)), iterated on
    # matrices through ChevalleyAutomorphism.apply, is x_alpha(c[alpha])
    rs = build_root_system(name)
    symmetries = diagram_symmetries(rs)
    factors = [ChevalleyAutomorphism(
        rs, diagonal=SIMPLE_VALUES[pos:pos + rs.rank] if diagonal else None,
        graph=symmetries[graph] if graph else None,
        field=ScalingAutomorphism((Fraction(3, 2),)) if field else None)
        for pos, (graph, diagonal, field) in enumerate(parts)]
    product = ProductAutomorphism(factors, permutation)
    reduction = project_product_to_first_factor(product, generate_witnesses(rs, 2))
    assert len(reduction.correction) == len(rs.roots)
    for alpha, c in zip(rs.roots, reduction.correction):
        summands = [x_alpha(rs, alpha, 1)] * product.k
        for _ in range(6 * reduction.permutation_order):
            summands = [factors[j].apply(summands[j]) for j in permutation]
        assert summands[0] == x_alpha(rs, alpha, c), (alpha, c)


def test_function_field_diagonal_part_is_a_domain_error():
    # the correction must be rational: a Q(T) diagonal part is refused when
    # the product is built, so every index fails alike, on both sides of the
    # bound; the automorphism itself still acts
    rs = build_root_system("A2")
    t = RationalFunction.variable(1, 0)
    phi = ChevalleyAutomorphism(rs, diagonal=(t, 1))
    witnesses = generate_witnesses(rs, 4)
    for index in (1, 3):
        with pytest.raises(DomainError, match="^factor 0 needs a rational diagonal part: the "
                                              "certificate's eigencharacters lie in Q$"):
            _diagonal_certificate(phi, witnesses, index)
    plain = ChevalleyAutomorphism(rs, field=ScalingAutomorphism((Fraction(2),)))
    with pytest.raises(DomainError, match="^factor 1 needs a rational diagonal part"):
        ProductAutomorphism([plain, phi], (1, 0))
    for alpha in rs.roots:
        assert phi.apply(x_alpha(rs, alpha, 1)) == x_alpha(rs, alpha, t ** alpha[0])


@pytest.mark.parametrize("name", ["A2", "D4"])
def test_diagonal_part_leaves_the_collapse_rows(name):
    # a diagonal part conjugates by a torus element, which fixes the
    # witnesses: it gives the correction and leaves the exponent rows
    rs = build_root_system(name)
    sigma, delta = _nontrivial_symmetry(rs), ScalingAutomorphism((Fraction(2),))
    plain = ChevalleyAutomorphism(rs, graph=sigma, field=delta)
    diagonal = ChevalleyAutomorphism(rs, diagonal=SIMPLE_VALUES[:rs.rank], graph=sigma,
                                     field=delta)
    witnesses = generate_witnesses(rs, 2)
    for factors, permutation in (([diagonal], (0,)), ([diagonal, plain], (1, 0)),
                                 ([plain, diagonal, diagonal], (2, 0, 1))):
        reduction = project_product_to_first_factor(ProductAutomorphism(factors, permutation),
                                                    witnesses)
        reference = project_product_to_first_factor(
            ProductAutomorphism([plain] * len(factors), permutation), witnesses)
        assert reduction.exponents == reference.exponents
        assert reduction.correction is not None and reference.correction is None


def _certificate_positions(certificate):
    return [entry.position for entry in certificate.entries] + list(certificate.uncertified)


# correction: the diagonal part's values at the simple roots, None without one
@pytest.mark.parametrize("name, order, correction", [
    ("A1", None, None),
    ("A2", None, (Fraction(11), Fraction(2, 3))),
    ("A3", 2, None),
    ("D4", 3, None),
    ("D4", 3, (Fraction(-5), 7, Fraction(1, 3), 2)),
])
def test_certificate_eigencharacters_match_the_collapsed_products(name, order, correction):
    # every Q and S entry carries products[index-1][n] c[n] / (products[0][m] c[m]),
    # with the products collapsed independently through ChevalleyAutomorphism
    # and c the six-step collapse of the diagonal part
    rs = build_root_system(name)
    sigma = None if order is None else next(
        s for s in diagram_symmetries(rs) if s.order == order)
    delta = ScalingAutomorphism((Fraction(2),))
    witnesses = generate_witnesses(rs, 4)
    index = 3
    root_count = len(rs.roots)
    if correction is None:
        phi = ChevalleyAutomorphism(rs, graph=sigma, field=delta)
        certificate = obstruction_check(rs, witnesses, sigma, delta, index)
        c = [Fraction(1)] * root_count
    else:
        phi = ChevalleyAutomorphism(rs, diagonal=correction, graph=sigma, field=delta)
        certificate = _diagonal_certificate(phi, witnesses, index)
        c = _power_product(phi, _character(rs, correction), 6)
    products = [_power_product(phi, g, 6) for g in fraction_diagonals(witnesses)]
    # the Cartan rows contribute 1
    rows = [products[0][m] * c[m] for m in range(root_count)] + [Fraction(1)] * rs.rank
    assert certificate.verdict == "obstructed"
    assert _certificate_positions(certificate) == [
        (m, n) for m in range(root_count + rs.rank) for n in range(root_count)]
    for entry in certificate.entries:
        m, n = entry.position
        assert entry.eigencharacter == products[index - 1][n] * c[n] / rows[m]
        assert entry.block == ("Q" if m < root_count else "S")
    assert certificate.family_size == 4


def _lifting_diagonal(rs, witnesses, index, scalar):
    """A diagonal part on A2 whose sixth power puts lambda(0, 1) = 1 and
    lambda(m, 0) = scalar ** 6, a generator, on both Cartan rows m: with no
    graph part phi^6 conjugates the collapse by D^6, so D[0] = scalar /
    other[0] and D[1] = D[0] first[0] / other[1] (positions 0 and 1 hold
    alpha_2 and alpha_1).  Its values at alpha_1 and alpha_2."""
    diagonals = fraction_diagonals(witnesses)
    first, other = diagonals[0], diagonals[index - 1]
    d = scalar / other[0]
    return d * first[0] / other[1], d


@pytest.mark.parametrize("scalars, index", [
    ((Fraction(3, 2),), 3),
    ((Fraction(6),), 3),
    ((Fraction(2), Fraction(3)), 4),
])
def test_certificate_leaves_lattice_entries_uncertified(scalars, index):
    # the diagonal part lands eigencharacters on 1 and on a generator past
    # the bound; every position is decided against the per-entry membership
    # route
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 4)
    delta = ScalingAutomorphism(scalars)
    simple = _lifting_diagonal(rs, witnesses, index, scalars[0])
    phi = ChevalleyAutomorphism(rs, diagonal=simple, field=delta)
    products = [_power_product(phi, g, 6) for g in fraction_diagonals(witnesses)]
    first, other = products[0], products[index - 1]
    generators = (delta ** 6).scalars
    root_count = len(rs.roots)
    c = [x ** 6 for x in _character(rs, simple)]
    certificate = _diagonal_certificate(phi, witnesses, index)
    assert index > certificate.bound
    assert certificate.generators == generators
    rows = [first[m] * c[m] for m in range(root_count)] + [Fraction(1)] * rs.rank
    certified, uncertified = [], []
    for m in range(root_count + rs.rank):
        for n in range(root_count):
            lam = other[n] * c[n] / rows[m]
            if character_lattice_member(lam, generators):
                uncertified.append((m, n))
            else:
                certified.append(((m, n), lam))
    assert {(0, 1), (root_count, 0), (root_count + 1, 0)} <= set(uncertified)
    assert certificate.verdict == "inconclusive"
    assert certificate.uncertified == tuple(uncertified)
    assert [(e.position, e.eigencharacter) for e in certificate.entries] == certified
    assert certificate.family_size == 4


def test_certificate_factors_each_row_and_column_once(monkeypatch):
    # the witness factors come factored: only the generators, and the
    # correction's entries when a diagonal part gives one, get an exponent
    # vector, once each and never one per entry
    calls = []
    original = tck.witness.exponent_vector

    def counting(x, base):
        calls.append(x)
        return original(x, base)

    monkeypatch.setattr(tck.witness, "exponent_vector", counting)
    rs = build_root_system("E6")
    witnesses = generate_witnesses(rs, 5)
    delta = ScalingAutomorphism((Fraction(2), Fraction(3)))
    roots = len(rs.roots)
    certificate = obstruction_check(rs, witnesses, None, delta, 4)
    assert certificate.verdict == "obstructed"
    assert len(certificate.entries) == (roots + rs.rank) * roots
    assert calls == list(certificate.generators)
    phi = ChevalleyAutomorphism(rs, diagonal=[Fraction(-5, 7)] * rs.rank, field=delta)
    reduction = project_product_to_first_factor(ProductAutomorphism([phi], (0,)), witnesses)
    calls.clear()
    certificate = reduced_obstruction_check(reduction, 4)
    assert certificate.verdict == "obstructed"
    assert sorted(calls) == sorted([*certificate.generators, *reduction.correction])


def _count_constructions(monkeypatch):
    """Count ZeroEntryWitness and Fraction constructions from here on."""
    built = {"entry": 0, "Fraction": 0}
    entry_init, fraction_new = ZeroEntryWitness.__init__, Fraction.__new__

    def counting_entry(self, *args, **kwargs):
        built["entry"] += 1
        entry_init(self, *args, **kwargs)

    def counting_fraction(cls, *args, **kwargs):
        built["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(ZeroEntryWitness, "__init__", counting_entry)
    monkeypatch.setattr(Fraction, "__new__", counting_fraction)
    return built


def test_certificate_builds_no_entry_until_one_is_read(monkeypatch):
    rs = build_root_system("E6")
    witnesses = generate_witnesses(rs, 5)
    delta = ScalingAutomorphism((Fraction(2), Fraction(3)))
    built = _count_constructions(monkeypatch)
    certificate = obstruction_check(rs, witnesses, None, delta, 4)
    assert certificate.verdict == "obstructed"
    roots = len(rs.roots)
    assert len(certificate.entries) == (roots + rs.rank) * roots == 5616
    # the witnesses are characters and the factors integers: the lattice
    # generators are the only Fractions, and no entry is built
    assert built["entry"] == 0
    assert built["Fraction"] <= len(certificate.generators)
    fractions = built["Fraction"]
    assert not pattern_determinant(certificate)
    assert built["entry"] == 0 and built["Fraction"] - fractions <= 3
    certificate.entries[-1]
    assert built["entry"] == 1


def _sequence_cases():
    """(certificate, oracle) pairs: the oracle is the tuple of ZeroEntryWitness
    rebuilt from independently collapsed products, in row-major order.  The
    A2 case has rows of different lengths."""
    cases = []
    for name, order, scalars, index, lifted in (("D4", 3, (2,), 3, False),
                                                ("A2", None, (Fraction(3, 2),), 3, True),
                                                ("A2", None, (2,), 2, False)):
        rs = build_root_system(name)
        sigma = None if order is None else next(
            s for s in diagram_symmetries(rs) if s.order == order)
        delta = ScalingAutomorphism(tuple(map(Fraction, scalars)))
        witnesses = generate_witnesses(rs, 4)
        roots = len(rs.roots)
        if lifted:
            # lambda(0, 1) = 1 and lambda(m, 0) a generator stay uncertified
            simple = _lifting_diagonal(rs, witnesses, index, delta.scalars[0])
            phi = ChevalleyAutomorphism(rs, diagonal=simple, field=delta)
            certificate = _diagonal_certificate(phi, witnesses, index)
            c = [x ** 6 for x in _character(rs, simple)]
        else:
            phi = ChevalleyAutomorphism(rs, graph=sigma, field=delta)
            certificate = obstruction_check(rs, witnesses, sigma, delta, index)
            c = [Fraction(1)] * roots
        products = [_power_product(phi, g, 6) for g in fraction_diagonals(witnesses)]
        first, other = products[0], products[index - 1]
        generators = (delta ** 6).scalars
        rows = [first[m] * c[m] for m in range(roots)] + [Fraction(1)] * rs.rank
        oracle = []
        if index > certificate.bound:
            for m in range(roots + rs.rank):
                for n in range(roots):
                    lam = other[n] * c[n] / rows[m]
                    if not character_lattice_member(lam, generators):
                        oracle.append(ZeroEntryWitness((m, n), "Q" if m < roots else "S", lam))
        cases.append((certificate, tuple(oracle)))
    return cases


@pytest.mark.parametrize("case", range(3), ids=["D4 obstructed", "A2 uneven rows",
                                                "A2 inconclusive"])
def test_certified_entries_read_as_the_tuple(case):
    certificate, oracle = _sequence_cases()[case]
    entries = certificate.entries
    assert len(entries) == len(oracle) and bool(entries) == bool(oracle)
    assert tuple(entries) == oracle and list(reversed(entries)) == list(reversed(oracle))
    assert entries == oracle and oracle == entries and not entries != oracle
    assert hash(entries) == hash(oracle)
    assert hash(certificate) == hash(certificate)
    for k in range(-len(oracle), len(oracle)):
        assert entries[k] == oracle[k]
    for k in (len(oracle), -len(oracle) - 1):
        with pytest.raises(IndexError):
            entries[k]
    with pytest.raises(TypeError):
        entries[1.0]
    for cut in (slice(None), slice(3, 40), slice(-7, None), slice(None, None, -5),
                slice(5, 2), slice(-100, 100, 3)):
        assert entries[cut] == oracle[cut] and type(entries[cut]) is tuple
    for k in {0, 1, 8, len(oracle)}:
        if k <= len(oracle):
            assert random.Random(k).sample(entries, k) == random.Random(k).sample(oracle, k)
    if oracle:
        assert entries.index(oracle[-1]) == len(oracle) - 1 and oracle[0] in entries
        assert entries != oracle[:-1] and entries != oracle[1:] + oracle[:1]
        assert entries != list(oracle)
    else:
        assert entries == () and certificate.uncertified == ()


def test_certified_entries_compare_across_certificates():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 5)
    delta = ScalingAutomorphism((Fraction(2),))
    first = obstruction_check(rs, witnesses, None, delta, 4).entries
    again = obstruction_check(rs, witnesses, None, delta, 4).entries
    other = obstruction_check(rs, witnesses, None, delta, 5).entries
    assert first == again and hash(first) == hash(again) and first is not again
    assert first != other and len(first) == len(other)
    assert {first: 1}[again] == 1


def test_certificate_block_counts_a1():
    rs = build_root_system("A1")
    certificate = obstruction_check(rs, generate_witnesses(rs, 3), None,
                                    ScalingAutomorphism((Fraction(2),)), 3)
    blocks = {}
    for entry in certificate.entries:
        blocks[entry.block] = blocks.get(entry.block, 0) + 1
    # 2 roots and rank 1: the root-indexed columns hold Q (2 x 2) and S (1 x 2)
    assert blocks == {"Q": 4, "S": 2}
    assert certificate.uncertified == ()


def _with_correction(reduction, correction):
    """The reduction with its correction replaced, as a hand-built one."""
    return FirstFactorReduction(reduction.root_system, reduction.primes, reduction.exponents,
                                reduction.scaling, reduction.permutation_order, correction)


def test_certificate_correction_and_scaling_validation():
    rs = build_root_system("A1")
    witnesses = generate_witnesses(rs, 3)
    delta = ScalingAutomorphism((Fraction(2),))
    # a hand-built reduction carries its own correction, which the
    # certificate checks
    product = ProductAutomorphism([ChevalleyAutomorphism(rs, field=delta)], (0,))
    reduction = project_product_to_first_factor(product, witnesses)
    for correction, message in (([Fraction(1)], "correction vector needs 2 entries, got 1"),
                                ([1, 0], "correction entries must be nonzero")):
        with pytest.raises(DomainError, match=message):
            reduced_obstruction_check(_with_correction(reduction, correction), 3)
    with pytest.raises(DomainError, match="a scaling automorphism is required"):
        obstruction_check(rs, witnesses, None, None, 3)


@pytest.mark.parametrize("correction, message", [
    ([1], "correction vector needs 6 entries, got 1"),
    ([0] * 6, "correction entries must be nonzero"),
    ([0.5] * 6, "unsupported scalar 0.5"),
], ids=["short", "zero", "float"])
def test_certificate_gates_a_hand_built_correction_on_both_sides_of_the_bound(correction,
                                                                              message):
    # the correction is checked before the bound, as the prime blocks are, so
    # a bad one fails the same way at index 1 and past the bound
    rs = build_root_system("A2")
    delta = ScalingAutomorphism((Fraction(2),))
    product = ProductAutomorphism([ChevalleyAutomorphism(rs, field=delta)], (0,))
    reduction = project_product_to_first_factor(product, generate_witnesses(rs, 4))
    bound = reduced_obstruction_check(reduction, 1).bound
    bad = _with_correction(reduction, correction)
    for index in (1, bound + 1):
        with pytest.raises(DomainError, match=f"^{message}$"):
            reduced_obstruction_check(bad, index)


def test_malformed_witness_diagonal_names_the_obstruction_check():
    # a witness is its prime block: a block shorter than the rank, or two
    # blocks that share a prime, end in a typed error of the obstruction
    # check, on both routes and on both sides of the bound
    rs = build_root_system("A2")
    primes = generate_witnesses(rs, 4).primes
    delta = ScalingAutomorphism((Fraction(2),))
    product = ProductAutomorphism([ChevalleyAutomorphism(rs, field=delta)] * 2, (1, 0))
    cut = WitnessSequence(rs, (primes[0][:1], *primes[1:]))
    shared = WitnessSequence(rs, (primes[0], (3, 5), *primes[2:]))
    for index in (1, 3):
        for route in (lambda w: obstruction_check(rs, w, None, delta, index),
                      lambda w: reduced_obstruction_check(
                          project_product_to_first_factor(product, w), index)):
            with pytest.raises(DomainError,
                               match=r"^obstruction check: witness 1 needs 2 int primes, "
                                     r"got \(2,\)$"):
                route(cut)
            with pytest.raises(ConsistencyError,
                               match="^obstruction check: a prime occurs twice in the "
                                     "witness blocks$"):
                route(shared)
    for block in ((2, 4), (2, Fraction(3)), (2, 3.0)):
        bad = WitnessSequence(rs, (block, *primes[1:]))
        with pytest.raises(DomainError, match="^obstruction check: witness"):
            obstruction_check(rs, bad, None, delta, 3)


def test_obstruction_check_builds_no_graph_realization(monkeypatch):
    # the certificate reads the graph's root permutation only, never the
    # dense signed-permutation realization
    constructed = []
    original = GraphMatrixRealization.__init__

    def counting_init(self, *args):
        constructed.append(args)
        original(self, *args)

    monkeypatch.setattr(GraphMatrixRealization, "__init__", counting_init)
    rs = build_root_system("A3")
    sigma = _nontrivial_symmetry(rs)
    certificate = obstruction_check(rs, generate_witnesses(rs, 4), sigma,
                                    ScalingAutomorphism((Fraction(2),)), 3)
    assert certificate.verdict == "obstructed"
    assert constructed == []
    # the counter sees the one construction a graph automorphism makes
    ChevalleyAutomorphism(rs, graph=sigma)
    assert len(constructed) == 1


def test_wrong_rank_symmetry_is_a_domain_error():
    rs = build_root_system("A3")
    witnesses = generate_witnesses(rs, 4)
    delta = ScalingAutomorphism((Fraction(2),))
    for bad in (DiagramSymmetry((1, 0)), DiagramSymmetry((3, 2, 1, 0))):
        with pytest.raises(DomainError, match="symmetry rank does not match"):
            obstruction_check(rs, witnesses, bad, delta, 3)
        with pytest.raises(DomainError, match="symmetry rank does not match"):
            ChevalleyAutomorphism(rs, graph=bad)


@pytest.mark.parametrize("name, permutation",
                         [("A2", (0, 0)), ("A3", (0, 0, 2)), ("B2", (1, 0))])
def test_permutation_that_is_no_diagram_symmetry_is_a_domain_error(name, permutation):
    rs = build_root_system(name)
    bad = DiagramSymmetry(permutation)
    message = "permutation is not a diagram symmetry"
    with pytest.raises(DomainError, match=message):
        obstruction_check(rs, generate_witnesses(rs, 4), bad,
                          ScalingAutomorphism((Fraction(2),)), 3)
    with pytest.raises(DomainError, match=message):
        root_permutation(rs, bad)
    with pytest.raises(DomainError, match=message):
        ChevalleyAutomorphism(rs, graph=bad)


def test_obstruction_certificate_a2():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 6)
    delta = ScalingAutomorphism((Fraction(2),))
    certificate = obstruction_check(rs, witnesses, None, delta, 3)
    assert certificate.verdict == "obstructed"
    assert certificate.index == 3
    assert certificate.bound == 2
    assert certificate.family_size == 6
    assert certificate.generators == (Fraction(64),)
    assert certificate.uncertified == ()
    assert len(certificate.entries) == 48
    assert {e.block for e in certificate.entries} == {"Q", "S"}
    assert sum(1 for e in certificate.entries if e.block == "Q") == 36
    for entry in certificate.entries[:8]:
        assert not character_lattice_member(entry.eigencharacter, certificate.generators)
    assert pattern_determinant(certificate) is False


def test_obstruction_inconclusive_at_low_index():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 4)
    delta = ScalingAutomorphism((Fraction(2),))
    for index in (1, 2):
        certificate = obstruction_check(rs, witnesses, None, delta, index)
        assert certificate.verdict == "inconclusive"
        assert certificate.entries == ()
    with pytest.raises(DomainError):
        obstruction_check(rs, witnesses, None, delta, 5)
    with pytest.raises(DomainError):
        obstruction_check(rs, witnesses, None, delta, 0)


def test_obstruction_with_graph_part():
    rs = build_root_system("A3")
    witnesses = generate_witnesses(rs, 4)
    sigma = _nontrivial_symmetry(rs)
    delta = ScalingAutomorphism((Fraction(2),))
    certificate = obstruction_check(rs, witnesses, sigma, delta, 3)
    assert certificate.verdict == "obstructed"
    # 12 roots and rank 3: the root-indexed columns carry 15 * 12 entries
    assert len(certificate.entries) == 180
    assert pattern_determinant(certificate) is False


def _pattern_certificate(dim, zeros):
    """A hand-built certificate whose entries are the given zero positions."""
    return ObstructionCertificate(
        root_count=dim - 1, cartan_rank=1, index=3, bound=2, family_size=dim,
        generators=(), verdict="inconclusive",
        entries=tuple(ZeroEntryWitness(pos, "Q", Fraction(3)) for pos in zeros),
        uncertified=())


def _symbolic_pattern_determinant(dim, zeros):
    """The generic matrix with the given zero positions, expanded by mat_det."""
    free = [(m, n) for m in range(dim) for n in range(dim) if (m, n) not in zeros]
    index = {pos: t for t, pos in enumerate(free)}
    nvars = len(free)
    return mat_det([
        [RationalFunction.variable(nvars, index[(m, n)]) if (m, n) in index
         else RationalFunction.constant(nvars, 0) for n in range(dim)]
        for m in range(dim)
    ])


def test_pattern_determinant_matches_the_symbolic_route():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(40):
        dim = rng.randint(3, 5)
        # sparser 5x5 patterns take about a second each to expand
        density = rng.choice((0.4, 0.55, 0.7))
        zeros = sorted((m, n) for m in range(dim) for n in range(dim) if rng.random() < density)
        got = pattern_determinant(_pattern_certificate(dim, zeros))
        expected = _symbolic_pattern_determinant(dim, set(zeros))
        assert type(got) is bool
        assert got == bool(expected)
        outcomes.add(got)
    # both singular patterns and patterns with a perfect matching were drawn
    assert outcomes == {False, True}


def test_pattern_determinant_matches_a_permutation_search():
    # Leibniz: the generic determinant is nonzero exactly when some
    # permutation avoids every zero; 6x6 and 7x7 are beyond the expansion.
    rng = random.Random(11)
    outcomes = set()
    for trial in range(30):
        dim = 6 + trial % 2
        density = rng.choice((0.5, 0.65, 0.8))
        zeros = {(m, n) for m in range(dim) for n in range(dim) if rng.random() < density}
        expected = any(all((m, n) not in zeros for m, n in enumerate(sigma))
                       for sigma in itertools.permutations(range(dim)))
        assert pattern_determinant(_pattern_certificate(dim, sorted(zeros))) is expected
        outcomes.add(expected)
    assert outcomes == {False, True}


@pytest.mark.parametrize("position", [(9, 0), (-1, 0), (0, 9), (0, -1), (10 ** 5000, 0),
                                      (0, 0, 1), (0,), 5, None])
def test_pattern_positions_outside_the_matrix_are_domain_errors(position):
    certificate = _pattern_certificate(3, [(0, 0), position])
    with pytest.raises(DomainError, match="^certified position outside the matrix$"):
        pattern_determinant(certificate)


@pytest.mark.parametrize("name", ["A2", "E8"])
def test_pattern_determinant_of_an_inconclusive_certificate_is_fast(name):
    # index 1 is within the bound: no entry is certified, so the pattern is
    # a fully generic matrix of the adjoint dimension (8 for A2, 248 for E8)
    rs = build_root_system(name)
    certificate = obstruction_check(rs, generate_witnesses(rs, 4), None,
                                    ScalingAutomorphism((Fraction(2),)), 1)
    assert certificate.verdict == "inconclusive" and certificate.entries == ()
    start = time.perf_counter()
    assert pattern_determinant(certificate) is True
    assert time.perf_counter() - start < 1


def test_generic_pattern_is_matched_in_one_greedy_sweep():
    # with no zeros every row takes the next free column directly; an
    # augmenting search per row would walk O(dim^2) path steps
    certificate = _pattern_certificate(1200, [])
    start = time.perf_counter()
    assert pattern_determinant(certificate) is True
    assert time.perf_counter() - start < 1


def test_pattern_determinant_follows_paths_longer_than_the_recursion_limit():
    # Row m < dim - 1 may use columns m and m + 1, the last row only column
    # 0: its augmenting path moves every other row one column right.
    dim = sys.getrecursionlimit() + 200
    columns = [tuple(n for n in range(dim) if n not in (m, m + 1)) for m in range(dim - 1)]
    columns.append(tuple(range(1, dim)))
    entries = CertifiedEntries(dim - 1, [(1, 1)] * dim, [(1, 1)] * dim, columns)
    certificate = ObstructionCertificate(dim - 1, 1, 3, 2, 3, (), "inconclusive", entries, ())
    assert pattern_determinant(certificate) is True


def _function_field_uses(tree):
    """Line numbers of imports from tck.linalg and of uses of RationalFunction."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None) or ""]
        if any(name.split(".")[-1] in ("linalg", "RationalFunction") for name in names):
            yield node.lineno


def test_witness_module_does_no_function_field_arithmetic():
    # The certificate layer decides zero patterns by matching alone; the
    # symbolic determinant over Q(T) lives in the tests, as the oracle.
    source = Path(tck.witness.__file__).read_text()
    assert list(_function_field_uses(ast.parse(source))) == []
    sample = "from .linalg import mat_det\nfrom tck import linalg\nx = fields.RationalFunction\n"
    assert sorted(_function_field_uses(ast.parse(sample))) == [1, 2, 3]


def test_obstruction_rejects_type_mismatch():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    witnesses = generate_witnesses(b2, 3)
    with pytest.raises(DomainError):
        obstruction_check(a2, witnesses, None, ScalingAutomorphism((Fraction(2),)), 3)


def test_obstruction_detects_support_collisions():
    rs = build_root_system("A2")
    w = generate_witnesses(rs, 3)
    collided = WitnessSequence(rs, (w.primes[0], w.primes[0], w.primes[2]))
    with pytest.raises(ConsistencyError):
        obstruction_check(rs, collided, None, ScalingAutomorphism((Fraction(2),)), 3)


def test_trivial_collapsed_column_stays_uncertified():
    # A collapsed row E[n] = 0 makes entry n of every witness 1, so column n
    # has no nontrivial witness family and none of its positions is
    # certified, even where the row and column keys differ.
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 4)
    exponents = [tuple(6 * x for x in row) for row in witnesses.root_system.pairings]
    exponents[2] = (0, 0)
    delta = ScalingAutomorphism((Fraction(2),))
    reduction = FirstFactorReduction(rs, witnesses.primes, tuple(exponents), delta, 1)
    certificate = reduced_obstruction_check(reduction, 3)
    roots = len(rs.roots)
    assert certificate.verdict == "inconclusive"
    assert certificate.uncertified == tuple((m, 2) for m in range(roots + rs.rank))
    assert len(certificate.entries) == (roots + rs.rank) * (roots - 1)
    assert all(entry.position[1] != 2 for entry in certificate.entries)
    # the Fraction route agrees
    oracle = fraction_certify(rs, fraction_products(witnesses.primes, exponents), delta, None, 3)
    assert summary(certificate) == summary(oracle)


def test_reduction_exponent_rows_are_checked():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 4)
    delta = ScalingAutomorphism((Fraction(2),))
    rows = witnesses.root_system.pairings
    for bad in (rows[:-1], (rows[0][:1], *rows[1:]), ((Fraction(1), 2), *rows[1:])):
        reduction = FirstFactorReduction(rs, witnesses.primes, bad, delta, 1)
        with pytest.raises(DomainError, match="^obstruction check: the reduction needs 6 int "
                                              "exponent rows of length 2$"):
            reduced_obstruction_check(reduction, 3)


def test_obstruction_correction_keeps_the_verdict():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 5)
    phi = ChevalleyAutomorphism(rs, diagonal=(11, 11),
                                field=ScalingAutomorphism((Fraction(2),)))
    assert _diagonal_certificate(phi, witnesses, 4).verdict == "obstructed"


def test_trdeg_two_scaling_raises_the_bound():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 6)
    delta = ScalingAutomorphism((Fraction(2), Fraction(3)))
    assert obstruction_check(rs, witnesses, None, delta, 3).verdict == "inconclusive"
    assert obstruction_check(rs, witnesses, None, delta, 4).verdict == "obstructed"


def test_single_factor_reduction_matches_direct_route():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 5)
    delta = ScalingAutomorphism((Fraction(2),))
    product = ProductAutomorphism([ChevalleyAutomorphism(rs, field=delta)], (0,))
    reduction = project_product_to_first_factor(product, witnesses)
    assert reduction.permutation_order == 1
    assert reduction.scaling.scalars == delta.scalars
    direct = obstruction_check(rs, witnesses, None, delta, 4)
    via_product = reduced_obstruction_check(reduction, 4)
    assert via_product.verdict == direct.verdict == "obstructed"
    assert via_product.entries == direct.entries


def test_two_factor_swap_reduction():
    rs = build_root_system("A2")
    witnesses = generate_witnesses(rs, 4)
    f1 = ChevalleyAutomorphism(rs, field=ScalingAutomorphism((Fraction(2),)))
    f2 = ChevalleyAutomorphism(rs, field=ScalingAutomorphism((Fraction(3),)))
    product = ProductAutomorphism([f1, f2], (1, 0))
    reduction = project_product_to_first_factor(product, witnesses)
    assert reduction.permutation_order == 2
    assert reduction.scaling.scalars == (Fraction(6),)
    assert reduction.correction is None
    assert (reduction.scaling ** 6).scalars == (Fraction(6) ** 6,)
    # field parts fix the rational witnesses: the collapse is a 12th power
    products = fraction_products(reduction.primes, reduction.exponents)
    for g, p in zip(fraction_diagonals(witnesses), products):
        assert p == tuple(e**12 for e in g)
    certificate = reduced_obstruction_check(reduction, 3)
    assert certificate.verdict == "obstructed"
    assert certificate.generators == (Fraction(6) ** 6,)
    assert pattern_determinant(certificate) is False


def test_three_cycle_reduction_composes_the_fields():
    rs = build_root_system("A1")
    witnesses = generate_witnesses(rs, 3)
    fields = (Fraction(2), Fraction(2), Fraction(3))
    factors = [
        ChevalleyAutomorphism(rs, field=ScalingAutomorphism((c,))) for c in fields
    ]
    product = ProductAutomorphism(factors, (1, 2, 0))
    reduction = project_product_to_first_factor(product, witnesses)
    assert reduction.permutation_order == 3
    assert reduction.scaling.scalars == (Fraction(12),)
    certificate = reduced_obstruction_check(reduction, 3)
    assert certificate.verdict == "obstructed"


def _apply_product(product, summands):
    """The defining action (x_1, ..., x_k) -> (phi_{s(1)}(x_{s(1)}), ...,
    phi_{s(k)}(x_{s(k)})) on root-position diagonals: the field parts fix
    rational entries and a graph part moves entry beta to sigma(beta)."""
    image = []
    for j in product.permutation:
        g, sigma = summands[j], product.factors[j].graph
        if sigma is None:
            image.append(tuple(g))
            continue
        moved = [None] * len(g)
        for i, target in enumerate(root_permutation(product.rs, sigma)):
            moved[target] = g[i]
        image.append(tuple(moved))
    return tuple(image)


def _reference_projection(product, witnesses):
    """The projection by the defining action: apply the product automorphism
    6s - 1 times, multiply the first summands as Fractions, and compose the
    field parts along s steps from summand 0."""
    s = product.permutation_order
    products = []
    for g in fraction_diagonals(witnesses):
        summands = (g,) * product.k
        hat = g
        for _ in range(6 * s - 1):
            summands = _apply_product(product, summands)
            hat = tuple(a * b for a, b in zip(hat, summands[0]))
        products.append(hat)
    theta = ScalingAutomorphism.identity(product.variable_count)
    j = 0
    for _ in range(s):
        j = product.permutation[j]
        if product.factors[j].field is not None:
            theta = theta.compose(product.factors[j].field)
    return tuple(products), theta, s


@functools.cache
def _projection_setting(name):
    rs = build_root_system(name)
    return rs, generate_witnesses(rs, 2), [None] + diagram_symmetries(rs)


PERMUTATIONS = [p for k in range(1, 5) for p in itertools.permutations(range(k))]


@st.composite
def product_automorphisms(draw):
    rs, witnesses, graphs = _projection_setting(draw(st.sampled_from(("A3", "D4"))))
    # (0, 2, 1) fixes summand 0; under (1, 0, 3, 4, 2) the cycle through
    # summand 0 has length 2 and the permutation order is 6
    perm = draw(st.sampled_from(((0, 2, 1), (1, 0, 3, 4, 2))) | st.sampled_from(PERMUTATIONS))
    nvars = draw(st.integers(1, 2))
    scalar = st.sampled_from((Fraction(2), Fraction(3), Fraction(1, 5), Fraction(-7)))
    scaling = st.lists(scalar, min_size=nvars, max_size=nvars).map(
        lambda c: ScalingAutomorphism(tuple(c)))
    factors = [ChevalleyAutomorphism(rs, graph=draw(st.sampled_from(graphs)),
                                     field=draw(st.none() | scaling))
               for _ in perm]
    return ProductAutomorphism(factors, tuple(perm)), witnesses


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(product_automorphisms())
def test_projection_matches_the_iterated_defining_action(case):
    product, witnesses = case
    reduction = project_product_to_first_factor(product, witnesses)
    got = (fraction_products(reduction.primes, reduction.exponents), reduction.scaling,
           reduction.permutation_order)
    assert got == _reference_projection(product, witnesses)


def test_projection_collapses_the_pairing_rows_once(monkeypatch):
    # one collapse of the shared pairing matrix serves every witness
    calls = []
    original = tck.witness._collapse

    def counting(cycle, rows, m):
        calls.append((rows, m))
        return original(cycle, rows, m)

    monkeypatch.setattr(tck.witness, "_collapse", counting)
    rs = build_root_system("D4")
    sigma = next(s for s in diagram_symmetries(rs) if s.order == 3)
    factors = [ChevalleyAutomorphism(rs, graph=sigma) for _ in range(3)]
    witnesses = generate_witnesses(rs, 4)
    reduction = project_product_to_first_factor(ProductAutomorphism(factors, (1, 2, 0)),
                                                witnesses)
    assert 6 * reduction.permutation_order == 18
    assert calls == [(witnesses.root_system.pairings, 18)]
    assert reduction.primes is witnesses.primes
