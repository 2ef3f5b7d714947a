"""Root system data: closure, Cartan integers, structure constants, symmetries."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tck import (
    ConsistencyError,
    DomainError,
    DiagramSymmetry,
    build_root_system,
    diagram_symmetries,
)
from tck.chevalley import adjoint_dimension, bracket_coordinates
from tck.errors import ResourceLimitError
from tck.roots import (
    RootSystem,
    RootSystemType,
    _exact,
    _preserves_cartan,
    _root_count,
    permutation_order,
    root_permutation,
)

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


@pytest.mark.parametrize("text", ["A\u00b2", "B\u00b3", "A" + "1" * 5000, "", "A-1", "A 2"],
                         ids=["superscript-2", "superscript-3", "5000-digits", "empty",
                              "signed", "spaced"])
def test_unparsable_types_are_a_domain_error(text):
    with pytest.raises(DomainError, match="cannot parse root system type"):
        RootSystemType.parse(text)


@pytest.mark.parametrize("rank", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_non_int_rank_is_a_domain_error(rank):
    # an int check alone passes True (printed "ATrue"); 2.0 would reach _cartan_matrix
    with pytest.raises(DomainError, match="rank must be an int"):
        RootSystemType("A", rank)


def test_types_parse_case_and_space_insensitively():
    assert RootSystemType.parse(" e8 ") == RootSystemType("E", 8)
    assert RootSystemType.parse("a12") == RootSystemType("A", 12)


# a family letter, then decimal digits and other numerals (superscripts,
# fractions, other scripts' digits); parse only, which charges nothing
# against the closure cap
TYPE_TEXT = st.one_of(
    st.text(max_size=6),
    st.builds(str.__add__, st.sampled_from("ABCDEFGaegXZ "),
              st.text(st.characters(categories=("Nd", "No", "Nl", "Zs")), max_size=6)),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(TYPE_TEXT)
@example("A\u00b2")
@example("A\u0663")  # an Arabic-Indic 3, which int() reads
def test_parse_raises_only_domain_errors(text):
    try:
        parsed = RootSystemType.parse(text)
    except DomainError:
        return
    assert parsed.family in "ABCDEFG"
    assert type(parsed.rank) is int and parsed.rank >= 1


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


TYPES_UP_TO_RANK_8 = [f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                      for rank in range(low, 9)] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name", TYPES_UP_TO_RANK_8 + ["A24", "D16", "B42"])
def test_pairing_table_matches_the_form(name):
    # rs.pairings is recorded by the reflection closure; cartan_integer reads
    # the form rows and norms, an independent route
    rs = build_root_system(name)
    simple = [tuple(int(j == t) for j in range(rs.rank)) for t in range(rs.rank)]
    assert len(rs.pairings) == len(rs.roots)
    for beta, row in zip(rs.roots, rs.pairings):
        assert row == tuple(rs.cartan_integer(beta, alpha) for alpha in simple), (name, beta)


def _root_string_down(rs, alpha, beta) -> int:
    """Largest p with beta - p*alpha still a root, walked on root tuples."""
    p = 0
    current = beta
    while True:
        current = tuple(b - a for b, a in zip(current, alpha))
        if current in rs.root_index:
            p += 1
        else:
            return p


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
                    assert r == _root_string_down(rs, alpha, beta) - _root_string_down(
                        rs, rs.negate(alpha), beta
                    )


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4", "F4", "E6"])
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
                assert abs(n) == _root_string_down(rs, a, b) + 1
                assert n == -data.n(b, a)
                assert n == -data.n(rs.negate(a), rs.negate(b))
            else:
                assert n == 0


def test_constant_is_zero_off_the_pairs_whose_sum_is_a_root():
    rs = build_root_system("B2")
    data = rs.constants
    alpha, highest = rs.positive_roots[0], rs.positive_roots[-1]
    # a non-root argument, on either side or both
    for a, b in ((alpha, (5, 5)), ((0, 0), alpha), ((3, 1), (5, 5)), ((1,), alpha)):
        assert data.n(a, b) == 0, (a, b)
    # roots whose sum is not a root, 0 or twice a root included
    for a, b in ((alpha, highest), (highest, highest), (alpha, rs.negate(alpha))):
        assert not rs.is_root(rs.add(a, b)) and data.n(a, b) == 0, (a, b)
    beta = rs.positive_roots[1]
    assert data.n(list(alpha), list(beta)) == data.n(alpha, beta) != 0


def _fraction_form(rs):
    """(beta, gamma) over Fraction half-lengths d_i = (alpha_i, alpha_i)/2 with d_0 = 1."""
    d = [None] * rs.rank
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rs.rank):
            if j != i and rs.cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * rs.cartan[j][i] / rs.cartan[i][j]
                queue.append(j)

    def inner(beta, gamma):
        total = Fraction(0)
        for i, b in enumerate(beta):
            if not b:
                continue
            for j, c in enumerate(gamma):
                if c:
                    total += b * c * rs.cartan[i][j] * d[j]
        return total

    return inner, d


def _check_integer_form(rs, betas, alphas):
    inner, d = _fraction_form(rs)
    assert all(isinstance(x, int) for row in rs.form for x in row)
    assert all(rs.form[i][j] == rs.form[j][i] for i in range(rs.rank) for j in range(rs.rank))
    # the integer form is one positive multiple of the Fraction form
    scale = rs.norm[rs.roots[0]] / inner(rs.roots[0], rs.roots[0])
    assert scale > 0
    for beta in betas:
        assert rs.norm[beta] == scale * inner(beta, beta)
    for alpha in alphas:
        half = inner(alpha, alpha) / 2
        assert rs.coroot_coordinates(alpha) == tuple(m * d[i] / half for i, m in enumerate(alpha))
        for beta in betas:
            assert rs.cartan_integer(beta, alpha) == 2 * inner(beta, alpha) / inner(alpha, alpha)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                  "D4", "G2", "F4"])
def test_integer_form_matches_the_fraction_form_on_all_pairs(name):
    rs = build_root_system(name)
    _check_integer_form(rs, rs.roots, rs.roots)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_integer_form_matches_the_fraction_form_on_simple_roots(name):
    rs = build_root_system(name)
    simple = [tuple(1 if k == i else 0 for k in range(rs.rank)) for i in range(rs.rank)]
    _check_integer_form(rs, rs.roots, simple)


def _constant_pairs(rs):
    """((a, b), N(a, b)) for every ordered pair of roots whose sum is a root, sorted."""
    data = rs.constants
    return sorted(((a, b), data.n(a, b)) for a in rs.roots for b in rs.roots
                  if rs.is_root(rs.add(a, b)))


# sha256(repr(_constant_pairs(rs))), first 12 hex digits, recorded from the
# Fraction half-length computation of the constants.
CONSTANT_HASHES = {
    "A1": "4f53cda18c2b",
    "A2": "4636e3e332da",
    "A3": "184d8d4911c7",
    "B2": "8302d4963abf",
    "B3": "2527a053eff2",
    "C3": "68e4540d1bf4",
    "D4": "5d81068dd3f7",
    "G2": "3cda9ce9f13b",
    "F4": "dbe5ef284e31",
    "E6": "44ea2dfd1589",
    "E8": "037e8fb2794a",
}


@pytest.mark.parametrize("name,digest", sorted(CONSTANT_HASHES.items()))
def test_structure_constants_are_pinned(name, digest):
    pairs = _constant_pairs(build_root_system(name))
    assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:12] == digest


def test_constants_evaluate_the_form_once_per_root(monkeypatch):
    calls = 0
    form_row = RootSystem._form_row

    def counting_form_row(self, beta):
        nonlocal calls
        calls += 1
        return form_row(self, beta)

    monkeypatch.setattr(RootSystem, "_form_row", counting_form_row)
    rs = build_root_system("E7")
    assert any(rs.constants.table)
    assert calls <= len(rs.roots) + rs.rank


ALL_TYPES = [f"{family}{rank}" for family in "ABCDEFG" for rank in range(1, 9)
             if _root_count(family, rank)]


def _recursive_constants(rs):
    """The structure constants by recursion from each pair to the pairs it
    needs, memoised by root tuples: the extraspecial pair of each non-simple
    positive root, then every pair whose sum is a root.  Positive pairs use
    the four-term identity, mixed pairs the three-term rotation, negative
    pairs N(-a,-b) = -N(a,b)."""
    idx, norm = rs.root_index, rs.norm
    n_pos = len(rs.positive_roots)
    extraspecial = {}
    for gamma in rs.positive_roots:
        if sum(gamma) == 1:
            continue
        for alpha in rs.positive_roots:
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if beta in idx and idx[beta] < n_pos:
                extraspecial[gamma] = (alpha, beta)
                break
    pairs = {}

    def n(a, b):
        value = pairs.get((a, b))
        if value is None:
            if rs.add(a, b) not in idx:
                return 0
            value = pairs[(a, b)] = compute(a, b)
        return value

    def compute(a, b):
        a_pos, b_pos = idx[a] < n_pos, idx[b] < n_pos
        if a_pos and b_pos:
            if idx[a] > idx[b]:
                return -n(b, a)
            gamma = rs.add(a, b)
            first, second = extraspecial[gamma]
            if (a, b) == (first, second):
                return _root_string_down(rs, a, b) + 1
            na, nb = rs.negate(a), rs.negate(b)
            t1 = n(second, na) * n(first, nb)
            t2 = n(na, first) * n(second, nb)
            l1 = norm[rs.add(second, na)] if t1 else 1
            l2 = norm[rs.add(na, first)] if t2 else 1
            return _exact(norm[gamma] * (t1 * l2 + t2 * l1), l1 * l2 * n(first, second),
                          "constant", a, b)
        if not a_pos and not b_pos:
            return -n(rs.negate(a), rs.negate(b))
        if not a_pos:
            return -n(b, a)
        w = rs.add(a, b)
        c = rs.negate(w)
        if idx[w] < n_pos:
            return _exact(n(b, c) * norm[w], norm[a], "constant", a, b)
        return _exact(n(c, a) * norm[w], norm[b], "constant", a, b)

    for a in rs.roots:
        for b in rs.roots:
            n(a, b)
    return pairs, extraspecial


@pytest.mark.parametrize("name", ALL_TYPES)
def test_height_pass_matches_the_recursive_constants(name):
    rs = build_root_system(name)
    data = rs.constants
    pairs, extraspecial = _recursive_constants(build_root_system(name))
    assert [(a, b) for a in rs.roots for b in rs.roots
            if data.n(a, b) != pairs.get((a, b), 0)] == []
    assert list(data._extraspecial.items()) == list(extraspecial.items())


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "D4", "F4", "E6"])
def test_a_perturbed_norm_is_a_consistency_error(name):
    # the highest root's norm one too large makes a rotated constant non-integral
    for route in (lambda rs: rs.constants, _recursive_constants):
        rs = build_root_system(name)
        rs.norm[rs.positive_roots[-1]] += 1
        with pytest.raises(ConsistencyError, match="non-integral constant"):
            route(rs)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_norms_carried_through_the_closure_match_the_form(name):
    rs = build_root_system(name)
    for beta in rs.roots:
        assert rs.norm[beta] == sum(b * w for b, w in zip(beta, rs._form_row(beta)))


def _bracket(rs, i, vector):
    out = {}
    for k, c in vector.items():
        for m, b in bracket_coordinates(rs, i, k).items():
            out[m] = out.get(m, 0) + c * b
    return out


def _jacobi_defect(rs, x, y, z):
    total = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for m, v in _bracket(rs, a, bracket_coordinates(rs, b, c)).items():
            total[m] = total.get(m, 0) + v
    return {m: v for m, v in total.items() if v}


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4"])
def test_jacobi_identity_on_all_basis_triples(name):
    rs = build_root_system(name)
    for x, y, z in itertools.permutations(range(adjoint_dimension(rs)), 3):
        assert not _jacobi_defect(rs, x, y, z), (x, y, z)


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_jacobi_identity_on_seeded_triples(name):
    rs = build_root_system(name)
    rng = random.Random(f"jacobi-{name}")
    dim = adjoint_dimension(rs)
    for _ in range(3000):
        x, y, z = (rng.randrange(dim) for _ in range(3))
        assert not _jacobi_defect(rs, x, y, z), (x, y, z)


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


def brute_force_symmetries(rs):
    """Every permutation of the nodes that preserves the Cartan matrix, in
    lexicographic order: the oracle for the backtracking search."""
    return [DiagramSymmetry(perm) for perm in itertools.permutations(range(rs.rank))
            if _preserves_cartan(rs, perm)]


@pytest.mark.parametrize("name", TYPES_UP_TO_RANK_8)
def test_backtracking_symmetries_match_the_brute_force(name):
    rs = build_root_system(name)
    assert diagram_symmetries(rs) == brute_force_symmetries(rs)


@pytest.mark.parametrize("name", ["A58", "B42", "C42", "D42"])
def test_the_largest_admitted_types_build_at_the_default_cap(monkeypatch, name):
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    rs = build_root_system(name)
    assert len(rs.roots) == _root_count(rs.type.family, rs.rank)


@pytest.mark.parametrize("name, width, charge", [
    ("A59", 3599**2, 202388), ("B43", 3741**2, 218674), ("C43", 3741**2, 218674),
    ("D43", 3655**2, 208735), ("A60", 3720**2, 216225)])
def test_types_past_the_budget_are_a_resource_limit(monkeypatch, name, width, charge):
    # one adjoint element of width dim^2 counts ceil(dim^2 / 64) against the
    # cap, charged before anything is closed
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as raised:
        build_root_system(name)
    assert time.perf_counter() - start < 0.5
    assert str(raised.value) == (f"root system {name} exceeds closure cap 200000: "
                                 f"one adjoint element of width {width} counts {charge}")


def test_a_rank_past_the_digit_limit_prints_as_a_bound():
    # RootSystemType takes any int rank in-process; its messages still print
    huge = 10**5000
    with pytest.raises(DomainError, match=r"^no irreducible root system of type E>= 2\^16609$"):
        RootSystemType("E", huge)
    with pytest.raises(ResourceLimitError, match=r"^root system A>= 2\^16609 exceeds"):
        RootSystem(RootSystemType("A", huge))


def test_the_budget_follows_the_closure_cap(monkeypatch):
    # E6 has dimension 78 and counts 96; E7 has dimension 133 and counts 277
    monkeypatch.setenv("TCK_CLOSURE_CAP", "200")
    assert len(build_root_system("E6").roots) == 72
    with pytest.raises(ResourceLimitError, match="^root system E7 exceeds closure cap 200: "):
        build_root_system("E7")
    monkeypatch.setenv("TCK_CLOSURE_CAP", "not a number")
    with pytest.raises(DomainError, match="TCK_CLOSURE_CAP must be an integer"):
        build_root_system("A1")


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
    # swapping adjacent with non-adjacent nodes would map 0+1+1 outside the
    # system; the Cartan matrix check refuses the permutation first
    with pytest.raises(DomainError, match="not a diagram symmetry"):
        root_permutation(rs, DiagramSymmetry((1, 0, 2)))
    # (-1, 1, 0) would pass the Cartan check by wrapping to (2, 1, 0)
    for bad in ((-1, 1, 0), (0, 1, 5), (True, 0, 2)):
        with pytest.raises(DomainError, match="not a diagram symmetry"):
            root_permutation(rs, DiagramSymmetry(bad))
    for bad in ((1, 0, 2), DiagramSymmetry(5), DiagramSymmetry([2, 1, 0])):
        with pytest.raises(DomainError, match="^a DiagramSymmetry over a tuple"):
            root_permutation(rs, bad)


def extend_symmetry_to_roots(rs, symmetry, beta):
    """The linear extension of a diagram symmetry at one root, coordinate i
    moving to coordinate sigma(i): the oracle for ``root_permutation``."""
    image = [0] * rs.rank
    for i, c in enumerate(beta):
        image[symmetry.permutation[i]] = c
    return tuple(image)


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
    moved = {i for i in range(4) if sigma.permutation[i] != i}
    assert len(moved) == 3


def test_root_addition():
    rs = build_root_system("A2")
    a, b = rs.positive_roots[0], rs.positive_roots[1]
    total = rs.add(a, b)
    assert rs.is_root(total)
    with pytest.raises(DomainError):
        rs.check_root(tuple(2 * x for x in total))
