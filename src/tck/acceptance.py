"""Acceptance checks: one runnable criterion per numbered entry.

Each check recomputes its target values from scratch and returns a short
summary of what was measured; any mismatch raises.  The registry is shared
by the test suite and the `verify suite` command so both report the same
numbers.  Checks are deterministic: every randomized sweep uses a fixed
seed.
"""

import random
import time
from collections.abc import Callable
from fractions import Fraction
from math import gcd, prod

from .errors import ConsistencyError, DomainError, Record

# Each criterion imports the layers it runs, so one criterion loads only those.


class CriterionCheck(Record):
    number: int
    name: str
    budget_seconds: float
    runner: Callable[[], str]


class CriterionOutcome(Record):
    number: int
    name: str
    passed: bool
    details: str
    seconds: float
    budget_seconds: float

    @property
    def within_budget(self) -> bool:
        return self.seconds < self.budget_seconds


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Random integer matrix with determinant +-1, built from row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + rng.randrange(4)):
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            m[i] = [-a for a in m[i]]
    return m


def _require(condition, context="check failed"):
    """Raise ConsistencyError unless condition holds; unlike assert, this
    stays in force under python -O."""
    if not condition:
        raise ConsistencyError(context)


# Standard finite test groups; generators as in the twisted-module encodings.
_GROUPS = {
    "S3": ([(1, 0, 2), (1, 2, 0)], None),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], None),
    "D4": ([(1, 2, 3, 0), (3, 2, 1, 0)], None),
    "Q8": ([((0, 2), (1, 0)), ((1, 1), (1, 2))], 3),
    "SL(2,3)": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 3),
}


def _group(name):
    from .twisted import closure

    generators, modulus = _GROUPS[name]
    return closure(generators, modulus=modulus)


def _a1_mod3():
    from .chevalley import reduce_mod_p, x_alpha
    from .roots import build_root_system
    from .twisted import closure

    a1 = build_root_system("A1")
    gens = [
        tuple(tuple(r) for r in reduce_mod_p(x_alpha(a1, (1,), 1), 3)),
        tuple(tuple(r) for r in reduce_mod_p(x_alpha(a1, (-1,), 1), 3)),
    ]
    return closure(gens, modulus=3)


def _check_integer_spectrum() -> str:
    from .spectrum import INFINITY, reidemeister_zn

    # The only automorphisms of Z are +-identity.
    flip = reidemeister_zn([[-1]])
    same = reidemeister_zn([[1]])
    _require(flip == 2, flip)
    _require(same == INFINITY, same)
    return "R(-id) = 2, R(id) = infinity"


def _check_zn_fullness() -> str:
    from .linalg import int_det
    from .spectrum import reidemeister_zn, zn_fullness_witness

    for m in range(1, 51):
        w = zn_fullness_witness(2, m)
        _require(int_det(w) in (1, -1), (m, w))
        r = reidemeister_zn(w)
        _require(r == m, (m, r))
        shifted = [[w[i][j] - int(i == j) for j in range(2)] for i in range(2)]
        _require(abs(int_det(shifted)) == m, (m, shifted))
    return "every m in 1..50 realized on Z^2, determinant route agrees"


def _check_abelian_oracle() -> str:
    from .spectrum import abelian_oracle_count, cokernel_order_mod

    rng = random.Random(20260823)
    compared = 0
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        m_mat = random_unimodular(rng, n)
        shifted = [[m_mat[i][j] - int(i == j) for j in range(n)] for i in range(n)]
        for m in range(2, 7):
            brute = abelian_oracle_count(m_mat, m)
            formula = cokernel_order_mod(shifted, m)
            _require(brute == formula, (m_mat, m, brute, formula))
            compared += 1
    return f"{compared} brute-force/cokernel comparisons agree"


def _check_inner_twist_invariance() -> str:
    from .twisted import GroupAutomorphism, all_automorphisms, inner_twist_invariance

    checked = 0
    for group in (_group("S4"), _group("D4"), _group("SL(2,3)"), _a1_mod3()):
        identity = GroupAutomorphism.identity(group)
        for g in group.elements:
            _require(inner_twist_invariance(group, identity, g))
            checked += 1
    d4 = _group("D4")
    for phi in all_automorphisms(d4):
        for g in d4.elements:
            _require(inner_twist_invariance(d4, phi, g))
            checked += 1
    return f"{checked} inner twists leave R unchanged"


def _check_isogredience_counts() -> str:
    from .twisted import GroupAutomorphism, all_automorphisms, isogredience_count

    measured = {}
    for label, group in (("Q8", _group("Q8")), ("D4", _group("D4")), ("SL(2,3)", _group("SL(2,3)"))):
        for phi in all_automorphisms(group):
            result = isogredience_count(group, phi)  # dual-route checked inside
            if phi == GroupAutomorphism.identity(group):
                measured[label] = result.count
    _require(measured["Q8"] == 4, measured)
    _require(measured["SL(2,3)"] == 4, measured)
    return (f"S(id): Q8 = {measured['Q8']}, D4 = {measured['D4']}, "
            f"SL(2,3) = {measured['SL(2,3)']}; all automorphism routes agree")


def _check_projection_inequality() -> str:
    from .twisted import (GroupAutomorphism, center, induced_reidemeister_number,
                          reidemeister_number, subgroup)

    s4 = _group("S4")
    v4 = subgroup(s4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    instances = []
    for group in (_group("S3"), _group("Q8"), _group("D4"), _group("SL(2,3)")):
        instances.append((group, center(group)))
        instances.append((group, group.elements))
    instances.append((s4, v4))
    instances.append((s4, s4.elements))
    checked = 0
    for group, normal in instances:
        twists = [GroupAutomorphism.identity(group),
                  GroupAutomorphism.inner(group, group.elements[-1])]
        for phi in twists:
            upstairs = reidemeister_number(group, phi)
            downstairs = induced_reidemeister_number(group, normal, phi)
            _require(upstairs >= downstairs, (len(group), len(normal), upstairs, downstairs))
            checked += 1
    return f"{len(instances)} (G, N) instances, {checked} projections satisfy R >= R-bar"


_PARAMS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _check_chevalley_relations() -> str:
    from .chevalley import commutator_relation_check, h_alpha, x_alpha
    from .linalg import mat_inv, mat_mul
    from .roots import build_root_system

    relations = 0
    for name in ("A1", "A2", "A3", "B2", "G2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in _PARAMS:
                for u in _PARAMS:
                    left = mat_mul(x_alpha(rs, alpha, t), x_alpha(rs, alpha, u))
                    _require(left == x_alpha(rs, alpha, t + u))
                    prod = mat_mul(h_alpha(rs, alpha, t), h_alpha(rs, alpha, u))
                    _require(prod == h_alpha(rs, alpha, t * u))
                    relations += 2
        for alpha in rs.roots:
            h = h_alpha(rs, alpha, Fraction(2))
            h_inverse = mat_inv(h)
            for beta in rs.roots:
                weight = Fraction(2) ** rs.cartan_integer(beta, alpha)
                for u in (Fraction(1), Fraction(1, 2)):
                    conjugated = mat_mul(mat_mul(h, x_alpha(rs, beta, u)), h_inverse)
                    _require(conjugated == x_alpha(rs, beta, weight * u))
                    relations += 1
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta == alpha or beta == rs.negate(alpha):
                    continue
                for t in _PARAMS:
                    for u in _PARAMS:
                        _require(commutator_relation_check(rs, alpha, beta, t, u))
                        relations += 1
    return f"{relations} relations verified over A1, A2, A3, B2, G2"


def _check_torus_diagonal_form() -> str:
    from .chevalley import h_alpha, n_alpha
    from .linalg import diagonal_entries, mat_mul
    from .roots import build_root_system

    checked = 0
    for name in ("A1", "A2", "A3", "B2", "G2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(2), Fraction(1, 2), Fraction(-3)):
                h = h_alpha(rs, alpha, t)
                diag = diagonal_entries(h)
                expected = [t ** rs.cartan_integer(beta, alpha) for beta in rs.roots]
                expected += [Fraction(1)] * rs.rank
                _require(all(h[i][j] == 0 for i in range(len(h)) for j in range(len(h)) if i != j))
                _require(diag == expected, (name, alpha, t))
                # Independent route: the dense product n_alpha(t) n_alpha(-1).
                dense = mat_mul(n_alpha(rs, alpha, t), n_alpha(rs, alpha, Fraction(-1)))
                _require(h == dense, (name, alpha, t))
                checked += 1
    a1 = build_root_system("A1")
    sample = diagonal_entries(h_alpha(a1, (1,), Fraction(2)))
    _require(sample == [Fraction(4), Fraction(1, 4), Fraction(1)], sample)
    return f"{checked} torus matrices diagonal with character entries; A1 sample diag(4, 1/4, 1)"


def _check_witness_disjointness() -> str:
    from .chevalley import ChevalleyAutomorphism, n_alpha
    from .fields import exponent_vector, supports_pairwise_disjoint
    from .linalg import diagonal_entries, is_diagonal, mat_mul, mat_product
    from .roots import build_root_system, diagram_symmetries
    from .witness import ProductAutomorphism, generate_witnesses, project_product_to_first_factor

    cases = []
    for name, order in (("A2", None), ("A3", 2), ("B2", None), ("D4", 3)):
        rs = build_root_system(name)
        symmetry = None
        if order is not None:
            symmetry = next(s for s in diagram_symmetries(rs) if s.order == order)
        cases.append((name, rs, symmetry))
    for name, rs, symmetry in cases:
        witnesses = generate_witnesses(rs, 6)
        root_count = len(rs.roots)
        simple = [tuple(int(j == t) for j in range(rs.rank)) for t in range(rs.rank)]
        # Every entry is a product of its own block's primes and the blocks
        # share no prime, so supports are disjoint across witnesses.
        _require(supports_pairwise_disjoint(prod(block) for block in witnesses.primes), name)
        phi = ChevalleyAutomorphism(rs, graph=symmetry)
        # The certificate's input: the pairing rows and their six-step collapse.
        collapsed = project_product_to_first_factor(ProductAutomorphism([phi], (0,)),
                                                    witnesses).exponents
        _require(all(map(any, collapsed)), name)
        for block in witnesses.primes:
            # Matrix route: the product of h_alpha(p) = n_alpha(p) n_alpha(-1)
            # is a torus matrix whose root entries have the pairing rows as
            # exponent vectors over the block, and iterating phi.apply on its
            # scaled rows gives the collapse.
            g = mat_product([n_alpha(rs, alpha, q)
                             for alpha, p in zip(simple, block)
                             for q in (Fraction(p), Fraction(-1))])
            acc = current = g
            for _ in range(5):
                current = phi.apply(current)
                acc = mat_mul(acc, current)
            for matrix, rows in ((g, rs.pairings), (acc, collapsed)):
                entries = diagonal_entries(matrix)
                roots = entries[:root_count]
                _require(is_diagonal(matrix) and entries[root_count:] == [1] * rs.rank
                         and all(a > 0 for a in roots), name)
                _require([exponent_vector(a, block) for a in roots] == list(map(list, rows)),
                         name)
    return "6 witnesses for A2, A3(rev), B2, D4(ord-3): entry and product supports disjoint"


def _check_telescoping_identity() -> str:
    from .twisted import GroupAutomorphism, telescoping_product_check

    rng = random.Random(97)
    pools = []
    for group in (_group("S3"), _group("D4"), _group("Q8"), _a1_mod3()):
        automorphisms = [GroupAutomorphism.identity(group)]
        automorphisms += [GroupAutomorphism.inner(group, g) for g in group.elements[:4]]
        pools.append((group, automorphisms))
    for _ in range(1000):
        group, automorphisms = pools[rng.randrange(len(pools))]
        phi = automorphisms[rng.randrange(len(automorphisms))]
        y = group.elements[rng.randrange(len(group))]
        z = group.elements[rng.randrange(len(group))]
        m = rng.randint(1, 8)
        _require(telescoping_product_check(group, phi, y, z, m))
    return "1000 randomized telescoping instances hold"


def _check_obstruction_certificate() -> str:
    from .chevalley import ChevalleyAutomorphism
    from .fields import ScalingAutomorphism
    from .roots import build_root_system, diagram_symmetries
    from .witness import (ProductAutomorphism, generate_witnesses, obstruction_check,
                          pattern_determinant, project_product_to_first_factor,
                          reduced_obstruction_check)

    scale = ScalingAutomorphism((Fraction(2),))
    parts = []

    a2 = build_root_system("A2")
    witnesses = generate_witnesses(a2, 6)
    certificate = obstruction_check(a2, witnesses, None, scale, 3)
    _require(certificate.verdict == "obstructed", certificate.uncertified[:4])
    expected = (len(a2.roots) + a2.rank) * len(a2.roots)
    _require(len(certificate.entries) == expected, len(certificate.entries))
    _require(not pattern_determinant(certificate))
    parts.append(f"A2: {len(certificate.entries)} certified")

    a3 = build_root_system("A3")
    reversal = next(s for s in diagram_symmetries(a3) if s.order == 2)
    witnesses3 = generate_witnesses(a3, 6)
    certificate3 = obstruction_check(a3, witnesses3, reversal, scale, 3)
    _require(certificate3.verdict == "obstructed")
    expected3 = (len(a3.roots) + a3.rank) * len(a3.roots)
    _require(len(certificate3.entries) == expected3)
    _require(not pattern_determinant(certificate3))
    parts.append(f"A3 reversal: {len(certificate3.entries)} certified")

    factor = ChevalleyAutomorphism(a2, field=scale)
    product = ProductAutomorphism([factor, factor], (1, 0))
    reduction = project_product_to_first_factor(product, witnesses)
    reduced = reduced_obstruction_check(reduction, 3)
    _require(reduced.verdict == "obstructed")
    _require(len(reduced.entries) == expected)
    _require(not pattern_determinant(reduced))
    parts.append(f"swap product: {len(reduced.entries)} certified")
    return "; ".join(parts) + "; pattern determinants all 0"


def _check_heisenberg_spectrum() -> str:
    from .linalg import int_det
    from .spectrum import (INFINITY, ExtendedCount, heisenberg_cokernel_product, heisenberg_oracle,
                            heisenberg_reidemeister)

    rng = random.Random(5)
    finite = 0
    candidates = [[[0, 1], [1, 1]], [[2, 1], [1, 1]], [[1, 2], [2, 3]]]
    for _ in range(20):
        matrix = random_unimodular(rng, 2)
        count = heisenberg_reidemeister(matrix)
        if count != INFINITY:
            _require(count.value % 2 == 0, (matrix, count))
            finite += 1
        candidates.append(matrix)
    compared = 0
    for matrix in candidates:
        shifted = [[matrix[i][j] - int(i == j) for j in range(2)] for i in range(2)]
        for m in range(2, 9):
            # The cokernel identity presumes the translation action is
            # invertible mod m; comparisons outside that regime (or where no
            # automorphism of the mod-m group exists) are skipped.
            if gcd(int_det(shifted), m) != 1:
                continue
            try:
                brute = heisenberg_oracle(matrix, m)
            except DomainError:
                continue
            _require(brute == heisenberg_cokernel_product(matrix, m), (matrix, m))
            compared += 1
    _require(compared >= 12, compared)
    fixed = heisenberg_reidemeister([[0, 1], [1, 1]])
    _require(fixed == ExtendedCount(2) and fixed.value % 2 == 0)
    return (f"{finite} finite values all even; {compared} oracle/cokernel "
            "comparisons agree; [[0,1],[1,1]] gives 2")


def _check_metabelian_table() -> str:
    from .spectrum import INFINITY, metabelian_spectrum

    case_a = metabelian_spectrum(Fraction(1), Fraction(1), 3)
    _require(case_a.case == "equal-units")
    _require(case_a.contains(4) and not case_a.contains(6))
    case_c = metabelian_spectrum(Fraction(2), Fraction(1, 2), 2)
    _require(case_c.case == "reciprocal-pair")
    _require(case_c.contains(6) and case_c.contains(4) and not case_c.contains(8))
    case_d = metabelian_spectrum(Fraction(5), Fraction(25), 5)
    _require(case_d.case == "generic")
    _require(case_d.contains(INFINITY))
    _require(not any(case_d.contains(v) for v in range(1, 30)))
    return ("p=3 equal-units: 4 in, 6 out; p=2 reciprocal-pair: 6 in, 4 in, 8 out; "
            "generic: only infinity")


def all_checks() -> tuple[CriterionCheck, ...]:
    return (
        CriterionCheck(1, "integer-spectrum", 1.0, _check_integer_spectrum),
        CriterionCheck(2, "zn-fullness", 5.0, _check_zn_fullness),
        CriterionCheck(3, "abelian-oracle", 30.0, _check_abelian_oracle),
        CriterionCheck(4, "inner-twist-invariance", 60.0, _check_inner_twist_invariance),
        CriterionCheck(5, "isogredience-counts", 60.0, _check_isogredience_counts),
        CriterionCheck(6, "projection-inequality", 30.0, _check_projection_inequality),
        CriterionCheck(7, "chevalley-relations", 60.0, _check_chevalley_relations),
        CriterionCheck(8, "torus-diagonal-form", 5.0, _check_torus_diagonal_form),
        CriterionCheck(9, "witness-disjointness", 60.0, _check_witness_disjointness),
        CriterionCheck(10, "telescoping-identity", 60.0, _check_telescoping_identity),
        CriterionCheck(11, "obstruction-certificate", 120.0, _check_obstruction_certificate),
        CriterionCheck(12, "heisenberg-spectrum", 60.0, _check_heisenberg_spectrum),
        CriterionCheck(13, "metabelian-table", 1.0, _check_metabelian_table),
    )


def run_check(check: CriterionCheck) -> CriterionOutcome:
    start = time.perf_counter()
    try:
        details = check.runner()
        passed = True
    except Exception as failure:  # report, never crash the suite
        details = f"{type(failure).__name__}: {failure}"
        passed = False
    elapsed = time.perf_counter() - start
    return CriterionOutcome(check.number, check.name, passed, details,
                            elapsed, check.budget_seconds)


def run_suite(name_filter: str | None = None) -> list[CriterionOutcome]:
    checks = all_checks()
    if name_filter is not None:
        checks = tuple(c for c in checks if name_filter in c.name)
    return [run_check(c) for c in checks]
