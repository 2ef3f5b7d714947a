"""Adjoint Chevalley generators and the four-part automorphism."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from tck import (
    ChevalleyAutomorphism,
    ConsistencyError,
    DomainError,
    Polynomial,
    ScalingAutomorphism,
    RationalFunction,
    adjoint_dimension,
    build_root_system,
    commutator_factors,
    commutator_relation_check,
    diagram_symmetries,
    extend_symmetry_to_roots,
    h_alpha,
    n_alpha,
    reduce_mod_p,
    x_alpha,
)
import tck.chevalley
from tck.chevalley import (
    GraphMatrixRealization,
    _exp_entries,
    _scaled_x_alpha,
    bracket_coordinates,
)
from tck.fields import apply_scaling
from tck.linalg import (
    ScaledMatrix,
    diagonal_entries,
    is_diagonal,
    mat_inv,
    mat_mul,
    mat_product,
)

from dense_oracle import dense_mul, dense_product, identity

SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5))
T = RationalFunction.variable(1, 0)


@pytest.fixture
def no_dense_view(monkeypatch):
    """Forbid the dense view: what runs under it reads the scaled rows only."""
    def forbidden(*args):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ScaledMatrix, "dense", forbidden)


def test_adjoint_dimensions():
    assert adjoint_dimension(build_root_system("A1")) == 3
    assert adjoint_dimension(build_root_system("A2")) == 8
    assert adjoint_dimension(build_root_system("G2")) == 14
    assert adjoint_dimension(build_root_system("D4")) == 28


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_root_group_additivity(name):
    rs = build_root_system(name)
    for alpha in rs.roots:
        for t in SCALARS:
            for u in (Fraction(3), Fraction(-1, 2)):
                assert (mat_mul(x_alpha(rs, alpha, t), x_alpha(rs, alpha, u))
                        == x_alpha(rs, alpha, t + u))
    assert x_alpha(rs, rs.roots[0], 0) == identity(adjoint_dimension(rs))


def test_bool_parameter_is_unsupported():
    # bool is an int subclass, so an int check alone would read True as 1
    rs = build_root_system("A1")
    with pytest.raises(DomainError, match="unsupported scalar"):
        x_alpha(rs, rs.roots[0], True)


def _dense_exponential(rs, alpha, t):
    """exp(t ad e_alpha) from the dense ad matrix and its powers."""
    dim = adjoint_dimension(rs)
    a = rs.root_index[alpha]
    ad = [[Fraction(0)] * dim for _ in range(dim)]
    for j in range(dim):
        for i, c in bracket_coordinates(rs, a, j).items():
            ad[i][j] = c
    result = identity(dim)
    power, k, factorial = ad, 1, 1
    while any(x for row in power for x in row):
        term = t**k / factorial
        for i in range(dim):
            for j in range(dim):
                if power[i][j]:
                    result[i][j] = result[i][j] + power[i][j] * term
        power = dense_mul(power, ad)
        k += 1
        factorial *= k
    return result


def test_sparse_exponential_matches_dense_route():
    # x_alpha reads its terms off the bracket table column by column; the
    # reference exponentiates the dense ad e_alpha until a power vanishes
    field_parameters = [T * a + b for a in (1, -2, Fraction(1, 2)) for b in (0, 1, Fraction(-1, 3))]
    for n, name in enumerate(("A1", "A2", "A3", "B2", "G2", "B3", "C3", "D4")):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(3, 2), field_parameters[n]):
                dense = _dense_exponential(rs, alpha, t)
                sparse = x_alpha(rs, alpha, t)
                assert sparse == dense, (name, alpha, t)


def test_chevalley_layer_keeps_no_root_system_alive():
    rs = build_root_system("A3")
    alpha = rs.positive_roots[0]
    x_alpha(rs, alpha, Fraction(2))
    h_alpha(rs, alpha, Fraction(3))
    ChevalleyAutomorphism(rs, graph=next(s for s in diagram_symmetries(rs) if s.order > 1))
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_torus_multiplicativity(name):
    rs = build_root_system(name)
    for alpha in rs.positive_roots:
        for t in SCALARS:
            for u in (Fraction(2), Fraction(-1, 3)):
                assert (mat_mul(h_alpha(rs, alpha, t), h_alpha(rs, alpha, u))
                        == h_alpha(rs, alpha, t * u))
        assert h_alpha(rs, alpha, 1) == identity(adjoint_dimension(rs))


def test_torus_matrices_are_diagonal_characters():
    rs = build_root_system("A2")
    alpha = rs.positive_roots[0]
    h = h_alpha(rs, alpha, Fraction(5))
    assert is_diagonal(h)
    entries = diagonal_entries(h)
    for i, beta in enumerate(rs.roots):
        assert entries[i] == Fraction(5) ** rs.cartan_integer(beta, alpha)
    for k in range(len(rs.roots), adjoint_dimension(rs)):
        assert entries[k] == 1


def test_torus_closed_form_matches_dense_route():
    # h_alpha is built as its diagonal; n_alpha(t) n_alpha(-1) is the dense
    # reference, over Q and over Q(T) with parameters a*T + b
    field_parameters = [T * a + b for a in (1, -2, Fraction(1, 2)) for b in (0, 1, Fraction(-1, 3))]
    cases = 0
    for name in ("A1", "A2", "A3", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(3), Fraction(-2, 5), field_parameters[cases % len(field_parameters)]):
                h = h_alpha(rs, alpha, t)
                dense = mat_mul(n_alpha(rs, alpha, t), n_alpha(rs, alpha, Fraction(-1)))
                assert h == dense, (name, alpha, t)
            cases += 1
    assert cases == 76


def _dense_torus(rs, alpha, t):
    """diag(t^<beta, alpha^v>) at the roots and 1 on the Cartan block, dense."""
    out = identity(adjoint_dimension(rs))
    for i, beta in enumerate(rs.roots):
        out[i][i] = t ** rs.cartan_integer(beta, alpha)
    return out


FUNCTION_FIELD_PARAMETERS = (T * 2 + 1, T / 2 + Fraction(1, 3), 1 / (T + 1),
                             (T * T + 3) / (T * 2 - 5))


def test_function_field_torus_is_scaled_in_int_polynomials():
    # h_alpha(p/q) is p^(K+k) q^(K-k) over (pq)^K in Z[T]; the dense t^k
    # diagonal is the reference
    for name in ("A1", "A2", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in FUNCTION_FIELD_PARAMETERS:
                h = h_alpha(rs, alpha, t)
                assert isinstance(h, ScaledMatrix) and isinstance(h.den, Polynomial)
                values = (h.den, *(v for row in h.rows for v in row.values()))
                assert all(type(c) is int for f in values for c in f.terms.values())
                dense = _dense_torus(rs, alpha, t)
                assert h == dense and dense == h, (name, alpha, t)


def test_function_field_conjugation_builds_no_dense_view(no_dense_view):
    # h x h^-1 == x_alpha(weight) over Q(T) multiplies, inverts and compares
    # the scaled rows only
    rs = build_root_system("G2")
    pairs = ((rs.roots[0], rs.roots[1]), (rs.roots[5], rs.roots[8]), (rs.roots[2], rs.roots[2]))
    for alpha, beta in pairs:
        for t in FUNCTION_FIELD_PARAMETERS:
            u = Fraction(-3, 2)
            weight = t ** rs.cartan_integer(beta, alpha) * u
            h = h_alpha(rs, alpha, t)
            conjugated = mat_mul(mat_mul(h, x_alpha(rs, beta, u)), mat_inv(h))
            assert conjugated == x_alpha(rs, beta, weight)
            assert conjugated != x_alpha(rs, beta, weight + 1)


def test_weight_conjugation():
    rs = build_root_system("B2")
    for alpha in rs.positive_roots[: rs.rank]:
        h = h_alpha(rs, alpha, Fraction(3))
        h_inv = h_alpha(rs, alpha, Fraction(1, 3))
        for beta in rs.roots:
            expected = x_alpha(
                rs, beta, Fraction(3) ** rs.cartan_integer(beta, alpha) * Fraction(1, 2)
            )
            got = mat_mul(mat_mul(h, x_alpha(rs, beta, Fraction(1, 2))), h_inv)
            assert got == expected


def test_weyl_conjugation_permutes_root_groups():
    rs = build_root_system("A2")
    alpha = rs.positive_roots[0]
    n = n_alpha(rs, alpha, Fraction(1))
    n_inv = n_alpha(rs, alpha, Fraction(-1))
    for beta in rs.roots:
        conj = mat_mul(mat_mul(n, x_alpha(rs, beta, Fraction(2))), n_inv)
        # image is x over the reflected root with the same magnitude
        reflected = tuple(
            b - rs.cartan_integer(beta, alpha) * a for a, b in zip(alpha, beta)
        )
        options = [x_alpha(rs, reflected, Fraction(2)), x_alpha(rs, reflected, Fraction(-2))]
        assert any(conj == option for option in options)
    with pytest.raises(DomainError):
        n_alpha(rs, alpha, 0)
    with pytest.raises(DomainError):
        h_alpha(rs, alpha, 0)


def test_commutator_relation_across_types():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, rs.negate(alpha)):
                    continue
                assert commutator_relation_check(rs, alpha, beta, Fraction(2), Fraction(1, 3))


def test_commutator_relation_g2_samples():
    rs = build_root_system("G2")
    rng = random.Random(2)
    pairs = [
        (a, b) for a in rs.roots for b in rs.roots if b not in (a, rs.negate(a))
    ]
    for a, b in rng.sample(pairs, 20):
        assert commutator_relation_check(rs, a, b, Fraction(-1), Fraction(2))


def test_commutator_factors_shape():
    rs = build_root_system("A2")
    a, b = rs.positive_roots[0], rs.positive_roots[1]
    factors = commutator_factors(rs, a, b)
    assert [(gamma, i, j) for gamma, i, j, _ in factors] == [(rs.add(a, b), 1, 1)]
    assert factors[0][3] in (Fraction(1), Fraction(-1))
    with pytest.raises(DomainError):
        commutator_factors(rs, a, a)
    with pytest.raises(DomainError):
        commutator_factors(rs, a, rs.negate(a))


def test_g2_commutator_reaches_depth_three():
    rs = build_root_system("G2")
    simple = rs.positive_roots[: rs.rank]
    degrees = {
        (i, j) for a in simple for b in simple if a != b
        for _, i, j, _ in commutator_factors(rs, a, b)
    }
    assert (3, 1) in degrees or (1, 3) in degrees


CRITERION_PARAMETERS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _drawn_rational(rng):
    return Fraction(rng.choice([p for p in range(-9, 10) if p]), rng.randrange(1, 8))


def test_integer_factor_matches_x_alpha():
    # x_alpha(p/q) = M / q^K with M integral; the dense exponential is the reference
    rng = random.Random(14)
    for name in ("A1", "A2", "A3", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        dim = adjoint_dimension(rs)
        for alpha in rs.roots:
            entries = _exp_entries(rs, alpha)
            assert all(type(c) is int for _, _, c, _ in entries)
            depth = max(k for _, _, _, k in entries)
            for t in (*CRITERION_PARAMETERS, _drawn_rational(rng), _drawn_rational(rng)):
                factor = _scaled_x_alpha(rs, alpha, t)
                rows, d = factor.rows, factor.den
                assert d == t.denominator**depth
                assert all(type(v) is int for row in rows for v in row.values())
                scaled = [[Fraction(row.get(j, 0), d) for j in range(dim)] for row in rows]
                assert scaled == _dense_exponential(rs, alpha, t), (name, alpha, t)


def test_n_alpha_matches_dense_exponential_product():
    # n_alpha is one sparse product; the reference multiplies three dense exponentials
    rng = random.Random(26)
    for name in ("A1", "A2", "A3", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            field = T * rng.choice((1, -2, Fraction(1, 2))) + rng.choice((0, 1, Fraction(-1, 3)))
            for t in (_drawn_rational(rng), field):
                dense = dense_product([_dense_exponential(rs, alpha, t),
                                       _dense_exponential(rs, rs.negate(alpha), -(1 / t)),
                                       _dense_exponential(rs, alpha, t)])
                assert n_alpha(rs, alpha, t) == dense, (name, alpha, t)
        for zero in (0, Fraction(0), T * 0):
            with pytest.raises(DomainError, match="t != 0"):
                n_alpha(rs, alpha, zero)


def _two_term_parameters():
    """Quotients with non-integral coefficients over two-term denominators."""
    return (T + 1) / (T * 3 + Fraction(1, 3)), 3 / (T + 5)


def test_generators_at_two_term_parameters_match_the_dense_exponential():
    # the scaled rows clear the coefficient denominators of t = p/q; the
    # dense exponential at t itself is the reference
    for name in ("A1", "A2", "A3", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in _two_term_parameters():
                x = _dense_exponential(rs, alpha, t)
                minus = _dense_exponential(rs, rs.negate(alpha), -(1 / t))
                assert x_alpha(rs, alpha, t) == x, (name, alpha, t)
                assert n_alpha(rs, alpha, t) == dense_product([x, minus, x]), (name, alpha, t)


def _dense_commutator_check(rs, alpha, beta, t, u, factors):
    """The commutator relation from dense Fraction matrices, for given factors."""
    def dense(gamma, s):
        return list(x_alpha(rs, gamma, s))

    left = dense_product([dense(beta, -u), dense(alpha, -t), dense(beta, u), dense(alpha, t)])
    right = dense_product(
        [dense(gamma, c * (-t) ** i * u**j) for gamma, i, j, c in factors]
        or [identity(adjoint_dimension(rs))]
    )
    return left == right


def _parameter_kinds(rng):
    """One (t, u) pair of each kind: both rational; t = aT + b with u
    rational; both in Q(T); both in Q(T1, T2); a zero parameter; and two
    quotients with two-term denominators, fixed and drawn."""
    T1, T2 = RationalFunction.variable(2, 0), RationalFunction.variable(2, 1)

    def q():
        return _drawn_rational(rng)

    return [
        (q(), q()),
        (T * q() + q(), q()),
        (T * q() + q(), q() / T),
        (T1 * q(), (T2 + q()) / T1),
        (T - T, T * q() + q()),
        _two_term_parameters(),
        ((T * q() + q()) / (T * q() + q()), q() / (T + q())),
    ]


def test_integer_commutator_route_matches_the_dense_route():
    # every G2 pair and a seeded sample of B3 and C3 pairs, the parameter
    # kind running through _parameter_kinds
    rng = random.Random(21)
    for name, sample in (("G2", None), ("B3", 15), ("C3", 15)):
        rs = build_root_system(name)
        pairs = [(alpha, beta) for alpha in rs.roots for beta in rs.roots
                 if beta not in (alpha, rs.negate(alpha))]
        if sample is not None:
            pairs = rng.sample(pairs, sample)
        for n, (alpha, beta) in enumerate(pairs):
            kinds = _parameter_kinds(rng)
            t, u = kinds[n % len(kinds)]
            factors = commutator_factors(rs, alpha, beta)
            dense = _dense_commutator_check(rs, alpha, beta, t, u, factors)
            assert commutator_relation_check(rs, alpha, beta, t, u) == dense
            assert dense, (name, alpha, beta, t, u)


def test_perturbed_commutator_constant_fails_on_both_routes(monkeypatch):
    rs = build_root_system("G2")
    a, b = rs.positive_roots[: rs.rank]
    factors = commutator_factors(rs, a, b)
    assert len(factors) == 4
    kinds = [(Fraction(2), Fraction(-1, 3)), (T * 2 - 1, Fraction(3) / (T + Fraction(1, 2))),
             *_parameter_kinds(random.Random(22))]
    for t, u in kinds:
        # at a zero parameter every factor on the right is 1, whatever its constant
        holds = not (t and u)
        for position, (gamma, i, j, c) in enumerate(factors):
            perturbed = list(factors)
            perturbed[position] = (gamma, i, j, c + 1)
            monkeypatch.setattr(tck.chevalley, "commutator_factors", lambda *_, f=perturbed: f)
            assert commutator_relation_check(rs, a, b, t, u) == holds, (t, u, position)
            assert _dense_commutator_check(rs, a, b, t, u, perturbed) == holds


@pytest.mark.parametrize("name, pair", [("G2", (0, 1)), ("A3", (0, 2))])
def test_commutator_check_over_mixed_variable_counts_is_a_domain_error(name, pair):
    # with commutator factors (G2) and without (A3's commuting simple roots)
    rs = build_root_system(name)
    a, b = (rs.positive_roots[k] for k in pair)
    assert bool(commutator_factors(rs, a, b)) == (name == "G2")
    t = RationalFunction.variable(1, 0) + 1
    u = RationalFunction.variable(2, 1) * 3
    with pytest.raises(DomainError):
        commutator_relation_check(rs, a, b, t, u)


def test_non_integral_exp_coefficient_is_a_consistency_error(monkeypatch):
    original = tck.chevalley.bracket_coordinates

    def halved(rs, i, j):
        return {k: c / 2 for k, c in original(rs, i, j).items()}

    monkeypatch.setattr(tck.chevalley, "bracket_coordinates", halved)
    rs = build_root_system("A2")  # fresh, so its exp table is built under the patch
    with pytest.raises(ConsistencyError, match="is not integral"):
        x_alpha(rs, rs.positive_roots[0], Fraction(1))


@pytest.mark.parametrize("collision", ["repeated", "diagonal"])
def test_colliding_exp_terms_are_a_consistency_error(monkeypatch, collision):
    # x_alpha assigns each term to its own position, so the table must refuse
    # a second term at one position and a term on the diagonal
    original = tck.chevalley.bracket_coordinates

    def colliding(rs, i, j):
        coords = original(rs, i, j)
        m = len(rs.roots)
        if coords and i < m and (j >= m if collision == "repeated" else j < m):
            # repeated: [e_alpha, h] gains a component along h itself, so the
            # column of e_{-alpha} meets h at k = 1 and again at k = 2;
            # diagonal: [e_alpha, e_beta] gains a component along e_beta
            coords = {**coords, j: Fraction(2 if collision == "repeated" else 1)}
        return coords

    monkeypatch.setattr(tck.chevalley, "bracket_coordinates", colliding)
    rs = build_root_system("A2")  # fresh, so its exp table is built under the patch
    alpha = rs.positive_roots[0]
    h, minus = len(rs.roots) + alpha.index(1), rs.root_index[rs.negate(alpha)]
    # in A2, the first column with a nonzero [e_alpha, e_beta] is beta = roots[1]
    position = (h, minus) if collision == "repeated" else (1, 1)
    with pytest.raises(ConsistencyError, match=rf"term at \({position[0]}, {position[1]}\)"):
        x_alpha(rs, alpha, Fraction(1))


def test_rational_commutator_check_multiplies_no_dense_matrix(monkeypatch, no_dense_view):
    # over Q and over Q(T) alike the check, x_alpha and n_alpha run on scaled
    # sparse rows, and the check never builds a dense view
    rs = build_root_system("C3")
    a, b = rs.positive_roots[1], rs.positive_roots[2]
    assert commutator_factors(rs, a, b)

    def forbidden(*args):
        raise AssertionError("dense route used")

    monkeypatch.setattr(tck.chevalley, "x_alpha", forbidden)
    for t, u in ((Fraction(2), Fraction(-1, 3)), (T * 2 + 1, Fraction(-1, 3)), (T * 2 + 1, 1 / T)):
        assert commutator_relation_check(rs, a, b, t, u)
        for s in (t, u):
            for build in (x_alpha, n_alpha):
                assert len(build(rs, a, s)) == adjoint_dimension(rs)


def test_rational_relations_build_no_fraction(monkeypatch, no_dense_view):
    # the four relation shapes that criterion 7 and the relations benchmark
    # run over Q pass on scaled rows, with the dense view forbidden and no
    # Fraction built beyond the commutator's own scalar parameters
    rs = build_root_system("G2")
    alpha, beta = rs.positive_roots[0], rs.positive_roots[1]
    factors = commutator_factors(rs, alpha, beta)
    assert factors
    t, u = Fraction(-3, 2), Fraction(5, 4)
    s, w = t + u, t * u
    weight = t ** rs.cartan_integer(beta, alpha) * u
    built = Counter()
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built["Fraction"] += 1
        return original(cls, *args, **kwargs)

    def scalars():
        # what the check computes besides matrices: its parameters
        return [-u, -t], [c * (-t) ** i * u**j for _, i, j, c in commutator_factors(rs, alpha, beta)]

    def relations():
        h = h_alpha(rs, alpha, t)
        return (mat_mul(x_alpha(rs, alpha, t), x_alpha(rs, alpha, u)) == x_alpha(rs, alpha, s),
                mat_mul(h_alpha(rs, alpha, t), h_alpha(rs, alpha, u)) == h_alpha(rs, alpha, w),
                mat_mul(mat_mul(h, x_alpha(rs, beta, u)), mat_inv(h)) == x_alpha(rs, beta, weight))

    # build the per-root tables first, as the warm benchmark jobs find them
    relations(), commutator_relation_check(rs, alpha, beta, t, u)
    monkeypatch.setattr(Fraction, "__new__", counting)
    assert relations() == (True, True, True)
    assert built["Fraction"] == 0
    scalars()
    parameters = built["Fraction"]
    assert commutator_relation_check(rs, alpha, beta, t, u)
    assert built["Fraction"] == 2 * parameters


def test_function_field_relations_build_no_fraction(monkeypatch, no_dense_view):
    # over Q(T) the generators and both commutator products hold int
    # polynomial coefficients, and a product and a comparison of scaled
    # matrices build no Fraction and no dense view
    rs = build_root_system("G2")
    alpha, beta = rs.positive_roots[0], rs.positive_roots[1]
    t, u = _two_term_parameters()
    products, scaled_product = [], tck.chevalley._scaled_product

    def recording(*args):
        products.append(scaled_product(*args))
        return products[-1]

    monkeypatch.setattr(tck.chevalley, "_scaled_product", recording)
    assert commutator_relation_check(rs, alpha, beta, t, u) and len(products) == 2

    def coefficients(m):
        return [c for f in (m.den, *(v for row in m.rows for v in row.values()))
                for c in f.terms.values()]

    for s in (t, u, T * Fraction(2, 3) - Fraction(1, 2)):
        products += [x_alpha(rs, beta, s), n_alpha(rs, beta, s)]
    for m in products:
        assert isinstance(m.den, Polynomial)
        assert all(type(c) is int for c in coefficients(m))

    built = Counter()
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built["Fraction"] += 1
        return original(cls, *args, **kwargs)

    a, b, s = x_alpha(rs, alpha, t), x_alpha(rs, alpha, u), x_alpha(rs, alpha, t + u)
    monkeypatch.setattr(Fraction, "__new__", counting)
    assert mat_mul(a, b) == s and mat_mul(b, a) == s and mat_mul(a, a) != s
    assert x_alpha(rs, beta, t) == x_alpha(rs, beta, t)
    assert built["Fraction"] == 0


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_graph_realization_is_an_automorphism(name):
    rs = build_root_system(name)
    rng = random.Random(5)
    for sigma in diagram_symmetries(rs):
        real = GraphMatrixRealization(rs, sigma)
        for _ in range(3):
            alpha = rng.choice(rs.roots)
            beta = rng.choice(rs.roots)
            x = mat_mul(x_alpha(rs, alpha, Fraction(2)), x_alpha(rs, beta, Fraction(-1, 2)))
            assert real.apply(x) == mat_mul(real.apply(x_alpha(rs, alpha, Fraction(2))),
                                            real.apply(x_alpha(rs, beta, Fraction(-1, 2))))
        # sends each root group to the root group of the image root
        for alpha in rs.roots:
            image = real.apply(x_alpha(rs, alpha, Fraction(3)))
            target = extend_symmetry_to_roots(rs, sigma, alpha)
            assert any(image == x_alpha(rs, target, s) for s in (Fraction(3), Fraction(-3)))


@pytest.mark.parametrize("name, order", [("A3", 2), ("D4", 3)])
def test_graph_realization_rejects_a_tampered_sign_table(name, order, monkeypatch):
    # Flipping the sign of one composite root (and of its negative) breaks
    # the bracket at some basis pair; construction must refuse that table.
    rs = build_root_system(name)
    sigma = next(s for s in diagram_symmetries(rs) if s.order == order)
    composite = next(beta for beta in rs.positive_roots if sum(beta) == 2)
    flipped = {rs.root_index[composite], rs.root_index[rs.negate(composite)]}
    original = GraphMatrixRealization._basis_image

    def tampered(self, i):
        image, sign = original(self, i)
        return image, -sign if i in flipped else sign

    GraphMatrixRealization(rs, sigma)
    monkeypatch.setattr(GraphMatrixRealization, "_basis_image", tampered)
    with pytest.raises(ConsistencyError, match="^sign table breaks the bracket at basis pair"):
        GraphMatrixRealization(rs, sigma)


def test_graph_realization_order():
    rs = build_root_system("D4")
    sigma = next(s for s in diagram_symmetries(rs) if s.order == 3)
    real = GraphMatrixRealization(rs, sigma)
    x = x_alpha(rs, rs.positive_roots[0], Fraction(1, 2))
    y = x
    for _ in range(3):
        y = real.apply(y)
    assert y == x


def _signed_permutation_matrix(rs, sigma, real):
    """The dense P with P[sigma(i)][i] = sign(i), built from the root images
    and signs; conjugation by P is the reference for the graph part."""
    m, dim = len(rs.roots), adjoint_dimension(rs)
    P = [[Fraction(0)] * dim for _ in range(dim)]
    for i, beta in enumerate(rs.roots):
        P[real.root_images[i]][i] = Fraction(real.signs[beta])
    for t in range(rs.rank):
        P[m + sigma.permutation[t]][m + t] = Fraction(1)
    return P


@pytest.mark.parametrize("name, order", [("A2", 2), ("A3", 2), ("D4", 3)])
def test_graph_part_matches_the_dense_signed_permutation(name, order):
    # the graph part moves entries; P x P^T with the dense signed
    # permutation matrix P is the reference route
    rs = build_root_system(name)
    sigma = next(s for s in diagram_symmetries(rs) if s.order == order)
    real = GraphMatrixRealization(rs, sigma)
    P = _signed_permutation_matrix(rs, sigma, real)
    P_T = [list(column) for column in zip(*P)]
    assert dense_mul(P, P_T) == identity(adjoint_dimension(rs))
    rng = random.Random(13)
    for _ in range(4):
        alpha, beta = rng.choice(rs.roots), rng.choice(rs.roots)
        # x_alpha x_{-alpha} reaches the Cartan block
        x = mat_product([x_alpha(rs, alpha, Fraction(2)), x_alpha(rs, rs.negate(alpha), T - 1),
                         x_alpha(rs, beta, Fraction(-1, 3))])
        assert real.apply(x) == dense_product([P, x, P_T])


def _dense_torus_pair(entries, rank):
    """The dense torus matrix with the given entries at the roots and 1 on
    the Cartan block, and its inverse, the entrywise reciprocals."""
    diagonal = [*entries, *[Fraction(1)] * rank]
    n = len(diagonal)
    return ([[d if i == j else Fraction(0) for j in range(n)] for i, d in enumerate(diagonal)],
            [[1 / d if i == j else Fraction(0) for j in range(n)] for i, d in enumerate(diagonal)])


def test_diagonal_part_matches_the_dense_conjugation():
    # the diagonal part conjugates by its torus matrix; D x D^-1 with the
    # dense torus matrix D is the reference route, over Q and Q(T)
    rng = random.Random(17)
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        a, b = rs.positive_roots[:2]
        for t in (Fraction(3), Fraction(-2, 5), 2 * T + 1, 1 / T):
            entries = diagonal_entries(mat_mul(h_alpha(rs, a, t), h_alpha(rs, b, Fraction(7))))
            phi = ChevalleyAutomorphism(rs, diagonal=entries[:len(rs.roots)])
            alpha, beta = rng.choice(rs.roots), rng.choice(rs.roots)
            x = mat_product([x_alpha(rs, alpha, Fraction(2)), x_alpha(rs, rs.negate(alpha), t),
                             x_alpha(rs, beta, Fraction(1, 3))])
            D, D_inverse = _dense_torus_pair(entries[:len(rs.roots)], rs.rank)
            assert phi.apply(x) == dense_product([D, x, D_inverse]), (name, t)
    # a composite applies the diagonal part before the field part
    rs = build_root_system("A2")
    delta = ScalingAutomorphism((Fraction(5),))
    D = h_alpha(rs, rs.positive_roots[1], 2 * T + 1)
    phi = ChevalleyAutomorphism(rs, diagonal=diagonal_entries(D)[:len(rs.roots)], field=delta)
    x = x_alpha(rs, rs.positive_roots[0], T)
    expected = ChevalleyAutomorphism(rs, field=delta).apply(mat_product([D, x, mat_inv(D)]))
    assert phi.apply(x) == expected


def test_diagonal_part_torus_has_a_positive_denominator_over_q():
    # (pq)^K is negative for a negative simple value at an odd depth; both
    # signs flip, as for h_alpha, and the entries are the character's
    rs = build_root_system("G2")
    for simple in ((Fraction(-3, 2), Fraction(5)), (Fraction(2, 7), Fraction(-1, 3))):
        cleared = [(c.numerator, c.denominator) for c in simple]
        for pairs, values in ((cleared, simple),
                              ([(q, p) for p, q in cleared], [1 / c for c in simple])):
            torus = tck.chevalley._torus_matrix(rs, pairs)
            assert torus.den > 0
            expected = [prod(c ** b for c, b in zip(values, beta)) for beta in rs.roots]
            assert diagonal_entries(torus) == expected + [1] * rs.rank


def test_automorphism_part_order():
    # field acts before graph: on rational matrices only the graph part shows
    rs = build_root_system("A2")
    sigma = diagram_symmetries(rs)[1]
    delta = ScalingAutomorphism((Fraction(7),))
    phi = ChevalleyAutomorphism(rs, graph=sigma, field=delta)
    g = h_alpha(rs, rs.positive_roots[0], Fraction(4))
    expected = GraphMatrixRealization(rs, sigma).apply(g)
    assert phi.apply(g) == expected


def _composite_cases():
    """(name, simple-root values, word, field scalars, x parameters) over Q,
    Q(T) and Q(T1, T2)."""
    T1, T2 = RationalFunction.variable(2, 0), RationalFunction.variable(2, 1)
    return [
        ("A3", (Fraction(3), Fraction(-1, 2), Fraction(5, 4)),
         [Fraction(2), Fraction(-1, 3)], (Fraction(2),), (Fraction(5), Fraction(-3, 7))),
        ("A2", (T + 1, 2 / T), [T - 2, Fraction(1, 3) / (T + 3)], (Fraction(5),),
         (T * 3, Fraction(-2))),
        ("A2", (T1 + 2, 1 / T2), [T2, Fraction(-1, 2)], (Fraction(2), Fraction(3)),
         (T1, Fraction(1, 2))),
    ]


def _dense_outer_parts(rs, entries, delta, sigma, x):
    """P delta(D x D^-1) P^T on dense matrices: the diagonal, field and graph
    parts, with the field acting entrywise on rational functions."""
    D, D_inverse = _dense_torus_pair(entries, rs.rank)
    y = dense_product([D, x, D_inverse])
    y = [[apply_scaling(delta, e) if isinstance(e, RationalFunction) else e for e in row]
         for row in y]
    P = _signed_permutation_matrix(rs, sigma, GraphMatrixRealization(rs, sigma))
    return dense_product([P, y, [list(column) for column in zip(*P)]])


@pytest.mark.parametrize("case", range(3), ids=["Q", "Q(T)", "Q(T1,T2)"])
def test_composite_automorphism_matches_the_dense_route(case):
    # phi = graph . field . diagonal . inner, psi the same without the inner
    # part.  psi(x) is checked against D x D^-1, the entrywise field map and
    # P y P^T on dense matrices; as psi is a homomorphism, phi(x) = psi(g x
    # g^-1) satisfies phi(x) psi(g) = psi(g) psi(x), which needs no inverse
    name, simple, parameters, scalars, (s, u) = _composite_cases()[case]
    rs = build_root_system(name)
    entries = [prod(c ** b for c, b in zip(simple, beta)) for beta in rs.roots]
    sigma = next(sym for sym in diagram_symmetries(rs) if sym.order == 2)
    delta = ScalingAutomorphism(scalars)
    a, b = rs.positive_roots[:2]
    word = [(a, parameters[0]), (rs.negate(b), parameters[1])]
    phi = ChevalleyAutomorphism(rs, inner=word, diagonal=entries, graph=sigma, field=delta)
    psi = ChevalleyAutomorphism(rs, diagonal=entries, graph=sigma, field=delta)
    g = dense_product([list(x_alpha(rs, gamma, t)) for gamma, t in word])
    psi_g = _dense_outer_parts(rs, entries, delta, sigma, g)
    for alpha in (a, rs.negate(a), rs.positive_roots[-1]):
        x = mat_product([x_alpha(rs, alpha, s), x_alpha(rs, rs.negate(alpha), u)])
        psi_x = _dense_outer_parts(rs, entries, delta, sigma, x)
        assert psi.apply(x) == psi_x, (name, alpha)
        image = phi.apply(x)
        assert isinstance(image, ScaledMatrix)
        assert dense_mul(image, psi_g) == dense_mul(psi_g, psi_x), (name, alpha)


def test_apply_rejects_matrices_of_the_wrong_shape():
    # apply takes a ScaledMatrix of the adjoint dimension: a dense list, even
    # of the right size, and a smaller scaled matrix are domain errors
    rs = build_root_system("A2")
    dim = adjoint_dimension(rs)
    smaller = x_alpha(build_root_system("A1"), (1,), Fraction(2))
    diagonal = diagonal_entries(h_alpha(rs, rs.positive_roots[0], Fraction(2)))[:len(rs.roots)]
    message = f"^apply takes a ScaledMatrix of dimension {dim}$"
    for phi in (ChevalleyAutomorphism(rs, graph=diagram_symmetries(rs)[1]),
                ChevalleyAutomorphism(rs, diagonal=diagonal),
                ChevalleyAutomorphism(rs, inner=[(rs.roots[0], 1)]),
                ChevalleyAutomorphism(rs, field=ScalingAutomorphism((Fraction(2),))),
                ChevalleyAutomorphism(rs)):
        for x in (identity(dim), list(x_alpha(rs, rs.roots[0], Fraction(1))), None, smaller):
            with pytest.raises(DomainError, match=message):
                phi.apply(x)


def test_field_part_scales_variable_entries():
    rs = build_root_system("A1")
    delta = ScalingAutomorphism((Fraction(3),))
    phi = ChevalleyAutomorphism(rs, field=delta)
    t = RationalFunction.variable(1, 0)
    x = x_alpha(rs, rs.positive_roots[0], t)
    image = phi.apply(x)
    expected = x_alpha(rs, rs.positive_roots[0], t * 3)
    for row_got, row_want in zip(image, expected):
        for got, want in zip(row_got, row_want):
            assert got == want


def test_field_part_keeps_the_image_in_int_polynomials():
    # T -> 3T/2 brings Fraction coefficients; one lcm clears them from the
    # rows and the denominator, and the image equals the uncleared one
    rs = build_root_system("A2")
    delta = ScalingAutomorphism((Fraction(3, 2),))
    phi = ChevalleyAutomorphism(rs, field=delta)
    for t in FUNCTION_FIELD_PARAMETERS:
        x = x_alpha(rs, (1, 0), t)
        image = phi.apply(x)
        values = (image.den, *(v for row in image.rows for v in row.values()))
        assert all(type(c) is int for f in values for c in f.terms.values()), t
        scaled = ScaledMatrix([{j: apply_scaling(delta, v) for j, v in row.items()}
                               for row in x.rows], apply_scaling(delta, x.den))
        assert image == scaled and scaled == image, t


def test_inner_part_with_integer_entries_stays_exact():
    # int parameters are coerced, so the rows stay ints over an int
    # denominator and no float enters
    rs = build_root_system("A1")
    alpha = rs.positive_roots[0]
    word = [(alpha, 2), (rs.negate(alpha), -1)]
    x = x_alpha(rs, alpha, 3)
    image = ChevalleyAutomorphism(rs, inner=word).apply(x)
    assert type(image.den) is int
    assert all(type(v) is int for row in image.rows for v in row.values())
    assert all(type(e) is Fraction for row in image for e in row)
    g = dense_product([list(x_alpha(rs, gamma, s)) for gamma, s in word])
    assert dense_mul(image, g) == dense_mul(g, x)


def test_field_part_accepts_every_scalar_type():
    # the entries a scaled matrix holds: int rows over Q are fixed, and
    # polynomial rows over Q(T) are scaled T -> 3T with their denominator, as
    # each dense entry is; an entry of another type or over another variable
    # count is a domain error
    rs = build_root_system("A1")
    delta = ScalingAutomorphism((Fraction(3),))
    phi = ChevalleyAutomorphism(rs, field=delta)
    alpha = rs.positive_roots[0]
    rational = x_alpha(rs, alpha, Fraction(1, 2))
    assert phi.apply(rational) == rational
    for t in (T, 1 / (T + 1), (T * T + 3) / (T * 2 - 5), T - T + 2):
        x = mat_product([x_alpha(rs, alpha, t), x_alpha(rs, rs.negate(alpha), Fraction(1, 2))])
        expected = [[apply_scaling(delta, e) if isinstance(e, RationalFunction) else e
                     for e in row] for row in x]
        assert phi.apply(x) == expected, t
    P = Polynomial.variable(1, 0)
    P1 = Polynomial.variable(2, 0)
    for bad, message in ((ScaledMatrix([{0: P}, {1: 1.5}, {2: P}], P), "expects a Polynomial"),
                         (ScaledMatrix([{0: P1}, {1: P1}, {2: P1}], P1), "variable count")):
        with pytest.raises(DomainError, match=message):
            phi.apply(bad)


def test_inner_part_conjugates():
    # the inner part is the product g of its word; apply(x) g = g x is the
    # reference, which needs no inverse
    rs = build_root_system("A2")
    alpha = rs.positive_roots[0]
    word = [(alpha, Fraction(1)), (rs.negate(alpha), Fraction(-1)), (alpha, Fraction(1))]
    phi = ChevalleyAutomorphism(rs, inner=word)
    assert phi.inner == tuple(word)
    g = n_alpha(rs, alpha, Fraction(1))
    for beta in rs.roots:
        x = x_alpha(rs, beta, Fraction(5))
        image = phi.apply(x)
        assert isinstance(image, ScaledMatrix)
        assert dense_mul(image, g) == dense_mul(g, x), beta


@pytest.mark.parametrize("inner", [
    5, "ab", [5], [(1, 0)], [((1, 0), 1, 2)], [((1, 0),)], [((9, 9), 1)], [(None, 1)],
    [(5, 1)], [([[1]], 1)], [((1, 0), 1.5)], [((1, 0), True)], [((1, 0), "2")],
], ids=repr)
def test_inner_part_must_be_a_word_of_root_pairs(inner):
    with pytest.raises(DomainError):
        ChevalleyAutomorphism(build_root_system("A2"), inner=inner)


def test_inner_part_given_as_a_matrix_is_a_domain_error():
    # the inner part is a word, not the matrix of its product
    rs = build_root_system("A2")
    with pytest.raises(DomainError, match="word of"):
        ChevalleyAutomorphism(rs, inner=n_alpha(rs, rs.positive_roots[0], Fraction(1)))


def test_diagonal_part_must_be_a_character():
    rs = build_root_system("A2")
    m, dim = len(rs.roots), adjoint_dimension(rs)
    bogus = [Fraction(1)] * m
    bogus[0] = Fraction(2)  # breaks the opposite-root cancellation
    with pytest.raises(DomainError):
        ChevalleyAutomorphism(rs, diagonal=bogus)
    # cancels on opposite roots but is not multiplicative: the entry at
    # alpha_1 + alpha_2 is 3, the product of the simple entries is 1
    beta = (1, 1)
    skewed = [Fraction(1)] * m
    skewed[rs.root_index[beta]], skewed[rs.root_index[rs.negate(beta)]] = 3, Fraction(1, 3)
    with pytest.raises(DomainError, match="not a character at"):
        ChevalleyAutomorphism(rs, diagonal=skewed)
    good = tuple(diagonal_entries(h_alpha(rs, rs.positive_roots[0], Fraction(2))))
    # the entries are given at the roots only, without the Cartan block
    for wrong_length in (good, good[:m - 1]):
        with pytest.raises(DomainError, match=f"needs {m} root entries"):
            ChevalleyAutomorphism(rs, diagonal=wrong_length)
    with pytest.raises(DomainError, match="singular"):
        ChevalleyAutomorphism(rs, diagonal=(0,) * m)
    for entry in ("2", True):
        with pytest.raises(DomainError, match="unsupported scalar"):
            ChevalleyAutomorphism(rs, diagonal=(entry,) * m)
    phi = ChevalleyAutomorphism(rs, diagonal=good[:m])
    assert phi.apply(x_alpha(rs, rs.roots[0], 0)) == identity(dim)


def test_reduce_mod_p():
    rs = build_root_system("A1")
    x = x_alpha(rs, rs.positive_roots[0], Fraction(1, 2))
    reduced = reduce_mod_p(x, 3)
    assert all(0 <= e < 3 for row in reduced for e in row)
    # 1/2 = 2 mod 3
    assert reduced[0][2] != 0
    with pytest.raises(DomainError):
        reduce_mod_p(x, 2)
    with pytest.raises(DomainError):
        reduce_mod_p(x, 4)
