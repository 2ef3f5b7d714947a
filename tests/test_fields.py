"""Exact arithmetic layer: supports, polynomials, scalings, character lattices."""

import random
import time
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from tck import (
    ConsistencyError,
    DomainError,
    Polynomial,
    RationalFunction,
    ScalingAutomorphism,
    build_root_system,
    character_lattice_member,
    exponent_vector,
    n_alpha,
    supports_pairwise_disjoint,
    x_alpha,
)
from tck.errors import DEFAULT_CLOSURE_CAP, ResourceLimitError, rational
from tck.fields import _is_prime, character_lattice

from dense_oracle import substitute
from fraction_oracle import character_classes


def test_exponent_vector_values():
    assert exponent_vector(12, [2, 3]) == [2, 1]
    assert exponent_vector(12, [2]) is None
    assert exponent_vector(Fraction(4, 9), [2, 3]) == [2, -2]
    assert exponent_vector(Fraction(4, 9), [3]) is None
    assert exponent_vector(-1, []) == []
    assert exponent_vector(1, [2, 3]) == [0, 0]
    assert exponent_vector(Fraction(35, 11), [5, 7, 11]) == [1, 1, -1]
    assert exponent_vector(Fraction(35, 11), [5, 7]) is None
    # composite, pairwise coprime base elements
    assert exponent_vector(Fraction(1296, 5), [4, 9, 5]) == [2, 2, -1]
    assert exponent_vector(6, [4, 9]) is None


def test_exponent_vector_rejects_zero():
    with pytest.raises(DomainError):
        exponent_vector(0, [2])
    with pytest.raises(DomainError):
        exponent_vector(3, [1])


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_against_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if _trial_division_prime(n)
    ]
    assert not _is_prime(-7)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 11 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1)
    assert _is_prime(2 ** 79 - 67)


def test_is_prime_bound():
    bound = 3317044064679887385961981
    assert not _is_prime(bound - 2)
    for n in (bound, bound + 2, 2 ** 127 - 1):
        with pytest.raises(DomainError):
            _is_prime(n)


def test_support_disjointness():
    assert supports_pairwise_disjoint([2, 3, Fraction(5, 7)])
    assert supports_pairwise_disjoint([1, 1, 2])
    assert not supports_pairwise_disjoint([2, Fraction(1, 6)])
    assert supports_pairwise_disjoint([])


def _random_polynomial(rng, nvars, terms=4):
    p = Polynomial.constant(nvars, 0)
    for _ in range(terms):
        exps = tuple(rng.randrange(4) for _ in range(nvars))
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        p = p + Polynomial(nvars, {exps: c} if c else {})
    return p


def test_polynomial_ring_identities():
    rng = random.Random(3)
    for _ in range(25):
        nvars = rng.randrange(1, 4)
        p = _random_polynomial(rng, nvars)
        q = _random_polynomial(rng, nvars)
        r = _random_polynomial(rng, nvars)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert not (p - p)
        assert p * Polynomial.constant(nvars, 1) == p


def test_polynomial_power_and_errors():
    t = Polynomial.variable(2, 0)
    u = Polynomial.variable(2, 1)
    assert (t + u) ** 2 == t * t + 2 * t * u + u * u
    assert (t + u) ** 0 == Polynomial.constant(2, 1)
    with pytest.raises(DomainError):
        (t + u) ** -1
    with pytest.raises(DomainError):
        t + Polynomial.variable(3, 0)
    with pytest.raises(DomainError):
        Polynomial.variable(2, 5)


def test_leading_term_is_graded_lexicographic():
    t = Polynomial.variable(2, 0)
    u = Polynomial.variable(2, 1)
    p = t * t * u + t * u + Polynomial.constant(2, 7)
    assert p.leading_term() == ((2, 1), Fraction(1))
    with pytest.raises(DomainError):
        Polynomial.constant(2, 0).leading_term()


def test_rational_function_normalization():
    t = RationalFunction.variable(1, 0)
    one = RationalFunction.constant(1, 1)
    # (t^2 - 1)/(t - 1) and t + 1 agree as field elements
    assert (t * t - one) / (t - one) == t + one
    assert (t / t) == one
    assert t - t == RationalFunction.constant(1, 0)
    assert (one / t) * t == one


NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


def _polynomials(nvars, min_terms=0):
    coefficients = st.builds(Fraction, st.sampled_from(NONZERO), st.sampled_from((1, 2, 3)))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponents, coefficients, min_size=min_terms, max_size=3).map(
        lambda terms: Polynomial(nvars, terms))


@st.composite
def rational_function_pairs(draw):
    nvars = draw(st.sampled_from((1, 2)))
    return tuple(RationalFunction(draw(_polynomials(nvars)), draw(_polynomials(nvars, 1)))
                 for _ in range(2))


def _assert_normal(f):
    terms = {**f.num.terms, **f.den.terms}
    assert all(type(c) is Fraction for c in terms.values())
    if not f.num:
        assert f.den.terms == {(0,) * f.nvars: 1}
        return
    assert f.den.leading_term()[1] == 1
    assert all(min(column) == 0 for column in zip(*f.num.terms, *f.den.terms))


def _same_terms(fast, generic):
    _assert_normal(fast)
    assert (fast.num.terms, fast.den.terms) == (generic.num.terms, generic.den.terms)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(rational_function_pairs(),
       st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))),
       st.integers(-2, 2))
def test_rational_function_constant_operands_match_the_coerced_route(pair, c, n):
    # an int or Fraction operand skips coercion; a constant RationalFunction
    # through the generic route is the reference
    f, g = pair
    k = RationalFunction.constant(f.nvars, c)
    _same_terms(f * c, f * k)
    _same_terms(c * f, k * f)
    _same_terms(f + c, f + k)
    _same_terms(c + f, k + f)
    _same_terms(f - c, f - k)
    _same_terms(c - f, k - f)
    _same_terms(-f, RationalFunction.constant(f.nvars, -1) * f)
    # a polynomial scales by the constant; its product with the constant
    # polynomial is the reference
    for p in (f.num, f.den):
        coerced = p * Polynomial.constant(f.nvars, c)
        for fast in (p * c, c * p):
            assert fast.nvars == p.nvars and fast.terms == coerced.terms
            assert all(type(v) is Fraction for v in fast.terms.values())
    assert (f == c) == (f == k)
    assert (f * g == c) == (f * g == k)
    if not f:
        assert f == 0
        if n < 0:
            return
    else:
        assert f * f.reciprocal() == 1 and f * c / f == c
    base = f if n >= 0 else f.reciprocal()
    power = RationalFunction.constant(f.nvars, 1)
    for _ in range(abs(n)):
        power = power * base
    _same_terms(f**n, power)


def test_rational_function_division_by_zero():
    # mirrors Fraction: dividing by the zero function is a ZeroDivisionError
    t = RationalFunction.variable(1, 0)
    with pytest.raises(ZeroDivisionError):
        t / (t - t)
    with pytest.raises(ZeroDivisionError):
        RationalFunction.constant(1, 0).reciprocal()


def _int_polynomials(nvars):
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponents, st.sampled_from(NONZERO), max_size=3).map(
        lambda terms: Polynomial(nvars, terms))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((1, 2)).flatmap(
           lambda nvars: st.tuples(_int_polynomials(nvars), _int_polynomials(nvars))),
       st.integers(-4, 4), st.integers(1, 3))
def test_int_coefficients_stay_int_through_ring_operations(pair, c, n):
    # the scaled Q(T) generators live in Z[T]; the same polynomials over
    # Fraction coefficients are the reference
    p, q = pair
    fp, fq = (Polynomial(f.nvars, {e: Fraction(v) for e, v in f.terms.items()}) for f in pair)
    for got, reference in ((p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p * q, fp * fq),
                           (p**n, fp**n), (p.scale(c), fp.scale(c)), (c * p, c * fp)):
        assert all(type(v) is int for v in got.terms.values())
        assert all(type(v) is Fraction for v in reference.terms.values())
        assert got.terms == reference.terms


def test_normalization_divides_exactly():
    # int coefficients, as a scaled Q(T) matrix entry has them, come back
    # over Fraction with a monic denominator; 1 / 81 as a float would not be
    # exact, and a denominator with lead 1 is normalized all the same
    num = Polynomial(1, {(1,): 6, (0,): -1})
    f = RationalFunction(num, Polynomial(1, {(2,): 81, (0,): 18}))
    _assert_normal(f)
    assert f.num.terms == {(1,): Fraction(2, 27), (0,): Fraction(-1, 81)}
    assert f.den.terms == {(2,): 1, (0,): Fraction(2, 9)}
    g = RationalFunction(num, Polynomial(1, {(1,): 1, (0,): 5}))
    _assert_normal(g)
    assert g.num.terms == num.terms and g.den.terms == {(1,): 1, (0,): 5}


def _univariate(coefficients):
    return st.dictionaries(st.integers(0, 4), coefficients, max_size=4).map(
        lambda terms: Polynomial(1, {(e,): c for e, c in terms.items()}))


INT_UNIVARIATE = _univariate(st.integers(-6, 6).filter(bool))
RATIONAL_UNIVARIATE = _univariate(
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)))


def _euclid_gcd(a, b):
    """Monic gcd over Q[T] on Fraction coefficient lists, constant term first."""
    def trim(f):
        while f and not f[-1]:
            f.pop()
        return f

    def remainder(f, g):
        f = list(f)
        while len(f) >= len(g):
            c, shift = f[-1] / g[-1], len(f) - len(g)
            for i, x in enumerate(g):
                f[shift + i] -= c * x
            trim(f)
        return f

    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, remainder(a, b)
    return [c / a[-1] for c in a] if a else []


def _fraction_list(p):
    out = [Fraction(0)] * (max(p.terms)[0] + 1) if p.terms else []
    for (e,), c in p.terms.items():
        out[e] = Fraction(c)
    return out


def _monic(p):
    return [c / p.terms[max(p.terms)] for c in _fraction_list(p)] if p else []


def _associates(f, g):
    return f == g or f == -g


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(INT_UNIVARIATE, INT_UNIVARIATE, INT_UNIVARIATE.filter(bool))
def test_gcd_of_common_multiples_is_the_common_factor_times_the_gcd(a, b, c):
    # Z[T] is a UFD, so gcd(ac, bc) and c gcd(a, b) agree up to the units +-1
    assert _associates((a * c).gcd(b * c), c * a.gcd(b))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.tuples(INT_UNIVARIATE, INT_UNIVARIATE),
                 st.tuples(RATIONAL_UNIVARIATE, RATIONAL_UNIVARIATE),
                 st.builds(lambda a, b, c: (a * c, b * c), INT_UNIVARIATE, INT_UNIVARIATE,
                           INT_UNIVARIATE)))
def test_gcd_divides_both_and_leaves_coprime_cofactors(pair):
    a, b = pair
    g = a.gcd(b)
    assert g == b.gcd(a)
    # a monic Euclidean remainder sequence over Q[T] is the reference
    assert _monic(g) == _euclid_gcd(_fraction_list(a), _fraction_list(b))
    if not g:
        assert not a and not b
        return
    assert g.leading_term()[1] > 0
    if all(type(c) is int for f in pair for c in f.terms.values()):
        assert all(type(c) is int for c in g.terms.values())
    cofactors = [f.exact_quotient(g) for f in pair]
    assert [q * g for q in cofactors] == [a, b]
    if a and b:
        assert cofactors[0].gcd(cofactors[1]) == 1


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(INT_UNIVARIATE, INT_UNIVARIATE.filter(bool))
def test_exact_division_by_a_non_divisor_raises(a, b):
    assert (a * b).exact_quotient(b) == a
    if _euclid_gcd(_fraction_list(a), _fraction_list(b)) != _monic(b):
        # b does not divide a over Q, so neither over Z
        with pytest.raises(ConsistencyError, match="^polynomial division is not exact$"):
            a.exact_quotient(b)


def test_exact_division_stays_in_the_coefficient_ring():
    t = Polynomial(1, {(1,): 1})
    # over Z, T / 2T = 1/2 is not exact; over Q it is
    with pytest.raises(ConsistencyError):
        t.exact_quotient(t * 2)
    assert Polynomial.variable(1, 0).exact_quotient(t * 2) == Fraction(1, 2)
    assert (t * 4 + 6).gcd(t * 6 + 9).terms == {(1,): 2, (0,): 3}
    assert (t * 2).gcd(Polynomial.variable(1, 0) * Fraction(4, 3)) == t * Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        t.exact_quotient(t - t)
    two = Polynomial.variable(2, 0)
    for call in (lambda: two.gcd(two), lambda: two.exact_quotient(two),
                 lambda: t.gcd(two), lambda: t.gcd(0.5)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("value", [0.1, True, "1"])
def test_scalar_gate_refuses_floats_bools_and_strings(value):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, silently
    p = Polynomial.variable(1, 0)
    for make in (lambda: Polynomial.constant(1, value), lambda: p.scale(value),
                 lambda: ScalingAutomorphism((value,)), lambda: RationalFunction.constant(1, value)):
        with pytest.raises(DomainError, match="unsupported scalar"):
            make()


# Each was converted silently before: 0.25 and True were lattice members,
# the generator 4.0 spanned <4>, and 0.5 had the exponent vector [-1].
@pytest.mark.parametrize("call", [
    lambda: character_lattice_member(0.25, [4]),
    lambda: character_lattice_member(True, [4]),
    lambda: character_lattice_member(4, [4.0]),
    lambda: exponent_vector(0.5, [2]),
], ids=["float member", "bool member", "float generator", "float exponent vector"])
def test_lattice_helpers_refuse_floats_and_bools(call):
    with pytest.raises(DomainError, match="unsupported scalar"):
        call()


def test_lattice_helpers_gate_every_input():
    for call in (lambda: supports_pairwise_disjoint([Fraction(2), 0.5]),
                 lambda: character_lattice([2.0]),
                 lambda: character_classes([4], [Fraction(2), True]),
                 lambda: character_classes([4.0], [Fraction(2)])):
        with pytest.raises(DomainError, match="unsupported scalar"):
            call()
    # the certify path passes Fractions, which go through as themselves
    x = Fraction(3, 4)
    assert rational(x) is x


def test_scaled_function_field_entries_read_as_normal_rational_functions():
    # the dense view of a scaled Q(T) generator divides int-coefficient
    # polynomials; each entry must still come out normal
    T = RationalFunction.variable(1, 0)
    for name in ("A2", "G2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in ((T + 1) / (T * 3 + Fraction(1, 3)), 3 / (T + 5), T * 9 + 2):
                for m in (x_alpha(rs, alpha, t), n_alpha(rs, alpha, t)):
                    for entry in (entry for row in m for entry in row):
                        if isinstance(entry, RationalFunction):
                            _assert_normal(entry)
                        else:
                            assert type(entry) is Fraction and entry in (0, 1)


@pytest.mark.parametrize("value", [
    Polynomial.constant(1, 3),
    Polynomial.variable(2, 1),
    RationalFunction.constant(1, 3),
    RationalFunction.variable(1, 0).reciprocal(),
])
def test_polynomials_and_rational_functions_are_unhashable(value):
    # a constant polynomial equals its int value and a rational function has
    # no canonical form, so no hash could agree with ==
    assert value == value
    with pytest.raises(TypeError):
        hash(value)


def test_scaling_composition_and_inverse():
    d = ScalingAutomorphism((Fraction(2), Fraction(3)))
    e = ScalingAutomorphism((Fraction(1, 2), Fraction(5)))
    assert d.compose(e).scalars == (Fraction(1), Fraction(15))
    assert d.compose(d ** -1).scalars == (Fraction(1), Fraction(1))
    assert (d ** 3).scalars == (Fraction(8), Fraction(27))
    assert ScalingAutomorphism.identity(2).scalars == (Fraction(1), Fraction(1))
    with pytest.raises(DomainError):
        ScalingAutomorphism((Fraction(0),))


def test_scaling_power_past_the_cap_is_a_resource_limit(monkeypatch):
    # |n| is charged against the closure cap before any power is taken, so a
    # 5000-digit exponent ends at once in the error that names the cap
    d = ScalingAutomorphism((Fraction(2), Fraction(-1, 3)))
    cap = DEFAULT_CLOSURE_CAP
    assert (d ** cap).scalars == (Fraction(2) ** cap, Fraction(-1, 3) ** cap)
    assert (d ** -cap).scalars == (Fraction(2) ** -cap, Fraction(-1, 3) ** -cap)
    for n in (cap + 1, -cap - 1, 10**5000, -10**5000):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"exceeds closure cap {cap}$"):
            ScalingAutomorphism((2,)) ** n
        assert time.perf_counter() - start < 1.0
    monkeypatch.setenv("TCK_CLOSURE_CAP", "6")
    assert (d ** 6).scalars == (Fraction(64), Fraction(1, 729))
    with pytest.raises(ResourceLimitError, match="power 7 exceeds closure cap 6$"):
        d ** 7
    for n in (1.0, True, "2"):
        with pytest.raises(DomainError, match="scaling automorphism power"):
            d ** n


def test_the_substitution_oracle_is_a_field_map():
    # the dense reference for the field part: T_i -> c_i T_i respects + and *
    # and sends each monomial T^e to prod c_i^e_i T^e
    rng = random.Random(7)
    scalars = (Fraction(2), Fraction(-3, 5))
    for _ in range(10):
        f = RationalFunction.from_polynomial(_random_polynomial(rng, 2))
        g = RationalFunction.from_polynomial(_random_polynomial(rng, 2))
        assert substitute(f + g, scalars) == substitute(f, scalars) + substitute(g, scalars)
        assert substitute(f * g, scalars) == substitute(f, scalars) * substitute(g, scalars)
    T1, T2 = RationalFunction.variable(2, 0), RationalFunction.variable(2, 1)
    assert substitute(T1 ** 3 / T2, (Fraction(2), Fraction(3))) == T1 ** 3 / T2 * Fraction(8, 3)
    assert substitute(Fraction(5, 7), scalars) == Fraction(5, 7)



def test_character_lattice_membership():
    assert character_lattice_member(64, [64])
    assert character_lattice_member(Fraction(1, 64), [64])
    assert not character_lattice_member(8, [64])
    assert character_lattice_member(36, [4, 9])
    assert character_lattice_member(Fraction(9, 4), [4, 9])
    assert not character_lattice_member(6, [4, 9])
    assert character_lattice_member(1, [5])
    assert not character_lattice_member(-4, [4])
    assert not character_lattice_member(7, [1])


def test_character_lattice_membership_over_composite_bases():
    # [4, 9] and [64] are their own coprime bases; no prime is ever split off
    for k in range(-4, 5):
        assert character_lattice_member(Fraction(6) ** k, [4, 9]) == (k % 2 == 0)
        assert character_lattice_member(Fraction(8) ** k, [64]) == (k % 2 == 0)
    assert not character_lattice_member(8, [64])
    assert character_lattice_member(3, [6, 2])
    assert not character_lattice_member(3, [6, 4])
    assert character_lattice_member(Fraction(3, 2), [12, 18])
    assert not character_lattice_member(Fraction(9, 2), [12, 18])


# small primes, composites over them, and atoms sharing primes with each other
ATOMS = (2, 3, 5, 4, 6, 10, 12, 45)


@st.composite
def rationals_over_atoms(draw, signed, min_atoms=0):
    value = Fraction(1)
    for atom in draw(st.lists(st.sampled_from(ATOMS), min_size=min_atoms, max_size=3)):
        value *= Fraction(atom) ** draw(st.integers(-3, 3))
    return -value if signed and draw(st.booleans()) else value


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(rationals_over_atoms(signed=False, min_atoms=1), max_size=3),
       st.lists(rationals_over_atoms(signed=True), min_size=1, max_size=6))
def test_class_keys_agree_with_membership_of_quotients(generators, factors):
    # drawn factors times lattice elements share their classes
    factors = [*factors, *(factors[0] * g for g in generators),
               factors[-1] / prod(generators) ** 2]
    key = character_classes(generators, factors)
    for x in factors:
        for y in factors:
            assert (key(x) == key(y)) == character_lattice_member(x / y, generators)


def test_class_keys_refine_the_base_jointly():
    # 2 / (1/3) = 6 lies in <6> although neither factor factors over the
    # generators' own base [6]
    key = character_classes([6], [2, Fraction(1, 3)])
    assert key(2) == key(Fraction(1, 3))
    assert character_lattice_member(Fraction(2) / Fraction(1, 3), [6])
    assert key(2) != key(3) and key(2) != key(-2)
    assert key(1) == key(Fraction(1, 36)) != key(Fraction(1, 3))
    # classes are residues, not exponents: 8 / 2 lies in <4>
    key = character_classes([4], [2, 8])
    assert key(2) == key(8) != key(4)
    with pytest.raises(DomainError):
        key(7)
    with pytest.raises(DomainError):
        key(0)
    with pytest.raises(DomainError):
        character_classes([-6], [2])


def test_character_lattice_member_errors():
    with pytest.raises(DomainError):
        character_lattice_member(0, [4])
    with pytest.raises(DomainError):
        character_lattice_member(4, [4, -9])


def test_lattice_membership_against_exhaustive_products():
    # cross-check against brute force over small exponent boxes
    gens = [Fraction(4), Fraction(27), Fraction(5, 49)]
    products = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                products.add(gens[0] ** a * gens[1] ** b * gens[2] ** c)
    for lam in sorted(products):
        assert character_lattice_member(lam, gens)
    for lam in (2, 3, 7, Fraction(10, 7), Fraction(49, 20)):
        assert character_lattice_member(lam, gens) == (lam in products)
    # one lattice answers every query with the base and Smith form it built
    # on first need
    member = character_lattice(gens)
    for lam in (-4, 1, 2, Fraction(10, 7), *sorted(products), 3, 7, Fraction(49, 20)):
        assert member(lam) == (lam in products)
