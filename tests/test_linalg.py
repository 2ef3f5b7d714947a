"""Exact scaled products, diagonal inversion and equality, checked against
closed forms, the dense oracle's triple loop, the dense views and the
identity, with the work each kernel does counted."""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from tck import DomainError, Polynomial, RationalFunction, build_root_system, h_alpha
from tck.linalg import (
    ScaledMatrix,
    diagonal_entries,
    int_det,
    is_diagonal,
    mat_inv,
    mat_mul,
    smith_normal_form,
)

from dense_oracle import dense_mul, identity, mat_det

T = RationalFunction.variable(1, 0)
P = Polynomial.variable(1, 0)


# One linear, one with a fractional coefficient, one a reciprocal and one
# with a quadratic over a linear part
FUNCTION_FIELD_PARAMETERS = (T * 2 + 1, T / 2 + Fraction(1, 3), 1 / (T + 1),
                             (T * T + 3) / (T * 2 - 5))


def test_torus_inverse_is_the_reciprocal_parameter():
    # over Q(T) one gcd per distinct diagonal value leaves h_alpha(1/t)'s own
    # denominator, so products with the inverse do not grow in degree
    for name in ("A1", "A2", "B2", "G2", "B3", "C3"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(3), Fraction(-2, 7), Fraction(1, 3) - T, *FUNCTION_FIELD_PARAMETERS):
                h, reciprocal = h_alpha(rs, alpha, t), h_alpha(rs, alpha, 1 / t)
                inverse = mat_inv(h)
                assert isinstance(inverse, ScaledMatrix) and is_diagonal(inverse)
                assert inverse == reciprocal, (name, alpha, t)
                if isinstance(t, RationalFunction):
                    assert inverse.den == reciprocal.den, (name, alpha, t)
                assert mat_mul(h, inverse) == identity(len(h))


def test_two_variable_torus_inverse_is_the_reciprocal_parameter(monkeypatch):
    # with no gcd over two variables the inverse is taken over the product of
    # the distinct diagonal values, on the scaled rows alone
    T1, T2 = (RationalFunction.variable(2, i) for i in range(2))
    rs = build_root_system("B2")
    cases = [(alpha, t) for alpha in rs.roots for t in (T1 + T2 * 2, T1 / (T2 - 3))]
    tori = [(h_alpha(rs, alpha, t), h_alpha(rs, alpha, 1 / t)) for alpha, t in cases]
    monkeypatch.setattr(ScaledMatrix, "dense", _forbidden_view)
    inverses = [mat_inv(h) for h, _ in tori]
    monkeypatch.undo()
    for (h, reciprocal), inverse in zip(tori, inverses):
        assert isinstance(inverse, ScaledMatrix) and is_diagonal(inverse)
        assert inverse == reciprocal
        assert mat_mul(h, inverse) == identity(len(h))


def _forbidden_view(self):
    raise AssertionError("dense view built")


def test_singular_matrices_are_refused():
    # only a diagonal is inverted: any other matrix, over Q and Q(T), is a
    # domain error
    for den in (3, P + 1):
        shear = ScaledMatrix([{0: den, 1: den}, {1: den}, {2: den}], den)
        with pytest.raises(DomainError, match="^only a diagonal matrix is inverted$"):
            mat_inv(shear)


def test_zero_and_singular_scaled_diagonals_fail_as_the_dense_route_does():
    # a zero or singular diagonal, over Q and Q(T), is refused, and the dense
    # oracle's elimination finds the same matrices singular
    for den in (3, P + 1):
        zero = ScaledMatrix([{}, {}, {}], den)
        singular = ScaledMatrix([{0: den}, {}, {2: den * 2}], den)
        for m, message in ((zero, "^zero matrix is not invertible$"),
                           (singular, "^matrix is singular$")):
            assert not mat_det(_view(m))
            with pytest.raises(DomainError, match=message):
                mat_inv(m)


# Small values over few atoms, so that sums of products often cancel to zero:
# ints over an int denominator, polynomials over a polynomial one.
INTEGERS = (st.integers(-2, 2), st.integers(1, 3))
POLYNOMIALS = (st.sampled_from((P, -P, P + 1, -P - 1, P * 2 - 3)),
               st.sampled_from((Polynomial.constant(1, 1), P + 1)))


def _sparse(entries):
    # about half the positions hold nothing
    return st.one_of(st.just(None), entries)


@st.composite
def composable_pairs(draw, field):
    entries, dens = field
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(_sparse(entries), min_size=2 * n * n, max_size=2 * n * n))
    a, b = cells[:n * n], cells[n * n:]
    if n > 1 and draw(st.booleans()):
        # the last term of every entry cancels the first one
        for i in range(n):
            a[i * n + n - 1] = a[i * n]
            b[(n - 1) * n + i] = None if b[i] is None else -b[i]

    def scaled(cells):
        rows = [{j: v for j, v in enumerate(cells[i * n:(i + 1) * n]) if v} for i in range(n)]
        return ScaledMatrix(rows, draw(dens))

    return scaled(a), scaled(b)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.one_of(composable_pairs(INTEGERS), composable_pairs(POLYNOMIALS)))
def test_mat_mul_matches_the_triple_loop(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == dense_mul(a, b)
    # an entry whose terms cancel is dropped from the sparse rows
    assert all(v for row in product.rows for v in row.values())


def test_products_that_cancel_are_zero():
    for one, den in ((1, 1), (1, 3), (P, P + 1)):
        a = ScaledMatrix([{0: one, 1: one}, {1: one}], den)
        b = ScaledMatrix([{0: one, 1: one}, {0: -one}], den)
        product = mat_mul(a, b)
        assert product.rows == [{1: one * one}, {0: -one * one}]
        assert product == dense_mul(a, b)
        assert not product[0][0]


class Counted:
    """A rational that counts the ring operations done on it."""

    ops = Counter()

    def __init__(self, value):
        self.value = Fraction(value)

    @staticmethod
    def _value(x):
        return x.value if isinstance(x, Counted) else x

    def _op(self, name, value):
        Counted.ops[name] += 1
        return Counted(value)

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        return self.value == self._value(other)

    def __add__(self, other):
        return self._op("add", self.value + self._value(other))

    def __sub__(self, other):
        return self._op("sub", self.value - self._value(other))

    def __mul__(self, other):
        return self._op("mul", self.value * self._value(other))

    def __truediv__(self, other):
        return self._op("div", self.value / self._value(other))

    def __rtruediv__(self, other):
        return self._op("div", self._value(other) / self.value)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(composable_pairs((INTEGERS[0], st.just(1))))
def test_mat_mul_adds_only_past_the_first_product(pair):
    a, b = (ScaledMatrix([{j: Counted(v) for j, v in row.items()} for row in m.rows], 1)
            for m in pair)
    n = len(a)
    pairs = [[[t for t in a.rows[i] if j in b.rows[t]] for j in range(n)] for i in range(n)]
    products = sum(len(terms) for row in pairs for terms in row)
    touched = sum(1 for row in pairs for terms in row if terms)
    Counted.ops.clear()
    product = mat_mul(a, b)
    assert Counted.ops["mul"] == products
    assert Counted.ops["add"] == products - touched
    values = [{j: v.value for j, v in row.items()} for row in product.rows]
    assert ScaledMatrix(values, product.den) == dense_mul(*pair)


def _view(m):
    """A dense copy of a scaled matrix's rows."""
    return [list(row) for row in m]


# Over Q: nonzero int entries over a positive int; over Q(T): polynomial
# entries over a polynomial.  Values repeat often, so that equal entries and
# entries equal to the denominator (read as the shared 1) turn up.
# Over two variables, which have no gcd here, only diagonals are drawn.
TWO_VARIABLES = "Q(T1, T2)"
P1, P2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
SCALED_FIELDS = {
    Fraction: (st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    RationalFunction: (st.sampled_from((Polynomial.constant(1, 2), P, -P, P + 1, P * 2 - 3)),
                       st.sampled_from((Polynomial.constant(1, 1), P, P + 1, P * P - 2))),
    TWO_VARIABLES: (st.sampled_from((P1, P2 * 2 - 1, P1 * P2 + 3)),
                    st.sampled_from((Polynomial.constant(2, 1), P2 + 1))),
}


@st.composite
def scaled_matrices(draw, field, n=None, diagonal=False):
    entries, dens = SCALED_FIELDS[field]
    n = draw(st.integers(1, 4)) if n is None else n
    if diagonal:
        rows = [{i: draw(entries)} for i in range(n)]
    else:
        rows = [draw(st.dictionaries(st.integers(0, n - 1), entries, max_size=n)) for _ in range(n)]
    return ScaledMatrix(rows, draw(dens))


def _rescaled(m, c):
    """The same matrix as m, with every numerator and the denominator times c."""
    return ScaledMatrix([{j: v * c for j, v in row.items()} for row in m.rows], m.den * c)


@st.composite
def scaled_pairs(draw, field):
    a = draw(scaled_matrices(field))
    entries, dens = SCALED_FIELDS[field]
    choice = draw(st.sampled_from(("other", "rescaled", "same")))
    if choice == "other":
        return a, draw(scaled_matrices(field, n=len(a)))
    return a, _rescaled(a, draw(dens)) if choice == "rescaled" else a


@st.composite
def mixed_scaled_pairs(draw):
    """A matrix over Q and one over Q(T) of the same size, in either order; the
    second is the first rescaled by a polynomial, so equal, a third of the time."""
    a = draw(scaled_matrices(Fraction))
    if draw(st.integers(0, 2)):
        b = draw(scaled_matrices(RationalFunction, n=len(a)))
    else:
        b = _rescaled(a, draw(SCALED_FIELDS[RationalFunction][1]))
    return (a, b) if draw(st.booleans()) else (b, a)


ANY_SCALED_PAIR = st.one_of(scaled_pairs(Fraction), scaled_pairs(RationalFunction),
                            mixed_scaled_pairs())


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(ANY_SCALED_PAIR)
def test_scaled_equality_matches_the_dense_views(pair):
    a, b = pair
    expected = _view(a) == _view(b)
    assert (a == b) is expected and (b == a) is expected
    assert (a != b) is not expected and (b != a) is not expected
    assert (a == _view(b)) is expected and (_view(b) == a) is expected
    assert (a != _view(b)) is not expected and (_view(b) != a) is not expected
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((Fraction, RationalFunction)).flatmap(
    lambda field: st.tuples(scaled_matrices(field), SCALED_FIELDS[field][1], st.data())))
def test_changing_one_entry_by_one_breaks_equality(drawn):
    a, c, data = drawn
    b = _rescaled(a, c)
    assert a == b
    i, j = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, len(a) - 1))
    row = dict(b.rows[i])
    row[j] = row.get(j, b.den * 0) + 1  # the ring's 0 where j holds nothing
    if not row[j]:
        del row[j]
    changed = ScaledMatrix([row if k == i else r for k, r in enumerate(b.rows)], b.den)
    assert a != changed and changed != a
    assert not a == changed and a != _view(changed) and _view(changed) != a


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(ANY_SCALED_PAIR)
def test_scaled_products_match_the_triple_loop(pair):
    a, b = pair
    expected = dense_mul(_view(a), _view(b))
    product = mat_mul(a, b)
    assert isinstance(product, ScaledMatrix)
    assert product == expected and _view(product) == expected


INVERTIBLE_SCALED_DIAGONALS = st.sampled_from(
    (Fraction, RationalFunction, TWO_VARIABLES)).flatmap(
        lambda field: scaled_matrices(field, diagonal=True))


def _dense_inverse(a):
    """The inverse of a diagonal from its dense view: the entrywise reciprocals."""
    return [[1 / x if i == j else x for j, x in enumerate(row)] for i, row in enumerate(_view(a))]


@settings(max_examples=90, deadline=None, database=None, derandomize=True)
@given(INVERTIBLE_SCALED_DIAGONALS)
def test_scaled_diagonal_inverse_matches_the_dense_inverse(a):
    # over Q, Q(T) and Q(T1, T2) the inverse is a scaled diagonal of the
    # same kind
    inverse = mat_inv(a)
    assert inverse == _dense_inverse(a)
    assert is_diagonal(inverse) and type(inverse.den) is type(a.den)
    if isinstance(a.den, int):
        assert inverse.den > 0


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(INVERTIBLE_SCALED_DIAGONALS)
def test_diagonal_inverse_is_two_sided(a):
    inverse = mat_inv(a)
    assert mat_mul(a, inverse) == identity(len(a))
    assert mat_mul(inverse, a) == identity(len(a))


def test_torus_at_a_negative_parameter_has_a_positive_denominator():
    # G2 pairs roots up to +-3, so its scale |pq|^3 would be negative as (pq)^3
    for name in ("A1", "B2", "G2"):
        rs = build_root_system(name)
        for alpha in rs.roots:
            for t in (Fraction(-3), Fraction(-2, 7), Fraction(5, -4)):
                h = h_alpha(rs, alpha, t)
                assert isinstance(h, ScaledMatrix) and h.den > 0
                expected = [t ** rs.cartan_integer(beta, alpha) for beta in rs.roots]
                assert diagonal_entries(h) == expected + [1] * rs.rank, (name, alpha, t)


def test_reading_every_entry_builds_the_view_once(monkeypatch):
    rs = build_root_system("G2")
    alpha = rs.positive_roots[0]
    h = h_alpha(rs, alpha, Fraction(-2, 3))

    def forbidden(self):
        raise AssertionError("dense view built")

    # diagonal reads, the scaled inverse, products and == read the sparse rows
    monkeypatch.setattr(ScaledMatrix, "dense", forbidden)
    assert is_diagonal(h)
    entries = diagonal_entries(h)
    assert mat_mul(h, mat_inv(h)) == h_alpha(rs, alpha, 1)
    monkeypatch.undo()
    made = Counter()
    entry = ScaledMatrix._entry
    monkeypatch.setattr(ScaledMatrix, "_entry", lambda self, v: made.update([id(self)]) or entry(self, v))
    n = len(h)
    # every h[i][j], as criterion 8 reads them: one entry made per stored value
    assert [[h[i][j] for j in range(n)] for i in range(n)] == [
        [entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert made == Counter({id(h): n})
    assert h[0] is h[0] and list(h)[0] is h[0]


def _random_int_matrix(rng, n, m):
    return [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]


def test_int_det_matches_fraction_elimination():
    # Bareiss against Gaussian elimination over Q; the seeded matrices get
    # zero leading entries (forcing a row swap) and zero columns mixed in
    rng = random.Random(23)
    swapped = zero_column = 0
    for trial in range(300):
        n = rng.randrange(1, 7)
        a = _random_int_matrix(rng, n, n)
        if trial % 3 == 1 and n > 1:
            a[0][0] = 0
            swapped += 1
        if trial % 5 == 2:
            col = rng.randrange(n)
            for row in a:
                row[col] = 0
            zero_column += 1
        assert int_det(a) == mat_det([[Fraction(x) for x in row] for row in a]), a
    assert swapped and zero_column
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
    assert int_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(DomainError):
        int_det([[1, 2], [3, Fraction(1, 2)]])


def test_smith_normal_form_properties():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = _random_int_matrix(rng, n, n)
        snf = smith_normal_form(a)
        assert abs(int_det(snf.left)) == 1
        assert abs(int_det(snf.right)) == 1
        product = dense_mul(dense_mul(snf.left, a), snf.right)
        for i in range(n):
            for j in range(n):
                assert product[i][j] == (snf.diagonal[i] if i == j else 0)
        diag = [d for d in snf.diagonal if d]
        assert all(d > 0 for d in diag)
        for prev, following in zip(diag, diag[1:]):
            assert following % prev == 0
        # zeros trail the chain
        assert list(snf.diagonal) == diag + [0] * (n - len(diag))
    with pytest.raises(DomainError):
        smith_normal_form([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_smith_normal_form_is_a_unimodular_diagonalization(a):
    # drawn matrices beside the fixed list above, and the diagonal's product
    # checked against the determinant
    snf = smith_normal_form(a)
    n = len(a)
    d = snf.diagonal
    assert all(x >= 0 for x in d)
    # each entry divides the next, so zeros trail the chain
    assert all(following % x == 0 if x else following == 0 for x, following in zip(d, d[1:]))
    assert dense_mul(dense_mul(snf.left, a), snf.right) == [
        [d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert abs(int_det(snf.left)) == abs(int_det(snf.right)) == 1
    assert prod(d) == abs(int_det(a))
