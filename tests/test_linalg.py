"""Exact dense products and inversion, checked against closed forms, a naive
triple loop and the identity, with the work each kernel does counted."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tck import DomainError, RationalFunction, build_root_system, h_alpha
from tck.linalg import identity_matrix, int_det, mat_det, mat_inv, mat_mul, smith_normal_form

T = RationalFunction.variable(1, 0)


def test_torus_inverse_is_the_reciprocal_parameter():
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
    zero, one = Fraction(0), Fraction(1)
    with pytest.raises(DomainError, match="^matrix is singular$"):
        mat_inv(singular)
    with pytest.raises(DomainError, match="^zero matrix is not invertible$"):
        mat_inv([[zero] * 2] * 2)
    with pytest.raises(DomainError, match="^matrix is singular$"):
        mat_inv([[one, zero, zero], [zero, zero, zero], [zero, zero, T]])
    with pytest.raises(DomainError, match="^matrix is not square$"):
        mat_inv([[one, zero], [zero, one], [zero, zero]])


def _naive_mul(a, b):
    zero = a[0][0] - a[0][0]
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for t in range(len(b)):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


# Small values over few atoms, so that sums of products often cancel to zero.
INTEGERS = st.integers(-2, 2)
FRACTIONS = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2))).map(Fraction)
FUNCTIONS = st.sampled_from((T, -T, T + 1, 2 / (T - 1), -2 / (T - 1)))
MIXED = st.one_of(FRACTIONS, FUNCTIONS)


def _sparse(entries):
    # about half the entries are the zero of the entry type
    return st.one_of(st.just(None), entries)


@st.composite
def composable_pairs(draw, entries):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    cells = draw(st.lists(_sparse(entries), min_size=n * k + k * m, max_size=n * k + k * m))
    zero = draw(entries) * 0
    values = [zero if x is None else x for x in cells]
    a = [values[i * k:(i + 1) * k] for i in range(n)]
    b = [values[n * k + t * m:n * k + (t + 1) * m] for t in range(k)]
    if k > 1 and draw(st.booleans()):
        # the last term of every entry cancels the first one
        for row in a:
            row[-1] = row[0]
        b[-1] = [-y for y in b[0]]
    return a, b


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.one_of(composable_pairs(INTEGERS), composable_pairs(FRACTIONS), composable_pairs(MIXED)))
def test_mat_mul_matches_the_triple_loop(pair):
    a, b = pair
    assert mat_mul(a, b) == _naive_mul(a, b)


def test_products_that_cancel_are_zero():
    for one in (1, Fraction(1), T):
        a = [[one, one], [one * 0, one]]
        b = [[one, one], [-one, one * 0]]
        assert mat_mul(a, b) == [[0, one * one], [-one * one, 0]]
        assert not mat_mul(a, b)[0][0]


@st.composite
def invertible_diagonals(draw):
    n = draw(st.integers(1, 6))
    units = st.one_of(FRACTIONS.filter(bool), FUNCTIONS)
    diagonal = draw(st.lists(units, min_size=n, max_size=n))
    return [[diagonal[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(invertible_diagonals())
def test_diagonal_inverse_is_two_sided(a):
    inverse = mat_inv(a)
    n = len(a)
    assert mat_mul(a, inverse) == identity_matrix(n)
    assert mat_mul(inverse, a) == identity_matrix(n)


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
@given(composable_pairs(INTEGERS))
def test_mat_mul_adds_only_past_the_first_product(pair):
    a, b = ([[Counted(x) for x in row] for row in m] for m in pair)
    pairs = [[[t for t in range(len(b)) if a[i][t] and b[t][j]] for j in range(len(b[0]))]
             for i in range(len(a))]
    products = sum(len(terms) for row in pairs for terms in row)
    touched = sum(1 for row in pairs for terms in row if terms)
    Counted.ops.clear()
    product = mat_mul(a, b)
    assert Counted.ops["mul"] == products
    assert Counted.ops["add"] == products - touched
    assert product == _naive_mul(*pair)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_diagonal_inverse_divides_once_per_entry(n):
    a = [[Counted(i + 2 if i == j else 0) for j in range(n)] for i in range(n)]
    Counted.ops.clear()
    inverse = mat_inv(a)
    assert Counted.ops == Counter(div=n)
    assert all(inverse[i][j] == (Fraction(1, i + 2) if i == j else 0)
               for i in range(n) for j in range(n))


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
        product = _naive_mul(_naive_mul(snf.left, a), snf.right)
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
