"""Exact dense and scaled products, inversion and equality, checked against
closed forms, a naive triple loop, the dense views and the identity, with the
work each kernel does counted."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tck import DomainError, Polynomial, RationalFunction, build_root_system, h_alpha
from tck.linalg import (
    ScaledMatrix,
    diagonal_entries,
    identity_matrix,
    int_det,
    is_diagonal,
    mat_inv,
    mat_mul,
    smith_normal_form,
)

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
                assert mat_mul(h, inverse) == identity_matrix(len(h))


def test_two_variable_torus_inverts_on_the_dense_view():
    T1, T2 = (RationalFunction.variable(2, i) for i in range(2))
    rs = build_root_system("B2")
    for alpha in rs.roots:
        for t in (T1 + T2 * 2, T1 / (T2 - 3)):
            h = h_alpha(rs, alpha, t)
            inverse = mat_inv(h)
            assert isinstance(h, ScaledMatrix) and not isinstance(inverse, ScaledMatrix)
            assert inverse == h_alpha(rs, alpha, 1 / t)
            assert mat_mul(h, inverse) == identity_matrix(len(h))


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
    expected = _naive_mul(_view(a), _view(b))
    product = mat_mul(a, b)
    assert isinstance(product, ScaledMatrix)
    for got in (product, mat_mul(a, _view(b)), mat_mul(_view(a), b)):
        assert got == expected
    assert _view(product) == expected


INVERTIBLE_SCALED_DIAGONALS = st.sampled_from(
    (Fraction, RationalFunction, TWO_VARIABLES)).flatmap(
        lambda field: scaled_matrices(field, diagonal=True))


@settings(max_examples=90, deadline=None, database=None, derandomize=True)
@given(INVERTIBLE_SCALED_DIAGONALS)
def test_scaled_diagonal_inverse_matches_the_dense_inverse(a):
    inverse = mat_inv(a)
    assert inverse == mat_inv(_view(a))
    # over Q and Q(T) in one variable the inverse stays scaled; over two
    # variables it is the dense route's
    one_variable = isinstance(a.den, int) or a.den.nvars == 1
    assert isinstance(inverse, ScaledMatrix) is one_variable
    if one_variable:
        assert is_diagonal(inverse) and type(inverse.den) is type(a.den)
    if isinstance(a.den, int):
        assert inverse.den > 0
    assert mat_mul(a, inverse) == identity_matrix(len(a))


def test_zero_and_singular_scaled_diagonals_fail_as_the_dense_route_does():
    for den in (3, P + 1):
        zero = ScaledMatrix([{}, {}, {}], den)
        singular = ScaledMatrix([{0: den}, {}, {2: den * 2}], den)
        for m, message in ((zero, "^zero matrix is not invertible$"),
                           (singular, "^matrix is singular$")):
            for form in (m, _view(m)):
                with pytest.raises(DomainError, match=message):
                    mat_inv(form)


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


def mat_det(a):
    """Determinant by fraction-producing Gaussian elimination over any field
    with ring operations, division and truthiness: the reference for int_det
    here and for the generic pattern determinants over Q(T) in test_witness."""
    n = len(a)
    work = [list(row) for row in a]
    sign = 1
    det = None
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return work[0][0] - work[0][0]
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        p = work[col][col]
        det = p if det is None else det * p
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] / p
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det if sign == 1 else -det


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
