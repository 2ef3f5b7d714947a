"""Exact matrices: scaled sparse rows, and the integer routines.

A ``ScaledMatrix`` is the package's one matrix form: sparse rows over one
denominator, in Z over Q and in Z[T] (polynomials with int coefficients) over
Q(T).  The generators of ``chevalley`` return it and its automorphisms act on
it.  Products, diagonal inverses and comparisons stay in that ring and build
no Fraction, and do no arithmetic on zeros: a product entry starts from its
first nonzero term, and only later terms are added to it.  Only diagonals are
inverted, the torus elements; a unipotent or Weyl element is inverted through
its parameters, by the generators, so no general inverse is needed.  In one
variable the diagonal inverse and the comparison reach a gcd and exact
division over Z[T] through the polynomials' own methods (``fields`` imports
this module, so not the other way round); they run only there, about once per
distinct diagonal value or comparison, never per arithmetic operation.

The integer routines live here too: the fraction-free Bareiss determinant
``int_det``, the only determinant in the package, p-power stripping, which
``fields`` and ``spectrum`` share, and the checked Smith normal form, which
``fields`` uses for character-lattice membership and ``spectrum`` for
cokernel orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import mul

from .errors import ConsistencyError, DomainError, Record

_ONE, _ZERO = Fraction(1), Fraction(0)


class ScaledMatrix:
    """The square matrix rows / den, immutable; with no canonical form, no hash.

    ``rows`` are dicts {column: nonzero entry} and ``den`` is nonzero:
    ints over Q, with ``den`` positive, and polynomials over Q(T), which the
    generators write with int coefficients.  So the type of ``den`` decides
    an entry's: Fraction(num, den) over Q, and over Q(T) num / den, a
    rational function normalized to Fraction coefficients.  Reading rows
    builds the dense view once.  Equality compares the rows at equal
    denominators and otherwise cross-multiplies them by the denominators, in
    one variable first divided by their gcd.
    """

    __slots__ = ("rows", "den", "_view")
    __hash__ = None

    def __init__(self, rows: list[dict], den):
        self.rows, self.den, self._view = rows, den, None

    def __len__(self):
        return len(self.rows)

    def _entry(self, v):
        if not v:
            return _ZERO
        if v == self.den:
            return _ONE
        return Fraction(v, self.den) if isinstance(self.den, int) else v / self.den

    def dense(self) -> list:
        if self._view is None:
            self._view = [[_ZERO] * len(self.rows) for _ in self.rows]
            for out, row in zip(self._view, self.rows):
                for j, v in row.items():
                    out[j] = self._entry(v)
        return self._view

    def __getitem__(self, i):
        return self.dense()[i]

    def __iter__(self):
        return iter(self.dense())

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return self.dense() == other if isinstance(other, list) else NotImplemented
        da, db = self.den, other.den
        if len(self.rows) != len(other.rows):
            return False
        if da == db:
            return self.rows == other.rows
        if type(da) is type(db) and not isinstance(da, int) and da.nvars == db.nvars == 1:
            # one variable: cross-multiply by the denominators over their gcd,
            # a constant one as its coefficient, which scales
            g = da.gcd(db)
            da, db = (_coefficient_if_constant(x.exact_quotient(g)) for x in (da, db))
        return all(
            {j: v * db for j, v in ra.items()} == {j: v * da for j, v in rb.items()}
            for ra, rb in zip(self.rows, other.rows)
        )


def _coefficient_if_constant(p):
    """A constant polynomial in one variable as its coefficient; others as they are."""
    return p.terms[(0,)] if p.terms.keys() == {(0,)} else p


def mat_mul(a: ScaledMatrix, b: ScaledMatrix) -> ScaledMatrix:
    """a * b on the sparse rows, over the product of the denominators."""
    if len(a.rows) != len(b.rows):
        raise DomainError("matrix shapes do not compose")
    rows = []
    for row in a.rows:
        acc = {}
        for t, x in row.items():
            for j, y in b.rows[t].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        rows.append({j: v for j, v in acc.items() if v})
    return ScaledMatrix(rows, a.den * b.den)


def mat_product(matrices) -> ScaledMatrix:
    return reduce(mat_mul, matrices)


def mat_inv(a: ScaledMatrix) -> ScaledMatrix:
    """Inverse of an invertible scaled diagonal diag(v_i) / d: diag(d L / v_i) / L.

    Over Q, L is the lcm of the v_i.  Over Q(T) in one variable, L = V / gcd(V, d)
    with V the lcm of the distinct v_i, the lcm of the v_i / gcd(d, v_i) up to
    sign, from one gcd per distinct v_i and one with d; for h_alpha(t) that is
    h_alpha(1/t)'s denominator, so later products do not grow in degree.  Over
    two or more variables, with no gcd here, L is the product of the distinct
    v_i.  Any other matrix is a DomainError.
    """
    if not is_diagonal(a):
        raise DomainError("only a diagonal matrix is inverted")
    d, diagonal = a.den, [row.get(i, 0) for i, row in enumerate(a.rows)]
    if not any(diagonal):
        raise DomainError("zero matrix is not invertible")
    if not all(diagonal):
        raise DomainError("matrix is singular")
    if isinstance(d, int):
        den = lcm(*diagonal)
        return ScaledMatrix([{i: d * (den // v)} for i, v in enumerate(diagonal)], den)
    return _polynomial_diagonal_inverse(diagonal, d)


def _polynomial_diagonal_inverse(diagonal: list, d) -> ScaledMatrix:
    """diag(v_i) / d inverted over polynomials: d L / v_i over L."""
    # polynomials have no hash; their term maps do, as frozensets
    keys = [frozenset(v.terms.items()) for v in diagonal]
    values = dict(zip(keys, diagonal))
    if d.nvars == 1:
        multiple = None  # V, the lcm of the distinct v
        for v in values.values():
            multiple = v if multiple is None else multiple.exact_quotient(multiple.gcd(v)) * v
        den = multiple.exact_quotient(multiple.gcd(d))
        top = d * den
        entries = {key: top.exact_quotient(v) for key, v in values.items()}
    else:
        den = prod(values.values())
        entries = {key: d * prod(w for other, w in values.items() if other != key)
                   for key in values}
    return ScaledMatrix([{i: entries[key]} for i, key in enumerate(keys)], den)


def diagonal_entries(a: ScaledMatrix) -> list:
    return [a._entry(row.get(i)) for i, row in enumerate(a.rows)]


def is_diagonal(a: ScaledMatrix) -> bool:
    return all(row.keys() <= {i} for i, row in enumerate(a.rows))


def _validate_integer_matrix(matrix) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DomainError("expected a nonempty square matrix")
    for row in rows:
        if not {int}.issuperset(map(type, row)):
            x = next(x for x in row if type(x) is not int)
            raise DomainError(f"entry {x!r} is not an integer")
    return rows


def _int_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def int_det(matrix) -> int:
    """Determinant by fraction-free Bareiss elimination: every division is exact."""
    a = _validate_integer_matrix(matrix)
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * row_k[j]) // previous
        previous = p
    return sign * a[n - 1][n - 1]


def _strip_power(n: int, b: int) -> tuple[int, int]:
    """(e, n / b**e) with e as large as possible, for n != 0 and b > 1."""
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e, n


class SmithNormalForm(Record):
    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix) -> SmithNormalForm:
    """Diagonalize an integer matrix as U*M*V = D with unimodular U, V.

    Diagonal entries are nonnegative and each divides the next.  The
    returned transforms are verified before the result is released.
    """
    a = _validate_integer_matrix(matrix)
    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        while True:
            pivot = None
            for i in range(k, n):
                for j in range(k, n):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(k, pivot[0])
            swap_cols(k, pivot[1])
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            dirty = False
            for i in range(k + 1, n):
                q = a[i][k] // a[k][k]
                if q:
                    row_sub(i, k, q)
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, n):
                q = a[k][j] // a[k][k]
                if q:
                    col_sub(j, k, q)
                if a[k][j]:
                    dirty = True
            if dirty:
                continue
            offender = next(
                (
                    i
                    for i in range(k + 1, n)
                    if any(a[i][j] % a[k][k] for j in range(k + 1, n))
                ),
                None,
            )
            if offender is None:
                break
            # Fold the non-divisible row into the pivot row; the next pass
            # shrinks the pivot until it divides everything remaining.
            row_sub(k, offender, -1)

    diagonal = tuple(a[i][i] for i in range(n))
    for i in range(n - 1):
        if diagonal[i + 1] and (diagonal[i] == 0 or diagonal[i + 1] % diagonal[i]):
            raise ConsistencyError(f"divisibility chain broken at {diagonal}")
    if any(a[i][j] for i in range(n) for j in range(n) if i != j):
        raise ConsistencyError("reduction left an off-diagonal entry")
    product = _int_mul(_int_mul(u, _validate_integer_matrix(matrix)), v)
    if any(
        product[i][j] != (diagonal[i] if i == j else 0)
        for i in range(n)
        for j in range(n)
    ):
        raise ConsistencyError("transforms do not reproduce the diagonal")
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        raise ConsistencyError("transform is not unimodular")
    return SmithNormalForm(
        diagonal,
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )
