"""Dense exact matrices as nested lists.

Entries may be Fraction or RationalFunction values; the helpers only assume
ring operations plus truthiness for zero tests, and division where stated.
Multiplication and inversion do no arithmetic on zeros, which matters
because the unipotent and torus generators used elsewhere are very sparse:
a product entry starts from its first nonzero term, and only later terms are
added to it, while an entry with no nonzero term keeps the zero; a diagonal
matrix inverts entrywise, and only other matrices go through Gauss-Jordan.
Those generators are built from sparse tables in ``chevalley`` and only
become dense here; integer determinants do not come here either, they use the
fraction-free ``spectrum.int_det``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

Matrix = list
_ONE, _ZERO = Fraction(1), Fraction(0)


def identity_matrix(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise DomainError("matrix shapes do not compose")
    zero = a[0][0] - a[0][0]
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        out_i = out[i]
        touched = [False] * m
        for t in range(k):
            x = row[t]
            if not x:
                continue
            b_t = b[t]
            for j in range(m):
                y = b_t[j]
                if y:
                    if touched[j]:
                        out_i[j] = out_i[j] + x * y
                    else:
                        out_i[j] = x * y
                        touched[j] = True
    return out


def mat_product(matrices) -> Matrix:
    matrices = list(matrices)
    result = matrices[0]
    for m in matrices[1:]:
        result = mat_mul(result, m)
    return result


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inv(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; entries must support division.

    A diagonal matrix is inverted entrywise, with one division per entry.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("matrix is not square")
    if is_diagonal(a):
        diagonal = diagonal_entries(a)
        if not any(diagonal):
            raise DomainError("zero matrix is not invertible")
        if not all(diagonal):
            raise DomainError("matrix is singular")
        out = [list(row) for row in a]
        for i, x in enumerate(diagonal):
            out[i][i] = 1 / x
        return out
    one = None
    for row in a:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        raise DomainError("zero matrix is not invertible")
    zero = one - one
    work = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = one / work[col][col]
        work[col] = [x * inv if x else x for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y if y else x for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def mat_det(a: Matrix):
    """Determinant by fraction-producing Gaussian elimination.

    Returns immediately with 0 when some pivot column is entirely zero, so
    determinants of matrices with certified zero columns cost nothing even
    over large function fields.
    """
    n = len(a)
    work = [list(row) for row in a]
    sign = 1
    det = None
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            z = work[0][0] - work[0][0]
            return z
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


def diagonal_entries(a: Matrix) -> list:
    return [a[i][i] for i in range(len(a))]


def is_diagonal(a: Matrix) -> bool:
    return all(not x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)
