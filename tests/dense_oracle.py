"""The tests' dense matrix oracle, independent of ``tck.linalg``: the plain
triple-loop product, a product of several, the identity, a determinant by
Gaussian elimination, and the field map T_i -> c_i T_i on one entry.

Every dense reference route in the tests multiplies through here.  A factor
may be a nested list or a ``ScaledMatrix``, which reads as its dense view.
"""

from fractions import Fraction
from functools import reduce

from tck import RationalFunction


def dense_mul(a, b):
    """a * b by the triple loop over any ring with +, * and a zero, skipping
    the terms with a zero factor."""
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def dense_product(matrices):
    return reduce(dense_mul, matrices)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_det(a):
    """Determinant by fraction-producing Gaussian elimination over any field
    with ring operations, division and truthiness: the reference for int_det
    and for the generic pattern determinants over Q(T)."""
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


def substitute(entry, scalars):
    """entry(c_1 T_1, ..., c_k T_k) for the scalars c_i: a RationalFunction's
    numerator and denominator are summed term by term in RationalFunction
    arithmetic on the c_i T_i, sharing no code with the field part of
    ``ChevalleyAutomorphism.apply``; a rational entry is fixed."""
    if not isinstance(entry, RationalFunction):
        return entry
    images = [RationalFunction.variable(entry.nvars, i) * c for i, c in enumerate(scalars)]

    def evaluate(p):
        total = RationalFunction.constant(entry.nvars, 0)
        for exps, c in p.terms.items():
            term = RationalFunction.constant(entry.nvars, c)
            for image, e in zip(images, exps, strict=True):
                term = term * image ** e
            total = total + term
        return total

    return evaluate(entry.num) / evaluate(entry.den)
