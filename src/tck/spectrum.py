"""Closed-form Reidemeister counts and spectra for lattice-like families.

For an automorphism of Z^n given by a unimodular matrix M, the twisted
class of y is the coset y + (I - M)Z^n, so the count is the cokernel order
|det(M - I)|, or infinite when that determinant vanishes.  The Smith normal
form from ``linalg`` is the workhorse: it gives cokernel orders both over Z
and over Z/m, the latter feeding the brute-force cross-checks.

The discrete rank-two nilpotent lattice (upper unitriangular 3x3 integer
matrices) gets the product formula |det(M - I)| * |det M - 1| from its
abelianization/center splitting, validated here by exhaustive enumeration
on the mod-m quotients.  The lamplighter criterion and the two-generator
metabelian case table are carried as closed-form data with membership
predicates; no group element of those families is ever constructed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ConsistencyError, DomainError, Record, decimal, integer, rational
from .linalg import _strip_power, int_det, smith_normal_form

TYPE_CHECKING = False  # as typing.TYPE_CHECKING reads, without importing typing
if TYPE_CHECKING:
    from .twisted import FiniteGroup, GroupAutomorphism


class ExtendedCount(Record):
    """A positive integer or infinity (value None); a finite count equals and
    hashes as its int."""

    value: int | None

    def __post_init__(self):
        if self.value is not None:
            integer(self.value, 1, "count must be a positive integer")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        if isinstance(other, ExtendedCount):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        return "infinity" if self.value is None else str(self.value)

    def __repr__(self):
        return f"ExtendedCount({self})"


INFINITY = ExtendedCount(None)


def _require_unimodular(matrix) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    if abs(int_det(rows)) != 1:
        raise DomainError("matrix is not unimodular")
    return rows


def _require_unimodular_2x2(matrix) -> list[list[int]]:
    rows = _require_unimodular(matrix)
    if len(rows) != 2:
        raise DomainError("expected a 2x2 matrix")
    return rows


def reidemeister_zn(matrix) -> ExtendedCount:
    """Twisted class count for the Z^n automorphism given by a unimodular matrix."""
    m = _require_unimodular(matrix)
    n = len(m)
    shifted = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    snf = smith_normal_form(shifted)
    if any(d == 0 for d in snf.diagonal):
        return INFINITY
    count = 1
    for d in snf.diagonal:
        count *= d
    if count != abs(int_det(shifted)):
        raise ConsistencyError("cokernel order disagrees with the determinant")
    return ExtendedCount(count)


def zn_fullness_witness(n: int, m: int) -> list[list[int]]:
    """A unimodular n x n matrix whose twisted class count is exactly m.

    In rank 2 it is the core [[0, 1], [-1, 2 - m]], and in higher rank the
    companion matrix of p(x) = x^n + m*x^(n-1) - 1: its determinant is
    (-1)^n p(0) = +-1, and the count |det(A - 1)| = |p(1)| is m.
    """
    integer(n, 2, "rank must be at least 2: rank one admits only 2 and infinity")
    integer(m, 1, "target count must be at least 1")
    if n == 2:
        witness = [[0, 1], [-1, 2 - m]]
    else:
        witness = [[0] * n for _ in range(n)]
        for i in range(1, n):
            witness[i][i - 1] = 1
        witness[0][n - 1] = 1
        witness[n - 1][n - 1] = -m
    achieved = reidemeister_zn(witness)
    if achieved != m:
        raise ConsistencyError(f"witness for {m} computes {achieved}")
    return witness


def cokernel_order_mod(matrix, m: int) -> int:
    """Order of the cokernel of an integer matrix acting on (Z/m)^n."""
    integer(m, 1, "modulus must be positive")
    snf = smith_normal_form(matrix)
    order = 1
    for d in snf.diagonal:
        order *= gcd(d, m)
    return order


def heisenberg_reidemeister(matrix) -> ExtendedCount:
    """Count for the nilpotent lattice automorphism over the 2x2 abelianized map.

    The center transforms by det M, so the two factors are the cokernel
    orders on the abelianization and on the center; a zero in either place
    means infinitely many classes.  Finite values are always even because
    finiteness forces det M = -1.
    """
    m = _require_unimodular_2x2(matrix)
    abelian = int_det([[m[0][0] - 1, m[0][1]], [m[1][0], m[1][1] - 1]])
    central = int_det(m) - 1
    if abelian == 0 or central == 0:
        return INFINITY
    return ExtendedCount(abs(abelian) * abs(central))


def heisenberg_group(m: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/m, generated by the two slots."""
    from .twisted import closure  # only the finite-group oracles need twisted

    integer(m, 2, "modulus must be at least 2")
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    group = closure([x, y], modulus=m)
    if len(group) != m**3:
        raise ConsistencyError(f"expected order {m**3}, closure found {len(group)}")
    return group


def heisenberg_automorphism(group: FiniteGroup, matrix) -> GroupAutomorphism:
    """Lift of a unimodular 2x2 matrix through the generator images.

    x and y map to x^a y^c and x^b y^d (columns of the matrix), with
    x^a y^c = ((1, a, ac), (0, 1, c), (0, 0, 1)) reduced mod m by the element
    gate, which refuses it outside a Heisenberg group.  Over even moduli the
    lift can fail to be a homomorphism; that surfaces as a domain error from
    the image verification.
    """
    from .twisted import GroupAutomorphism

    (a, b), (c, d) = _require_unimodular_2x2(matrix)
    images = [((1, p, p * q), (0, 1, q), (0, 0, 1)) for p, q in ((a, c), (b, d))]
    return GroupAutomorphism.from_generator_images(group, images)


def heisenberg_oracle(matrix, m: int) -> int:
    """Brute-force twisted class count on the mod-m unitriangular group."""
    from .twisted import reidemeister_number

    group = heisenberg_group(m)
    phi = heisenberg_automorphism(group, matrix)
    return reidemeister_number(group, phi)


def heisenberg_cokernel_product(matrix, m: int) -> int:
    """The mod-m shadow of the closed-form count: both cokernel factors."""
    rows = _require_unimodular_2x2(matrix)
    shifted = [[rows[0][0] - 1, rows[0][1]], [rows[1][0], rows[1][1] - 1]]
    return cokernel_order_mod(shifted, m) * gcd(int_det(rows) - 1, m)


def lamplighter_r_infinity(n: int) -> bool:
    """Whether every automorphism of the order-n lamplighter has infinite count."""
    integer(n, 2, "lamp group order must be at least 2")
    return n % 2 == 0 or n % 3 == 0


def _prime_power_exponent(p: int, w: int) -> int | None:
    """k >= 1 with p^k = w, else None."""
    if w < p:
        return None
    k, rest = _strip_power(w, p)
    return k if rest == 1 else None


class SpectrumDescriptor(Record):
    """Symbolic spectrum of a two-parameter metabelian family.

    `case` is one of equal-units, opposite-units, reciprocal-pair, generic;
    membership of any concrete positive integer or infinity is decidable
    through `contains`.  In the opposite-units case the 4*p^l member family
    requires l >= 1; the boundary l = 0 is excluded as the set is written.
    """

    case: str
    prime: int
    set_form: str

    def contains(self, value) -> bool:
        if isinstance(value, ExtendedCount):
            if not value.is_finite:
                return True
            value = value.value
        integer(value, 1, "membership query needs a positive integer")
        p = self.prime
        if self.case == "generic":
            return False
        if value % 2:
            return False
        w = value // 2
        if self.case == "equal-units":
            return gcd(w, p) == 1
        if self.case == "opposite-units":
            top, _ = _strip_power(w, p)
            for ell in range(1, top + 1):
                rest = w // p**ell
                if rest == 2:
                    return True
                if _prime_power_exponent(p, rest + 1) or _prime_power_exponent(p, rest - 1):
                    return True
            return False
        if self.case == "reciprocal-pair":
            if value == 4:
                return True
            if _prime_power_exponent(p, w - 1) or _prime_power_exponent(p, w + 1):
                return True
            return False
        raise ConsistencyError(f"unknown case {self.case!r}")


def _unit_power(p: int, value: Fraction) -> None:
    if not value:
        raise DomainError("diagonal values must be nonzero")
    num = _strip_power(abs(value.numerator), p)[1]
    den = _strip_power(value.denominator, p)[1]
    if num != 1 or den != 1:
        raise DomainError(f"{decimal(value)} is not a unit once {p} is inverted "
                          f"(cofactor {decimal(Fraction(num, den))})")


def metabelian_spectrum(r, s, p: int) -> SpectrumDescriptor:
    """Spectrum descriptor for diag(r, s) acting on the rank-two p-local lattice."""
    from .fields import _is_prime  # the only use of fields in this module

    message = f"{decimal(p)} is not prime"
    if not _is_prime(integer(p, 2, message)):
        raise DomainError(message)
    r, s = rational(r), rational(s)
    _unit_power(p, r)
    _unit_power(p, s)
    if r == s and abs(r) == 1:
        return SpectrumDescriptor(
            "equal-units",
            p,
            f"{{2n : n >= 1, gcd(n, {p}) = 1}} U {{infinity}}",
        )
    if r == -s and abs(r) == 1:
        return SpectrumDescriptor(
            "opposite-units",
            p,
            f"{{2*{p}^l*({p}^k - 1), 2*{p}^l*({p}^k + 1), 4*{p}^l : k >= 1, l >= 1}}"
            " U {infinity}",
        )
    if r * s == 1 and abs(r) != 1:
        return SpectrumDescriptor(
            "reciprocal-pair",
            p,
            f"{{2*({p}^l - 1), 2*({p}^l + 1) : l >= 1}} U {{4}} U {{infinity}}",
        )
    return SpectrumDescriptor("generic", p, "{infinity}")


def abelian_oracle_count(matrix, m: int) -> int:
    """Brute-force twisted class count of a unimodular matrix acting on (Z/m)^n.

    The group is closed from the unit translations [[I, e_k], [0, 1]] mod m,
    the encoding heisenberg_group uses, under the closure cap; the matrix
    sends e_k to the translation by its column k.  This is the slow
    independent check against the Smith-form cokernel order.
    """
    from .twisted import GroupAutomorphism, closure, reidemeister_number

    rows = _require_unimodular(matrix)
    n = len(rows)
    integer(m, 2, "modulus must be at least 2")

    def translation(vector):
        """[[I, vector], [0, 1]], an (n + 1) x (n + 1) matrix."""
        return [[int(i == j) for j in range(n)] + [vector[i]] for i in range(n)] + [[0] * n + [1]]

    basis = [translation([int(i == k) for i in range(n)]) for k in range(n)]
    group = closure(basis, modulus=m)
    if len(group) != m**n:
        raise ConsistencyError(f"translation closure has order {len(group)}, expected {m**n}")
    images = [translation([rows[i][k] for i in range(n)]) for k in range(n)]
    phi = GroupAutomorphism.from_generator_images(group, images)
    return reidemeister_number(group, phi)
