"""Exact arithmetic over Q and over rational function fields Q(T1,...,Tk).

Rationals are stdlib Fraction values throughout; a polynomial coefficient or
scaling scalar passes the rational gate of ``errors``.
Polynomials are sparse maps from exponent tuples to coefficients.  The public
constructors write Fraction coefficients and arithmetic keeps the
coefficients' type, so the scaled generator matrices of ``chevalley`` stay in
Z[T].  In one variable a polynomial has a gcd, by primitive remainder
sequences with the content split off, and exact division; ``linalg`` inverts
and compares scaled Q(T) matrices with them.  Rational functions are
normalized quotients of polynomials over Fraction coefficients.  A scaling
automorphism T_i -> c_i T_i is held as its nonzero rational scalars c_i; it
acts on matrices only as the field part of ``ChevalleyAutomorphism.apply``
in ``chevalley``, which scales their Z[T] rows.  Rationals whose prime
supports are pairwise disjoint are multiplicatively independent, which is
what keeps distinct witnesses apart.  Supports are decided by gcds
and by stripping pairwise coprime bases, never by factoring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import ConsistencyError, DomainError, Record, charge, decimal, integer, rational
from .linalg import _strip_power, smith_normal_form

Exponent = tuple[int, ...]

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin on the first 13 prime bases.

    Exact below 3317044064679887385961981 (Sorenson and Webster, Math. Comp.
    86, 2017); larger n raise DomainError, since a probable answer is not exact.
    """
    if n >= _MILLER_RABIN_BOUND:
        raise DomainError(f"primality of {decimal(n)} is only decided below {_MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exponent_vector(x, base) -> list[int] | None:
    """Exponents e with |x| = prod(b**e_b), or None when |x| is no such product.

    The base must consist of pairwise coprime integers > 1; then the
    exponents are unique and stripping each base element in turn finds them.
    """
    x = rational(x)
    if x == 0:
        raise DomainError("0 has no exponent vector")
    num, den = abs(x.numerator), x.denominator
    vec = []
    for b in base:
        integer(b, 2, "a base element is an int > 1")
        up, num = _strip_power(num, b)
        down, den = _strip_power(den, b)
        vec.append(up - down)
    return vec if num == den == 1 else None


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 over which every given positive integer factors.

    Gcd refinement: b and n sharing g > 1 become g, b/g and n/g, which lowers
    the product of all base and pending numbers, so the loop ends.
    """
    base: list[int] = []
    pending = [n for n in numbers if n > 1]
    while pending:
        n = pending.pop()
        for i, b in enumerate(base):
            g = gcd(b, n)
            if g > 1:
                del base[i]
                pending += [m for m in (g, b // g, n // g) if m > 1]
                break
        else:
            base.append(n)
    return sorted(base)


def supports_pairwise_disjoint(values) -> bool:
    """True when the prime supports of the given nonzero rationals are pairwise disjoint."""
    seen = 1
    for v in values:
        v = rational(v)
        if v == 0:
            raise DomainError("prime support is undefined at 0")
        n = abs(v.numerator) * v.denominator
        if gcd(seen, n) > 1:
            return False
        seen *= n
    return True


def _grlex_key(exps: Exponent):
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial over Q.

    ``terms`` maps exponent tuples (one entry per variable, entries >= 0) to
    nonzero coefficients; the zero polynomial has an empty map.  The public
    constructors write Fraction coefficients; +, -, *, ** and scaling by an
    int keep the coefficients' type, so int coefficients give int
    coefficients (Gauss's lemma: a polynomial over Q is a rational times one
    over Z), and / gives a RationalFunction.  Where an order on terms matters
    it is graded lexicographic.  A constant polynomial equals its int or
    Fraction value, so the class has no hash.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction | int]):
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        integer(nvars, 0, "a polynomial needs an int variable count >= 0")
        value = rational(value)
        return cls(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        integer(nvars, 1, "a polynomial variable needs an int variable count >= 1")
        if not 0 <= integer(index, 0, "variable index is an int >= 0") < nvars:
            raise DomainError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise DomainError("polynomials over different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            if exps not in terms:
                terms[exps] = c
            elif s := terms[exps] + c:
                terms[exps] = s
            else:
                del terms[exps]
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
        return Polynomial(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else RationalFunction(self, other)

    def __pow__(self, n: int):
        integer(n, 0, "a polynomial power is an int >= 0; a negative one needs a RationalFunction")
        if n == 0:
            return Polynomial.constant(self.nvars, 1)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:  # no square past the last bit
                return result
            base = base * base

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def scale(self, c) -> "Polynomial":
        """c times self, the Fraction operand first; an int c keeps int coefficients int."""
        if type(c) is int:
            terms = {e: v * c for e, v in self.terms.items()} if c else {}
        elif isinstance(c, Fraction):
            terms = {e: c * v for e, v in self.terms.items()} if c else {}
        else:
            raise DomainError(f"unsupported scalar {c!r}")
        return Polynomial(self.nvars, terms)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded-lex leading term of a nonzero polynomial."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def _coefficients(self, other) -> tuple[list, list]:
        """Both operands as coefficient lists, constant term first; one variable only."""
        other = self._coerce(other)
        if other is None or self.nvars != 1:
            raise DomainError("gcd and exact division take polynomials in one variable")
        return _dense(self), _dense(other)

    def gcd(self, other) -> "Polynomial":
        """Greatest common divisor in one variable, with a positive leading coefficient.

        The contents (gcd of the coefficients' numerators over the lcm of
        their denominators) split off by Gauss's lemma, and the primitive
        parts run a primitive remainder sequence over Z (Collins, J. ACM 14,
        1967; Brown, J. ACM 18, 1971): each pseudo-remainder is divided by its
        content, which keeps the coefficients from growing exponentially along
        the sequence.  For int coefficients this is the gcd in Z[T] and its
        coefficients are ints.  gcd(0, 0) is 0.
        """
        (ca, a), (cb, b) = map(_primitive, self._coefficients(other))
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_remainder(a, b))[1]
        # a zero b leaves a as the gcd; a nonzero constant b means coprime
        g = [1] if b else a
        content = _rational_gcd(ca, cb)
        return _sparse(g if content == 1 else [c * content for c in g])

    def exact_quotient(self, other) -> "Polynomial":
        """self / other in one variable, which must divide it exactly.

        With int coefficients on both sides the quotient must lie in Z[T];
        otherwise it is taken over Q.  An inexact division raises
        ConsistencyError: callers divide only by what a gcd promises divides.
        """
        r, b = self._coefficients(other)
        if not b:
            raise ZeroDivisionError("exact division by the zero polynomial")
        lead, shift = b[-1], len(b) - 1
        q = [0] * max(len(r) - shift, 0)
        for top in range(len(r) - 1, shift - 1, -1):
            c = r[top]
            if not c:
                continue
            if type(c) is int and type(lead) is int:
                c, rest = divmod(c, lead)
                if rest:
                    raise ConsistencyError("polynomial division is not exact")
            else:
                c = c / lead
            q[top - shift] = c
            for i, x in enumerate(b):
                r[top - shift + i] -= c * x
        if any(r[:shift]):
            raise ConsistencyError("polynomial division is not exact")
        return _sparse(q)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
            mono = "*".join(f"T{i + 1}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _dense(p: Polynomial) -> list:
    """The coefficients of a polynomial in one variable, constant term first."""
    out = [0] * (max(p.terms)[0] + 1) if p.terms else []
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _sparse(coefficients) -> Polynomial:
    return Polynomial(1, {(i,): c for i, c in enumerate(coefficients) if c})


def _rational_gcd(x, y):
    """gcd of two nonnegative rationals: gcd of the numerators over lcm of the denominators."""
    num, den = gcd(x.numerator, y.numerator), lcm(x.denominator, y.denominator)
    return num if den == 1 else Fraction(num, den)


def _primitive(coefficients) -> tuple:
    """(content, int coefficients over it with a positive leading one); (0, []) for 0."""
    if not coefficients:
        return 0, []
    num = gcd(*(c.numerator for c in coefficients))
    den = lcm(*(c.denominator for c in coefficients))
    signed = -num if coefficients[-1] < 0 else num
    return (num if den == 1 else Fraction(num, den),
            [c.numerator // signed * (den // c.denominator) for c in coefficients])


def _pseudo_remainder(a: list, b: list) -> list:
    """lc(b)^e a mod b over Z, e the reduction steps, for len(a) >= len(b) >= 2."""
    r, lead, width = list(a), b[-1], len(b)
    while len(r) >= width:
        c, offset = r[-1], len(r) - width
        r = [x * lead for x in r]
        for i, x in enumerate(b):
            r[offset + i] -= c * x
        r.pop()  # its leading coefficient cancels
        while r and not r[-1]:
            r.pop()
    return r


class RationalFunction:
    """Quotient of two polynomials over the same variables.

    Normalization divides numerator and denominator exactly by the
    denominator's graded-lex leading coefficient, so the denominator is monic
    and every coefficient a Fraction even for int-coefficient inputs, and
    cancels any common monomial factor.
    Representations are not forced into lowest terms; equality is decided by
    cross-multiplication, which is exact and avoids multivariate gcds; with
    no canonical form, the class has no hash.  An int or Fraction operand of
    +, -, * and == skips coercion into a constant RationalFunction, and
    results already in normal form skip normalization: c*num/den,
    (num + c*den)/den, -num/den and num^n/den^n keep the terms the generic
    route gives.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if not (isinstance(num, Polynomial) and isinstance(den, Polynomial)):
            raise DomainError("a rational function is a quotient of two Polynomials")
        if num.nvars != den.nvars:
            raise DomainError("numerator and denominator over different variable counts")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = num
            self.den = Polynomial.constant(den.nvars, 1)
            return
        nvars = num.nvars
        shift = [min(col) for col in zip(*num.terms, *den.terms)]
        if any(shift):
            def unshift(p):
                return Polynomial(
                    nvars,
                    {tuple(e[i] - shift[i] for i in range(nvars)): c for e, c in p.terms.items()},
                )

            num = unshift(num)
            den = unshift(den)
        _, lead = den.leading_term()
        if lead != 1 or type(lead) is int:
            inv = Fraction(1, lead)
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _normal(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den as given, for a monic den with no monomial factor in common with num."""
        f = object.__new__(cls)
        f.num = num
        f.den = den if num.terms else Polynomial.constant(den.nvars, 1)
        return f

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(p.nvars, 1))

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.variable(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.nvars != self.nvars:
                raise DomainError("rational functions over different variable counts")
            return other
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise DomainError("rational functions over different variable counts")
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.nvars, other)
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # Terms of c*den all carry the den's lowest power of each
            # variable, so no common monomial factor can appear.
            return RationalFunction._normal(self.num + self.den.scale(other), self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._normal(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction._normal(self.num.scale(other), self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int):
        if integer(n, None, "rational function power") < 0:
            return self.reciprocal() ** (-n)
        # Powers keep the den monic, and the lowest power of each variable
        # scales by n on both sides, so no common monomial factor appears.
        return RationalFunction._normal(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.num == self.den.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        if self.den == Polynomial.constant(self.nvars, 1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class ScalingAutomorphism(Record):
    """Field automorphism of Q(T1,...,Tk) sending T_i to scalars[i]*T_i, held
    as its scalars; ``ChevalleyAutomorphism.apply`` carries its action."""

    scalars: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(map(rational, self.scalars))
        if any(c == 0 for c in coerced):
            raise DomainError("scaling automorphism needs nonzero scalars")
        object.__setattr__(self, "scalars", coerced)

    @property
    def variable_count(self) -> int:
        return len(self.scalars)

    def compose(self, other: "ScalingAutomorphism") -> "ScalingAutomorphism":
        if not isinstance(other, ScalingAutomorphism):
            raise DomainError("a scaling automorphism composes with a ScalingAutomorphism")
        if other.variable_count != self.variable_count:
            raise DomainError("scaling automorphisms over different variable counts")
        return ScalingAutomorphism(tuple(a * b for a, b in zip(self.scalars, other.scalars)))

    def __pow__(self, n: int) -> "ScalingAutomorphism":
        # c ** n has about |n| times the digits of c, so |n| is charged
        # against the closure cap before any power is taken
        integer(n, None, "scaling automorphism power")
        charge(abs(n), lambda cap: f"scaling automorphism power {decimal(n)} exceeds closure "
               f"cap {cap}")
        return ScalingAutomorphism(tuple(c ** n for c in self.scalars))

    @classmethod
    def identity(cls, nvars: int) -> "ScalingAutomorphism":
        return cls((Fraction(1),) * integer(nvars, 0, "variable count is an int >= 0"))


def _lattice_divisors(rows, width: int):
    """(column of V, d) for the Smith divisors d != 1 of the generators' exponent rows.

    A vector v over the ``width`` base columns lies in the integer row span
    exactly when w = v*V has w_j = 0 where d_j = 0 and d_j | w_j elsewhere;
    a column with d_j = 1 always passes, so it is left out.
    """
    # Pad to a square system; zero rows and columns do not change
    # solvability of x*A = v over Z.  The padded entries of v are 0, so only
    # the base rows of V enter w.
    size = max(len(rows), width)
    matrix = [row + [0] * (size - width) for row in rows]
    matrix += [[0] * size for _ in range(size - len(rows))]
    decomp = smith_normal_form(matrix)
    return [(tuple(row[j] for row in decomp.right[:width]), d)
            for j, d in enumerate(decomp.diagonal) if d != 1]


def character_lattice(generators):
    """Membership test for the subgroup of Q* generated by the given rationals.

    Works on exponent vectors over a coprime base of the generators'
    numerators and denominators: lam is a member only if it factors over that
    base, and then membership reduces to an integer linear system, solved
    through the Smith normal form of the generators' exponent matrix.  Only
    positive generators arise here (even powers), so a negative lam is never
    a member.  The base is built on the first query past the sign and unit
    checks, the Smith form on the first query that factors over the base;
    every later query reuses both.
    """
    gens = [rational(g) for g in generators]
    if any(g <= 0 for g in gens):
        raise DomainError("character lattice generators must be positive")
    base = divisors = None

    def member(lam) -> bool:
        nonlocal base, divisors
        lam = rational(lam)
        if lam == 0:
            raise DomainError("0 is not a unit")
        if lam < 0:
            return False
        if lam == 1:
            return True
        if base is None:
            base = _coprime_base([n for g in gens for n in (g.numerator, g.denominator)])
        target = exponent_vector(lam, base)
        if target is None:
            return False
        if divisors is None:
            rows = [exponent_vector(g, base) for g in gens if g != 1]
            divisors = _lattice_divisors(rows, len(base))
        for column, d in divisors:
            w = sum(t * v for t, v in zip(target, column))
            if w % d if d else w:
                return False
        return True

    return member


def character_lattice_member(lam, generators) -> bool:
    """Is lam a product of integer powers of the given positive rationals?"""
    return character_lattice(generators)(lam)
