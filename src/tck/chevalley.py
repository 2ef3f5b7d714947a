"""Adjoint Chevalley group elements as exact matrices.

The underlying module is the Lie algebra in its Chevalley basis, ordered as
e_beta for beta running over ``rs.roots`` (positives by height then
lexicographically, followed by the mirrored negatives) and then the Cartan
elements h_1, ..., h_l attached to the simple roots.  Every matrix in this
module is written against that basis, so the dimension is always
len(rs.roots) + rs.rank.

Generators:

    x_alpha(t)   exp(t ad e_alpha); the series terminates because ad e_alpha
                 is nilpotent.  Its terms come straight from the bracket
                 table: column j holds (ad e_alpha)^k e_j / k! for k >= 1,
                 each a sparse vector, until the vector vanishes.  In the
                 Chevalley basis these vectors are integral (Steinberg,
                 Lectures on Chevalley Groups, Sec. 1; Carter, Simple Groups
                 of Lie Type, Thm 4.2.1), so the terms are stored as ints and
                 a non-integral one raises ConsistencyError.
    n_alpha(t)   x_alpha(t) x_{-alpha}(-1/t) x_alpha(t); monomial, realizes
                 the reflection in alpha on root spaces.
    h_alpha(t)   n_alpha(t) n_alpha(-1); diagonal with entry t^<beta, alpha^v>
                 at e_beta and 1 on the Cartan block.  It is computed as
                 that diagonal; the tests and acceptance criteria 8 and 9
                 keep the product n_alpha(t) n_alpha(-1) as the reference
                 route.

The generators return a ``linalg.ScaledMatrix``.  With t = p/q, p and q
integers or polynomials, x_alpha(t) is M / q^K for K the largest exponent of
its terms and M the matrix with q^K on the diagonal and c p^k q^(K-k) for the
term c t^k, integral because the terms are.  Over Q(T), p and q are first
multiplied by the lcm of their coefficients' denominators, so M and q^K lie in
Z[T]; a multi-term q^K stays uncancelled.  n_alpha and
commutator_relation_check fold linalg's sparse product over such factors.
h_alpha(p/q) is its diagonal p^(K+k) q^(K-k) over (pq)^K, K the largest |k|,
with both signs flipped over Q where (pq)^K < 0.  Its inverse stays scaled
over Q and, through one gcd over Z[T] per distinct diagonal value, over Q(T)
in one variable, where its denominator is that of h_alpha(1/t)
(``linalg.mat_inv``).  The tests keep the dense exponential, the dense t^k
diagonal and dense products as the reference routes.

Automorphisms come in four families (inner, diagonal, field, graph) and a
composite applies them in the fixed order inner, diagonal, field, graph.
A diagonal part is held as its entries at the roots and scales entry (i, j) by
d_i / d_j.  A diagram symmetry acts by a signed basis permutation, moving entry
(i, j) to the images of i and j, negated where their signs differ; the signs
are forced by the structure constants and are recorded per root, since the
naive unsigned permutation need not respect the brackets.

The per-root tables behind x_alpha and h_alpha live in ``rs.tables``, so
they are freed with their root system; no module-level cache holds one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import ConsistencyError, DomainError, integer, rational
from .fields import Polynomial, RationalFunction, ScalingAutomorphism, apply_scaling, is_prime
from .linalg import Matrix, ScaledMatrix, mat_inv, mat_product
from .roots import DiagramSymmetry, RootSystem, root_permutation


def adjoint_dimension(rs: RootSystem) -> int:
    return len(rs.roots) + rs.rank


def _coerce_scalar(t):
    if isinstance(t, Polynomial):
        return RationalFunction.from_polynomial(t)
    return t if isinstance(t, RationalFunction) else rational(t)


def bracket_coordinates(rs: RootSystem, i: int, j: int) -> dict[int, Fraction]:
    """Bracket of basis elements i and j as a sparse coordinate vector."""
    m = len(rs.roots)
    if i >= m and j >= m:
        return {}
    if i >= m:
        sign, i, j = -1, j, i
    else:
        sign = 1
    if j >= m:
        # [e_alpha, h_t] = -<alpha, alpha_t^v> e_alpha, flipped by `sign`
        # when the Cartan element came first.
        t = j - m
        alpha = rs.roots[i]
        c = sum(alpha[s] * rs.cartan[s][t] for s in range(rs.rank))
        return {i: Fraction(-sign * c)} if c else {}
    alpha, beta = rs.roots[i], rs.roots[j]
    if beta == rs.negate(alpha):
        coords = rs.coroot_coordinates(alpha)
        return {m + k: Fraction(c) for k, c in enumerate(coords) if c}
    total = rs.add(alpha, beta)
    if rs.is_root(total):
        return {rs.root_index[total]: Fraction(rs.constants.n(alpha, beta))}
    return {}


def _memoised_on_root_system(build):
    """Memoise build(rs, alpha) in ``rs.tables`` under the key (build, alpha)."""

    def table(rs: RootSystem, alpha):
        key = (build, alpha)
        if key not in rs.tables:
            rs.tables[key] = build(rs, alpha)
        return rs.tables[key]

    return table


@_memoised_on_root_system
def _exp_entries(rs: RootSystem, alpha) -> tuple:
    """Terms (i, j, c, k) of exp(t ad e_alpha): the integer c times t^k is added at (i, j).

    Column j collects (ad e_alpha)^k e_j / k!, each vector the bracket image
    of the previous one divided by k, until it vanishes.  Position (i, j)
    gets at most one term, since weight(i) = weight(j) + k*alpha fixes k,
    and never the diagonal.  The generators assign each term to its position
    on that promise, so a repeated or diagonal position raises
    ConsistencyError.
    """
    a = rs.root_index[alpha]
    out = []
    for j in range(adjoint_dimension(rs)):
        vector = {j: 1}
        placed = set()
        k = 1
        while True:
            image = {}
            for s, c in vector.items():
                for i, b in bracket_coordinates(rs, a, s).items():
                    image[i] = image.get(i, 0) + c * b
            vector = {}
            for i, total in image.items():
                c = Fraction(total, k)
                if c.denominator != 1:
                    raise ConsistencyError(
                        f"exp(ad e_{alpha}) coefficient {c} at ({i}, {j}) is not integral"
                    )
                if c:
                    vector[i] = c.numerator
            if not vector:
                break
            for i, c in vector.items():
                if i == j or i in placed:
                    raise ConsistencyError(
                        f"exp(ad e_{alpha}) has a second or diagonal term at ({i}, {j})"
                    )
                placed.add(i)
                out.append((i, j, c, k))
            k += 1
    return tuple(out)


def x_alpha(rs: RootSystem, alpha, t) -> ScaledMatrix:
    return _scaled_x_alpha(rs, rs.check_root(alpha), _coerce_scalar(t))


def n_alpha(rs: RootSystem, alpha, t) -> ScaledMatrix:
    alpha = rs.check_root(alpha)
    t = _coerce_scalar(t)
    if not t:
        raise DomainError("n_alpha requires t != 0")
    return _scaled_product(rs, [(alpha, t), (rs.negate(alpha), -(t ** -1)), (alpha, t)])


@_memoised_on_root_system
def _pairings(rs: RootSystem, alpha) -> tuple:
    """(K, the distinct k, the pairs (i, k)): k = <beta_i, alpha^v> != 0 over
    the roots beta_i, and K the largest |k|."""
    pairs = []
    for i, beta in enumerate(rs.roots):
        k = rs.cartan_integer(beta, alpha)
        if k:
            pairs.append((i, k))
    return max(abs(k) for _, k in pairs), tuple({k for _, k in pairs}), tuple(pairs)


def h_alpha(rs: RootSystem, alpha, t) -> ScaledMatrix:
    """diag(t^<beta, alpha^v>) at the roots, 1 on the Cartan block, over (pq)^K."""
    alpha = rs.check_root(alpha)
    t = _coerce_scalar(t)
    if not t:
        raise DomainError("h_alpha requires t != 0")
    # t^k = p^(K+k) q^(K-k) / (pq)^K for |k| <= K
    (depth, exponents, pairings), (p, q) = _pairings(rs, alpha), _cleared(t)
    den = (p * q) ** depth
    values = {k: _power_product(p, depth + k, q, depth - k) for k in exponents}
    if isinstance(den, int) and den < 0:
        # over Q the denominator is positive, so both signs flip
        den, values = -den, {k: -v for k, v in values.items()}
    rows = [{i: den} for i in range(adjoint_dimension(rs))]
    for i, k in pairings:
        rows[i] = {i: values[k]}
    return ScaledMatrix(rows, den)


class GraphMatrixRealization:
    """A diagram symmetry as a signed basis permutation of the adjoint module.

    Simple roots carry sign +1; the sign of a composite root is forced by
    requiring the permutation to respect the bracket at its extraspecial
    decomposition, and opposite roots share a sign.  Construction verifies
    bracket compatibility on every basis pair, so conjugation by the signed
    permutation is an algebra (hence group) automorphism.
    """

    def __init__(self, rs: RootSystem, symmetry: DiagramSymmetry):
        self.rs = rs
        self.symmetry = symmetry
        self.root_images = root_permutation(rs, symmetry)
        data = rs.constants
        signs: dict = {}
        for beta in rs.positive_roots:
            if sum(beta) == 1:
                signs[beta] = 1
                continue
            a, b = data.extraspecial_pair(beta)
            ra, rb = (rs.roots[self.root_images[rs.root_index[x]]] for x in (a, b))
            ratio = Fraction(data.n(ra, rb), data.n(a, b))
            if ratio != 1 and ratio != -1:
                raise ConsistencyError(f"sign ratio {ratio} at {beta} is not a unit")
            signs[beta] = signs[a] * signs[b] * int(ratio)
        for beta in rs.positive_roots:
            signs[rs.negate(beta)] = signs[beta]
        self.signs = signs
        self._images = [self._basis_image(i) for i in range(adjoint_dimension(rs))]
        self._verify()

    def _basis_image(self, i: int) -> tuple[int, int]:
        rs = self.rs
        m = len(rs.roots)
        if i < m:
            return self.root_images[i], self.signs[rs.roots[i]]
        return m + self.symmetry.permutation[i - m], 1

    def _verify(self):
        rs = self.rs
        images = self._images
        for i, (pi, si) in enumerate(images):
            for j in range(i + 1, len(images)):
                pj, sj = images[j]
                pushed = {}
                for k, c in bracket_coordinates(rs, i, j).items():
                    pk, sk = images[k]
                    pushed[pk] = c * sk
                direct = {
                    k: c * si * sj for k, c in bracket_coordinates(rs, pi, pj).items()
                }
                if pushed != direct:
                    raise ConsistencyError(
                        f"sign table breaks the bracket at basis pair ({i}, {j})"
                    )

    def apply(self, x: Matrix) -> Matrix:
        out = [[None] * len(x) for _ in x]
        for (pi, si), row in zip(self._images, x):
            target = out[pi]
            for (pj, sj), entry in zip(self._images, row):
                target[pj] = entry if si == sj else -entry
        return out


def _validate_torus(rs: RootSystem, diagonal) -> tuple:
    """The diagonal part's entries at ``rs.roots``, checked to be a character."""
    entries = tuple(map(_coerce_scalar, diagonal))
    if len(entries) != len(rs.roots):
        raise DomainError(f"diagonal part needs {len(rs.roots)} root entries, got {len(entries)}")
    if not all(entries):
        raise DomainError("diagonal part is singular")
    # Root entries must form a character: the entry at beta is prod c_k^beta_k
    # over the simple-root entries c_k, with negative powers cleared so that
    # integer and polynomial entries stay exact.
    simple = [entries[rs.root_index[tuple(int(j == k) for j in range(rs.rank))]]
              for k in range(rs.rank)]
    for i, beta in enumerate(rs.roots):
        if (entries[i] * prod(c ** -b for c, b in zip(simple, beta) if b < 0)
                != prod(c ** b for c, b in zip(simple, beta) if b > 0)):
            raise DomainError(f"diagonal entries are not a character at {beta}")
    return entries


class ChevalleyAutomorphism:
    """Composite automorphism: inner, then diagonal, then field, then graph.

    Any of the four parts may be omitted.  The diagonal part is a torus
    element given by its entries at ``rs.roots`` (the Cartan block is 1),
    which must form a character; the field part acts entrywise and fixes
    rational constants; the graph part conjugates by the signed permutation
    realization of a diagram symmetry.
    """

    def __init__(self, rs: RootSystem, inner: Matrix | None = None,
                 diagonal=None,
                 graph: DiagramSymmetry | None = None,
                 field: ScalingAutomorphism | None = None):
        self.rs = rs
        dim = adjoint_dimension(rs)
        self.inner = self._inner_inverse = None
        if inner is not None:
            if len(inner) != dim or len(inner[0]) != dim:
                raise DomainError("inner part has the wrong dimension")
            self.inner = [list(map(_coerce_scalar, row)) for row in inner]
            self._inner_inverse = mat_inv(self.inner)
        self.diagonal = None if diagonal is None else _validate_torus(rs, diagonal)
        self.graph = graph
        self._graph_realization = (
            GraphMatrixRealization(rs, graph) if graph is not None else None
        )
        self.field = field

    def _apply_field(self, x: Matrix) -> Matrix:
        delta = self.field
        out = []
        for i, row in enumerate(x):
            new_row = []
            for j, entry in enumerate(row):
                entry = _coerce_scalar(entry)
                if isinstance(entry, RationalFunction):
                    if entry.nvars != delta.variable_count:
                        raise DomainError(
                            f"entry ({i}, {j}) lives over {entry.nvars} variables, "
                            f"the field automorphism over {delta.variable_count}"
                        )
                    entry = apply_scaling(delta, entry)
                new_row.append(entry)
            out.append(new_row)
        return out

    def apply(self, x: Matrix) -> Matrix:
        dim = adjoint_dimension(self.rs)
        # every row: the index forms below would pass a short row over silently
        if len(x) != dim or any(len(row) != dim for row in x):
            raise DomainError("matrix dimension does not match the root system")
        if self.inner is not None:
            x = mat_product([self.inner, x, self._inner_inverse])
        if self.diagonal is not None:
            # entry (i, j) scales by d_i / d_j, the Cartan entries being 1
            d = self.diagonal + (Fraction(1),) * self.rs.rank
            x = [[e * d[i] / d[j] if e else e for j, e in enumerate(row)]
                 for i, row in enumerate(x)]
        if self.field is not None:
            x = self._apply_field(x)
        if self._graph_realization is not None:
            x = self._graph_realization.apply(x)
        return x


def _string_product(rs: RootSystem, base, step, count) -> Fraction:
    """(1/count!) N(step, base) N(step, step+base) ... over `count` brackets."""
    data = rs.constants
    value = Fraction(1)
    current = base
    for _ in range(count):
        value *= data.n(step, current)
        current = rs.add(step, current)
    for k in range(2, count + 1):
        value /= k
    return value


def commutator_factors(rs: RootSystem, alpha, beta) -> list[tuple]:
    """Factors (gamma, i, j, constant) of the closed commutator form.

    The commutator x_beta(u)^-1 x_alpha(t)^-1 x_beta(u) x_alpha(t) equals the
    product of x_{i alpha + j beta}(constant * (-t)^i * u^j) over the returned
    factors, taken in order.
    """
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    if beta == alpha or beta == rs.negate(alpha):
        raise DomainError("commutator form requires beta != +-alpha")
    factors = []
    pairs = sorted(
        ((i, j) for i in range(1, 4) for j in range(1, 4)),
        key=lambda p: (p[0] + p[1], p[0]),
    )
    for i, j in pairs:
        gamma = tuple(i * a + j * b for a, b in zip(alpha, beta))
        if not rs.is_root(gamma):
            continue
        if j == 1:
            c = _string_product(rs, beta, alpha, i)
        elif i == 1:
            c = Fraction(-1) ** j * _string_product(rs, alpha, beta, j)
        elif (i, j) == (3, 2):
            c = Fraction(1, 3) * _string_product(rs, alpha, rs.add(alpha, beta), 2)
        elif (i, j) == (2, 3):
            c = Fraction(-2, 3) * _string_product(rs, beta, rs.add(beta, alpha), 2)
        else:
            raise ConsistencyError(f"unexpected root string pair ({i}, {j})")
        if c.denominator != 1:
            raise ConsistencyError(f"commutator constant {c} at ({i}, {j}) is not integral")
        factors.append((gamma, i, j, c))
    return factors


def commutator_relation_check(rs: RootSystem, alpha, beta, t, u) -> bool:
    """Whether the group commutator matches its structure-constant expansion."""
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    t = _coerce_scalar(t)
    u = _coerce_scalar(u)
    left = [(beta, -u), (alpha, -t), (beta, u), (alpha, t)]
    right = [
        (gamma, c * (-t) ** i * u**j) for gamma, i, j, c in commutator_factors(rs, alpha, beta)
    ]
    return _scaled_product(rs, left) == _scaled_product(rs, right)


def _scaled_x_alpha(rs: RootSystem, alpha, t) -> ScaledMatrix:
    """x_alpha(t) as sparse rows {column: entry} over one denominator d.

    For t = p/q and K the largest exponent among the terms, d = q^K; the
    diagonal holds d and the term c t^k becomes c p^k q^(K-k).  Over Q the
    entries are ints.  Over Q(T), p and q are first multiplied by the lcm of
    their coefficients' denominators, so the entries are polynomials with
    int coefficients.
    """
    entries = _exp_entries(rs, alpha)
    depth = max(k for _, _, _, k in entries)
    p, q = _cleared(t)
    d = q**depth
    rows = [{i: d} for i in range(adjoint_dimension(rs))]
    if p:
        scale = [None, *(_power_product(p, k, q, depth - k) for k in range(1, depth + 1))]
        for i, j, c, k in entries:
            rows[i][j] = c * scale[k]
    return ScaledMatrix(rows, d)


def _cleared(t) -> tuple:
    """(p, q) with t = p/q: ints over Q; over Q(T) the numerator and denominator
    times the lcm of their coefficients' denominators, so polynomials in Z[T]."""
    if not isinstance(t, RationalFunction):
        return t.numerator, t.denominator
    m = lcm(*(c.denominator for f in (t.num, t.den) for c in f.terms.values()))
    return tuple(Polynomial(f.nvars, {e: c.numerator * (m // c.denominator)
                                      for e, c in f.terms.items()}) for f in (t.num, t.den))


def _power_product(p, i, q, j):
    """p^i q^j for i + j > 0, with no zeroth power: over Q(T) that is a Fraction constant."""
    if not i:
        return q**j
    return p**i * q**j if j else p**i


def _scaled_product(rs: RootSystem, parameters) -> ScaledMatrix:
    """Product of x_gamma(s) over the (gamma, s) pairs."""
    if not parameters:
        return ScaledMatrix([{i: 1} for i in range(adjoint_dimension(rs))], 1)
    return mat_product(_scaled_x_alpha(rs, gamma, s) for gamma, s in parameters)


def reduce_mod_p(x: Matrix, p: int) -> list[list[int]]:
    """Entrywise reduction of a rational matrix modulo a prime."""
    message = f"{p} is not prime"
    if not is_prime(integer(p, 2, message)):
        raise DomainError(message)
    out = []
    for i, row in enumerate(x):
        new_row = []
        for j, entry in enumerate(row):
            entry = rational(entry)
            if entry.denominator % p == 0:
                raise DomainError(f"entry ({i}, {j}) = {entry} has denominator divisible by {p}")
            new_row.append(entry.numerator * pow(entry.denominator, -1, p) % p)
        out.append(new_row)
    return out
