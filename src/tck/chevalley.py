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
over Q and Q(T); in one variable, through one gcd over Z[T] per distinct
diagonal value, its denominator is that of h_alpha(1/t)
(``linalg.mat_inv``).  The tests keep the dense exponential, the dense t^k
diagonal and dense products, in their own dense oracle, as the reference
routes.

Automorphisms are the parts that can change R(phi): diagonal, field and
graph, applied in that order to a ``ScaledMatrix``, returning one.  The inner
part of Steinberg's decomposition (Lectures on Chevalley Groups, Yale 1967)
leaves R unchanged (criterion 4) and is not carried; conjugation by a word is
mat_product over its x_alpha factors.  The diagonal part is given by its
simple-root values and conjugates by its torus matrix and the inverse, both
built once.  A diagram symmetry acts by a signed basis permutation, moving
entry (i, j) to the images of i and j, negated where their signs differ; the
signs are forced by the structure constants and are recorded per root, since
the naive unsigned permutation need not respect the brackets.

The per-root tables behind x_alpha and h_alpha, and the commutator factors
of each root pair, live in ``rs.tables``, so they are freed with their root
system; no module-level cache holds one.
"""

from __future__ import annotations

from math import factorial, lcm, prod
from operator import mul

from .errors import ConsistencyError, DomainError, decimal, integer, rational
from .linalg import ScaledMatrix, mat_product
from .roots import DiagramSymmetry, RootSystem, root_permutation


def adjoint_dimension(rs: RootSystem) -> int:
    return len(rs.roots) + rs.rank


def _coerce_scalar(t):
    """t as a Fraction, or over Q(T) as a RationalFunction.  Anything with a
    denominator goes to the rational gate, so an int or a Fraction never
    imports ``fields``."""
    if hasattr(t, "denominator"):
        return rational(t)
    from .fields import Polynomial, RationalFunction

    if isinstance(t, Polynomial):
        return RationalFunction.from_polynomial(t)
    return t if isinstance(t, RationalFunction) else rational(t)


def bracket_coordinates(rs: RootSystem, i: int, j: int) -> dict[int, int]:
    """Bracket of basis elements i and j as a sparse integer coordinate vector."""
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
        c = rs.pairings[i][j - m]
        return {i: -sign * c} if c else {}
    alpha, beta = rs.roots[i], rs.roots[j]
    if beta == rs.negate(alpha):
        coords = rs.coroot_coordinates(alpha)
        return {m + k: c for k, c in enumerate(coords) if c}
    total = rs.add(alpha, beta)
    if rs.is_root(total):
        return {rs.root_index[total]: rs.constants.n(alpha, beta)}
    return {}


def _memoised_on_root_system(build):
    """Memoise build(rs, roots) in ``rs.tables`` under the key (build, roots),
    roots being one root or a pair of roots."""

    def table(rs: RootSystem, roots):
        key = (build, roots)
        if key not in rs.tables:
            rs.tables[key] = build(rs, roots)
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
                c, remainder = divmod(total, k)
                if remainder:
                    raise ConsistencyError(
                        f"exp(ad e_{alpha}) coefficient {total}/{k} at ({i}, {j}) is not integral"
                    )
                if c:
                    vector[i] = c
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
    """(K, the distinct k, the pairs (i, k)): k = <beta_i, alpha^v> != 0, beta_i's
    pairing row dotted with alpha's coroot coordinates, and K the largest |k|."""
    coroot = rs.coroot_coordinates(alpha)
    pairs = []
    for i, row in enumerate(rs.pairings):
        k = sum(map(mul, row, coroot))
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
            image, source = data.n(ra, rb), data.n(a, b)
            if image not in (source, -source):
                raise ConsistencyError(f"sign ratio {image}/{source} at {beta} is not a unit")
            signs[beta] = signs[a] * signs[b] * (1 if image == source else -1)
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

    def apply(self, x: ScaledMatrix) -> ScaledMatrix:
        images = self._images
        rows = [None] * len(images)
        for (pi, si), row in zip(images, x.rows):
            rows[pi] = {images[j][0]: v if images[j][1] == si else -v for j, v in row.items()}
        return ScaledMatrix(rows, x.den)


def _validate_torus(rs: RootSystem, diagonal) -> tuple:
    """The diagonal part's values at the simple roots, each checked, and its
    torus matrix and the inverse."""
    message = f"diagonal part needs {rs.rank} simple-root values"
    try:
        values = tuple(map(_coerce_scalar, diagonal))
    except TypeError:  # not iterable
        raise DomainError(message) from None
    if len(values) != rs.rank:
        raise DomainError(f"{message}, got {len(values)}")
    if not all(values):
        raise DomainError("diagonal part is singular")
    cleared = list(map(_cleared, values))
    return values, (_torus_matrix(rs, cleared), _torus_matrix(rs, [(q, p) for p, q in cleared]))


def _torus_matrix(rs: RootSystem, cleared) -> ScaledMatrix:
    """diag(prod c_k^beta_k) at the roots, 1 on the Cartan block, for c_k = p_k/q_k
    given as the pairs (p_k, q_k): prod p_k^(K_k+beta_k) q_k^(K_k-beta_k) over
    prod (p_k q_k)^K_k, K_k the largest |beta_k|, as h_alpha writes t^k."""
    depths = [max(abs(beta[k]) for beta in rs.roots) for k in range(rs.rank)]
    den = prod((p * q) ** depth for (p, q), depth in zip(cleared, depths))
    values = [prod(_power_product(p, depth + b, q, depth - b)
                   for (p, q), depth, b in zip(cleared, depths, beta)) for beta in rs.roots]
    if isinstance(den, int) and den < 0:
        # over Q the denominator is positive, so both signs flip
        den, values = -den, [-v for v in values]
    m = len(rs.roots)
    return ScaledMatrix([{i: v} for i, v in enumerate(values)]
                        + [{m + k: den} for k in range(rs.rank)], den)


class ChevalleyAutomorphism:
    """Composite automorphism: diagonal, then field, then graph.

    Any of the three parts may be omitted; ``apply`` takes and returns a
    ``ScaledMatrix``.  The diagonal part is a torus element given by its
    values c_k at the simple roots: its entry at beta is prod c_k^beta_k,
    and 1 on the Cartan block.  The field part scales the variables and
    fixes a matrix over Q; the graph part conjugates by the signed
    permutation realization of a diagram symmetry.
    """

    def __init__(self, rs: RootSystem, diagonal=None,
                 graph: DiagramSymmetry | None = None,
                 field=None):
        if not isinstance(rs, RootSystem):
            raise DomainError("a Chevalley automorphism needs a RootSystem")
        if field is not None:
            from .fields import ScalingAutomorphism

            if not isinstance(field, ScalingAutomorphism):
                raise DomainError("the field part must be a ScalingAutomorphism")
        self.rs = rs
        self.diagonal = self._torus = None
        if diagonal is not None:
            self.diagonal, self._torus = _validate_torus(rs, diagonal)
        self.graph = graph
        self._graph_realization = None if graph is None else GraphMatrixRealization(rs, graph)
        self.field = field

    def apply(self, x: ScaledMatrix) -> ScaledMatrix:
        """The image of x, a ScaledMatrix of the adjoint dimension.  The field
        map T_i -> c_i T_i lives here: c T^e becomes c prod c_i^e_i in the Z[T]
        rows and denominator, cleared by one lcm; over Q it fixes every entry."""
        dim = adjoint_dimension(self.rs)
        if not isinstance(x, ScaledMatrix) or len(x.rows) != dim:
            raise DomainError(f"apply takes a ScaledMatrix of dimension {dim}")
        if self._torus is not None:
            x = mat_product([self._torus[0], x, self._torus[1]])
        if self.field is not None and not isinstance(x.den, int):
            from .fields import Polynomial

            scalars = self.field.scalars
            scaled = []
            for f in (x.den, *(v for row in x.rows for v in row.values())):
                if not isinstance(f, Polynomial):
                    raise DomainError("the field part expects a Polynomial entry over Q(T)")
                if f.nvars != len(scalars):
                    raise DomainError("an entry and the field part disagree on variable count")
                scaled.append(Polynomial(f.nvars, {e: c * prod(map(pow, scalars, e))
                                                   for e, c in f.terms.items()}))
            den, *values = _clear(scaled)
            values = iter(values)
            x = ScaledMatrix([{j: next(values) for j in row} for row in x.rows], den)
        if self._graph_realization is not None:
            x = self._graph_realization.apply(x)
        return x


def _string_product(rs: RootSystem, base, step, count) -> int:
    """N(step, base) N(step, step+base) ... over `count` brackets."""
    return prod(rs.constants.n(step, tuple(b + k * s for b, s in zip(base, step)))
                for k in range(count))


def commutator_factors(rs: RootSystem, alpha, beta) -> list[tuple]:
    """Factors (gamma, i, j, constant) of the closed commutator form.

    The commutator x_beta(u)^-1 x_alpha(t)^-1 x_beta(u) x_alpha(t) equals the
    product of x_{i alpha + j beta}(constant * (-t)^i * u^j) over the returned
    factors, taken in order.
    """
    return list(_commutator_factors(rs, (rs.check_root(alpha), rs.check_root(beta))))


@_memoised_on_root_system
def _commutator_factors(rs: RootSystem, pair) -> tuple:
    alpha, beta = pair
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
            value, divisor = _string_product(rs, beta, alpha, i), factorial(i)
        elif i == 1:
            value, divisor = (-1) ** j * _string_product(rs, alpha, beta, j), factorial(j)
        elif (i, j) == (3, 2):
            value, divisor = _string_product(rs, alpha, rs.add(alpha, beta), 2), 6
        elif (i, j) == (2, 3):
            value, divisor = -2 * _string_product(rs, beta, rs.add(beta, alpha), 2), 6
        else:
            raise ConsistencyError(f"unexpected root string pair ({i}, {j})")
        c, remainder = divmod(value, divisor)
        if remainder:
            raise ConsistencyError(
                f"commutator constant {value}/{divisor} at ({i}, {j}) is not integral")
        factors.append((gamma, i, j, c))
    return tuple(factors)


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
    """(p, q) with t = p/q: ints over Q; over Q(T), where t is a RationalFunction
    and holds num and den, those times the lcm of their coefficients'
    denominators, so polynomials in Z[T]."""
    if not hasattr(t, "den"):
        return t.numerator, t.denominator
    return tuple(_clear((t.num, t.den)))


def _clear(polynomials) -> list:
    """The polynomials times the lcm of all their coefficients' denominators,
    each built by its own class, so this needs no import of ``fields``."""
    m = lcm(*(c.denominator for f in polynomials for c in f.terms.values()))
    return [type(f)(f.nvars, {e: c.numerator * (m // c.denominator)
                              for e, c in f.terms.items()}) for f in polynomials]


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


def reduce_mod_p(x, p: int) -> list[list[int]]:
    """Entrywise reduction of a rational matrix modulo a prime."""
    from .fields import _is_prime

    message = f"{decimal(p)} is not prime"
    if not _is_prime(integer(p, 2, message)):
        raise DomainError(message)
    out = []
    for i, row in enumerate(x):
        new_row = []
        for j, entry in enumerate(row):
            entry = rational(entry)
            if entry.denominator % p == 0:
                raise DomainError(
                    f"entry ({i}, {j}) = {decimal(entry)} has denominator divisible by {p}")
            new_row.append(entry.numerator * pow(entry.denominator, -1, p) % p)
        out.append(new_row)
    return out
