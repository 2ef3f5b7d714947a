"""Irreducible reduced root systems in simple-root coordinates.

Roots are integer coefficient tuples over the simple roots.  The positive
roots are generated from the Cartan matrix by closing the simple roots under
simple reflections; they are ordered by height and then lexicographically,
and the negative roots mirror that order.  The bilinear form is one symmetric
integer matrix, (alpha_i, alpha_j) = cartan[i][j] d_j, with the half-lengths
d_i = (alpha_i, alpha_i)/2 scaled to the least integers.  Each root's row
(beta, alpha_j) and norm (beta, beta) are tabled once, so Cartan pairings and
coroots are exact integer quotients.  The reflection closure tables each
root's pairings <beta, alpha_t^v> as ``pairings``, and ``cartan_integer``
reads the form, an independent route.  Structure constants for a Chevalley
basis are fixed by the extraspecial-pair convention: for each non-simple
positive root the decomposition with the smallest first summand gets a
positive constant.  One pass over the positive roots in height order fills
the rest: each other positive pair through the four-term Jacobi-type identity
on quadruples summing to zero, and from each positive pair the eleven other
ordered pairs of its triple and of the negated triple, through antisymmetry,
the negation symmetry N(-a,-b) = -N(a,b) and the three-term rotation identity.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from .errors import ConsistencyError, DomainError, Record, charge, decimal, integer, width_charge

Root = tuple[int, ...]

_FAMILIES = {"A", "B", "C", "D", "E", "F", "G"}

# Classical root counts, None where no irreducible system of that type exists;
# the count is an independent check on the reflection closure.
def _root_count(family: str, rank: int) -> int | None:
    if family == "A" and rank >= 1:
        return rank * (rank + 1)
    if family == "B" and rank >= 2 or family == "C" and rank >= 3:
        return 2 * rank * rank
    if family == "D" and rank >= 4:
        return 2 * rank * (rank - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}.get(rank)
    if (family, rank) == ("F", 4):
        return 48
    if (family, rank) == ("G", 2):
        return 12
    return None


class RootSystemType(Record):
    """Family letter plus rank, e.g. A2, D4, G2."""

    family: str
    rank: int

    def __post_init__(self):
        # rank 0 is left to the next check, whose message names the type
        integer(self.rank, 0, "root system rank must be an int >= 0")
        if _root_count(self.family, self.rank) is None:
            raise DomainError(f"no irreducible root system of type {self}")

    @classmethod
    def parse(cls, text: str) -> "RootSystemType":
        text = text.strip()
        try:
            # isdigit admits superscripts, which int() refuses, as it refuses
            # a rank past the int/str digit limit
            rank = int(text[1:]) if text[1:].isdigit() else None
        except ValueError:
            rank = None
        if rank is None or text[0].upper() not in _FAMILIES:
            raise DomainError(f"cannot parse root system type {text!r}")
        return cls(text[0].upper(), rank)

    def __str__(self):
        return f"{self.family}{decimal(self.rank)}"


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entry [i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if family == "B":
            # alpha_{rank} is short: <alpha_{rank-1}, alpha_rank^vee> = -2
            a[rank - 2][rank - 1] = -2
        if family == "C":
            a[rank - 1][rank - 2] = -2
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif family == "F":
        for i in range(3):
            edge(i, i + 1)
        a[1][2] = -2
    else:  # G2
        edge(0, 1)
        a[1][0] = -3
    return a


def _exact(numerator: int, denominator: int, quantity: str, *roots) -> int:
    """numerator/denominator, which the root system's integrality makes exact."""
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(f"non-integral {quantity} at {', '.join(map(str, roots))}")
    return value


class RootSystem:
    """An irreducible root system with a fixed root order and an integer form."""

    def __init__(self, type_: RootSystemType):
        # Everything built here and by the layers above grows with the adjoint
        # dimension, so the system first charges one adjoint element, of width
        # dim^2, against the closure cap.
        expected = _root_count(type_.family, type_.rank)
        dim = expected + type_.rank
        units = width_charge(dim * dim)
        charge(units, lambda cap: f"root system {type_} exceeds closure cap {cap}: one adjoint "
               f"element of width {decimal(dim * dim)} counts {decimal(units)}")
        self.type = type_
        self.rank = type_.rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(type_.family, type_.rank))
        self.half_lengths = self._solve_half_lengths()
        # (alpha_i, alpha_j) = cartan[i][j] d_j, a symmetric integer matrix.
        self.form = tuple(
            tuple(c * d for c, d in zip(row, self.half_lengths)) for row in self.cartan
        )
        closed = self._close_under_reflections()
        self.positive_roots: tuple[Root, ...] = tuple(sorted(closed, key=lambda r: (sum(r), r)))
        self.roots: tuple[Root, ...] = self.positive_roots + tuple(
            tuple(-c for c in r) for r in self.positive_roots
        )
        # Row i is <roots[i], alpha_t^v> for t = 1..rank, negated on the negative roots.
        rows = tuple(closed[beta][1] for beta in self.positive_roots)
        self.pairings = rows + tuple(tuple(-k for k in row) for row in rows)
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.tables: dict = {}  # per-root tables of other layers, keyed by (table, root or root pair)
        if len(self.roots) != expected:
            raise ConsistencyError(
                f"{type_}: closure found {len(self.roots)} roots, expected {expected}"
            )
        # The norm (beta, beta) per root, shared by beta and -beta; form rows
        # are tabled on first use as a pairing's second argument.
        norms = [closed[beta][0] for beta in self.positive_roots]
        self.norm: dict[Root, int] = dict(zip(self.roots, norms + norms))
        self._form_rows: dict[Root, tuple[int, ...]] = {}

    def _solve_half_lengths(self) -> tuple[int, ...]:
        # d_i = (alpha_i, alpha_i)/2, determined up to one global scale by
        # requiring the bilinear form to be symmetric across each diagram edge;
        # the scale is the least one that makes every d_i an integer.  Starting
        # from the product of the off-diagonal entries keeps each quotient exact.
        d = [None] * self.rank
        d[0] = abs(prod(c for row in self.cartan for c in row if c < 0))
        queue = [0]
        while queue:
            i = queue.pop()
            for j in range(self.rank):
                if j != i and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * self.cartan[j][i] // self.cartan[i][j]
                    queue.append(j)
        if any(v is None for v in d):
            raise ConsistencyError("disconnected Dynkin diagram")
        scale = gcd(*d)
        return tuple(v // scale for v in d)

    def _form_row(self, beta) -> tuple[int, ...]:
        """(beta, alpha_j) for each simple root alpha_j."""
        return tuple(sum(b * f for b, f in zip(beta, row)) for row in self.form)

    def _close_under_reflections(self) -> dict[Root, tuple[int, tuple[int, ...]]]:
        # s_j permutes the positive roots other than alpha_j, so the positive
        # roots are the closure of the simple roots under the reflections that
        # keep them positive.  Only coordinate j moves under s_j, so a negative
        # image that is not -alpha_j has mixed signs.  Reflections preserve the
        # form, so each root inherits its norm (alpha_i, alpha_i) = 2 d_i from
        # the simple root it was reached from.  Each maps to its norm and its
        # pairing row <beta, alpha_t^v>, the amounts the s_j subtract; s_j(beta)
        # carries beta's row less <beta, alpha_j^v> times Cartan row j, which
        # has at most four nonzero entries.
        steps = [[(t, c) for t, c in enumerate(row) if c] for row in self.cartan]
        closed = {tuple(1 if j == i else 0 for j in range(self.rank)): (2 * d, row)
                  for i, (d, row) in enumerate(zip(self.half_lengths, self.cartan))}
        queue = list(closed)
        while queue:
            beta = queue.pop()
            norm, row = closed[beta]
            if not any(row):
                raise ConsistencyError(
                    f"a root of {self.type} pairs trivially with every simple coroot")
            for j, pairing in enumerate(row):
                if not pairing:
                    continue
                image = list(beta)
                image[j] -= pairing
                if image[j] < 0:
                    if any(image[:j] + image[j + 1:]):
                        raise ConsistencyError(f"root {tuple(image)} has mixed signs")
                    continue
                image_t = tuple(image)
                if image_t not in closed:
                    moved = list(row)
                    for t, c in steps[j]:
                        moved[t] -= pairing * c
                    closed[image_t] = norm, tuple(moved)
                    queue.append(image_t)
        return closed

    # -- basic queries ------------------------------------------------------

    def is_root(self, beta) -> bool:
        return tuple(beta) in self.root_index

    def check_root(self, beta) -> Root:
        try:
            beta = tuple(beta)
            known = beta in self.root_index
        except TypeError:  # not iterable, or an unhashable coordinate
            known = False
        if not known:
            raise DomainError(f"{beta} is not a root of {self.type}")
        return beta

    def negate(self, beta: Root) -> Root:
        return tuple(-c for c in beta)

    def add(self, beta: Root, gamma: Root) -> Root:
        return tuple(b + c for b, c in zip(beta, gamma))

    def cartan_integer(self, beta, alpha) -> int:
        """<beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha)."""
        beta = self.check_root(beta)
        alpha = self.check_root(alpha)
        row = self._form_rows.get(alpha)
        if row is None:
            row = self._form_rows[alpha] = self._form_row(alpha)
        pairing = sum(b * w for b, w in zip(beta, row))
        return _exact(2 * pairing, self.norm[alpha], "Cartan pairing", beta, alpha)

    def coroot_coordinates(self, alpha) -> tuple[int, ...]:
        """alpha^vee = 2 alpha/(alpha, alpha) over the simple coroots alpha_i/d_i."""
        alpha = self.check_root(alpha)
        return tuple(_exact(2 * m * d, self.norm[alpha], "coroot coordinate", alpha)
                     for m, d in zip(alpha, self.half_lengths))

    @cached_property
    def constants(self) -> "ChevalleyBasisData":
        return ChevalleyBasisData(self)

    def __repr__(self):
        return f"RootSystem({self.type})"


def build_root_system(text: str) -> RootSystem:
    """Construct the root system for a type string such as ``"B3"``."""
    return RootSystem(RootSystemType.parse(text))


def permutation_order(permutation) -> int:
    """Order of a permutation of range(n) given by its images: the lcm of its cycle lengths."""
    order, unseen = 1, set(range(len(permutation)))
    while unseen:
        j, length = unseen.pop(), 1
        while (j := permutation[j]) in unseen:
            unseen.remove(j)
            length += 1
        order = lcm(order, length)
    return order


class DiagramSymmetry(Record):
    """Permutation of simple-root indices preserving the Cartan matrix."""

    permutation: tuple[int, ...]

    @property
    def order(self) -> int:
        return permutation_order(self.permutation)


def _preserves_cartan(rs: RootSystem, perm) -> bool:
    return all(rs.cartan[perm[i]][perm[j]] == rs.cartan[i][j]
               for i in range(rs.rank) for j in range(rs.rank))


def diagram_symmetries(rs: RootSystem) -> list[DiagramSymmetry]:
    """All Dynkin diagram symmetries, identity first, in lexicographic order.

    A partial permutation of the nodes grows one node at a time and only while
    the Cartan entries among its placed nodes match.  A node with an earlier
    neighbour k can only go to a neighbour of k's image, so those are its
    candidates; every other node tries all nodes.  Candidates are tried in
    increasing order, which lists the symmetries lexicographically.
    """
    n, cartan = rs.rank, rs.cartan
    neighbours = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    anchor = [next((k for k in range(i) if cartan[i][k]), None) for i in range(n)]
    symmetries, perm = [], []
    candidates = [iter(range(n))]  # per placed node and the next, the images left to try
    while candidates:
        i = len(perm)
        c = next((c for c in candidates[-1] if c not in perm
                  and all(cartan[c][perm[k]] == cartan[i][k]
                          and cartan[perm[k]][c] == cartan[k][i] for k in range(i))), None)
        if c is None:
            candidates.pop()
            if perm:
                perm.pop()
        elif i + 1 == n:
            symmetries.append(DiagramSymmetry((*perm, c)))
        else:
            perm.append(c)
            k = anchor[i + 1]
            candidates.append(iter(range(n) if k is None else neighbours[perm[k]]))
    return symmetries


def _symmetry_permutation(rs: RootSystem, symmetry: DiagramSymmetry) -> tuple[int, ...]:
    """The permutation of a diagram symmetry of rs; DomainError for any other."""
    if not isinstance(symmetry, DiagramSymmetry) or not isinstance(symmetry.permutation, tuple):
        raise DomainError("a DiagramSymmetry over a tuple of indices is required")
    perm = symmetry.permutation
    if len(perm) != rs.rank:
        raise DomainError("symmetry rank does not match the root system")
    if (not all(type(i) is int for i in perm) or sorted(perm) != list(range(rs.rank))
            or not _preserves_cartan(rs, perm)):
        raise DomainError("permutation is not a diagram symmetry of the root system")
    return perm


def _image(rs: RootSystem, perm, beta) -> Root:
    image = [0] * rs.rank
    for i, c in enumerate(beta):
        image[perm[i]] = c
    image_t = tuple(image)
    if image_t not in rs.root_index:
        raise ConsistencyError(f"diagram symmetry image {image_t} left the root system")
    return image_t


def root_permutation(rs: RootSystem, symmetry: DiagramSymmetry) -> tuple[int, ...]:
    """Entry i is the index in ``rs.roots`` of the image of ``rs.roots[i]``."""
    perm = _symmetry_permutation(rs, symmetry)
    return tuple(rs.root_index[_image(rs, perm, beta)] for beta in rs.roots)


class ChevalleyBasisData:
    """Structure constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b}.

    Signs follow the extraspecial-pair convention, and one pass over the
    positive roots g, in height order, writes every constant once into
    ``table``, their one store by root index, which ``n`` reads.  The
    positive pairs (a, b) with a + b = g and a before b in the root order are
    scanned by a.  The first is extraspecial, with N(a, b) = p+1 for the
    length p of the root string b - a, b - 2a, ...  Every later pair is
    reduced to it through the length-weighted four-term identity, valid for
    a+b+c+d = 0 with no two of them opposite:

        N(a,b)N(c,d)/(a+b,a+b) + N(b,c)N(a,d)/(b+c,b+c)
            + N(c,a)N(b,d)/(c+a,c+a) = 0,

    whose other constants are mixed-sign pairs with sums of lower height, so
    an earlier step has filled them.  Each positive value then fills the
    twelve ordered pairs of its triple a + b + c = 0 and of its negation,
    through antisymmetry, N(-a,-b) = -N(a,b) and the three-term identity

        N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b).

    Both identities are homogeneous of degree 0 in the norms, so they run on
    the root system's integer norms whatever its scale: each constant is one
    exact integer quotient, and a nonzero remainder is a ConsistencyError.  A
    norm is only read where its term is nonzero, hence at a root.  All
    magnitudes come out as p+1, which the tests verify together with the
    Jacobi identity.

    Roots are walked as integers in base 4h+1, h the largest coefficient: the
    encoding is additive, and every vector the pass looks up is a root minus
    a root, with entries in [-2h, 2h], so its key is its balanced base-(4h+1)
    expansion and names no other vector.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        roots, n = rs.roots, len(rs.roots)
        n_pos = n // 2
        norm = [rs.norm[r] for r in roots]
        base = 4 * max(max(r) for r in rs.positive_roots) + 1
        powers = [base**i for i in range(rs.rank)]
        key = [sum(map(mul, r, powers)) for r in roots]
        index = {k: i for i, k in enumerate(key)}
        # N(i, j) at i*n + j, 0 where roots[i] + roots[j] is no root; -i is at i + n_pos.
        self.table = table = [0] * (n * n)
        self._extraspecial: dict[Root, tuple[Root, Root]] = {}
        for g in range(n_pos):
            first = None
            for a in range(g):
                b = index.get(key[g] - key[a])
                if b is None or b <= a or b >= n_pos:
                    continue
                na, nb, c = a + n_pos, b + n_pos, g + n_pos
                if first is None:
                    first, second = a, b
                    self._extraspecial[roots[g]] = (roots[a], roots[b])
                    p, step = 0, key[b] - key[a]
                    while step in index:
                        p, step = p + 1, step - key[a]
                    v = p + 1
                else:
                    # Four-term identity on (first, second, -a, -b), solved for
                    # N(a, b) = (g,g) (t1/l1 + t2/l2) / N(first, second) with
                    # t1 = N(second,-a)N(first,-b), l1 = (second-a, second-a),
                    # t2 = N(-a,first)N(second,-b), l2 = (first-a, first-a).
                    # A vanishing term keeps l = 1, since its difference need
                    # not be a root.
                    t1 = table[second * n + na] * table[first * n + nb]
                    t2 = table[na * n + first] * table[second * n + nb]
                    l1 = norm[index[key[second] - key[a]]] if t1 else 1
                    l2 = norm[index[key[first] - key[a]]] if t2 else 1
                    v = _exact(norm[g] * (t1 * l2 + t2 * l1),
                               l1 * l2 * table[first * n + second], "constant",
                               roots[a], roots[b])
                vbc = _exact(v * norm[a], norm[g], "constant", roots[b], roots[c])
                vca = _exact(v * norm[b], norm[g], "constant", roots[c], roots[a])
                for x, y, value in ((a, b, v), (b, c, vbc), (c, a, vca),
                                    (na, nb, -v), (nb, g, -vbc), (g, na, -vca)):
                    table[x * n + y] = value
                    table[y * n + x] = -value

    def n(self, a, b) -> int:
        """N(a, b), with 0 when a, b or a+b is not a root."""
        index = self.rs.root_index
        i, j = index.get(tuple(a)), index.get(tuple(b))
        return 0 if i is None or j is None else self.table[i * len(index) + j]

    def extraspecial_pair(self, gamma) -> tuple[Root, Root]:
        return self._extraspecial[tuple(gamma)]
