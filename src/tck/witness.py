"""Diagonal witnesses and the eigencharacter obstruction certificate.

A torus element is a root-position diagonal: its entries at e_beta for beta
in ``rs.roots``, the Cartan block being 1 (h_alpha(t) e_beta =
t^<beta, alpha^v> e_beta).  The reference route that criterion 9 and the
tests compare against is in ``tck.chevalley``: the scaled products n_alpha(t)
n_alpha(-1) and ``ChevalleyAutomorphism.apply`` on their rows.

The pipeline: build torus elements from consecutive primes so that distinct
witnesses have pairwise disjoint prime supports, collapse a graph-plus-field
automorphism against them (the field part fixes rational entries, the graph
part permutes root positions through its root permutation), and certify the
entries of any intertwining matrix Z between two collapsed witnesses

    Z = ( Q | R )      Q of size |roots| x |roots|, T of size rank x rank
        ( S | T )

in one pass over the root-indexed columns.  Entry (m, n) of Q or S is zero
or an eigenvector of the power of the field scaling with eigencharacter
other[n] c[n] / (first[m] c[m]) (c an optional correction, the Cartan rows
contributing 1).  Wherever that eigencharacter falls outside the
multiplicative lattice spanned by the field scalars, the entry must vanish.
Its exponent vector is the column factor's minus the row factor's, so each
row and column factor is keyed once by its class modulo the lattice, and an
entry lies outside exactly when its row and column keys differ.  Certifying
this for every Q and S entry zeroes the root-indexed columns and forces
det Z = 0, and that contradiction is what the certificate records.
"""

import itertools
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import ConsistencyError, DomainError, integer, rational
from .fields import (
    ScalingAutomorphism,
    character_classes,
    is_prime,
    supports_pairwise_disjoint,
)
from .roots import DiagramSymmetry, RootSystem, permutation_order, root_permutation
from .chevalley import ChevalleyAutomorphism

Diagonal = tuple[Fraction, ...]


@dataclass(frozen=True, eq=False)
class WitnessSequence:
    """Torus elements g_i built from fresh primes, one block per witness,
    each held as its root-position diagonal."""

    root_system: RootSystem
    primes: tuple[tuple[int, ...], ...]
    diagonals: tuple[Diagonal, ...]

    @property
    def count(self) -> int:
        return len(self.diagonals)


def generate_witnesses(rs: RootSystem, count: int) -> WitnessSequence:
    """Witnesses g_i = h_{alpha_1}(p_{i1}) ... h_{alpha_l}(p_{il}).

    Entry beta of g_i is prod_t p_{it}^<beta, alpha_t^v>, so its exponent
    vector over the block is beta's pairing row and the entry is nontrivial
    exactly when that row is nonzero.  Primes are consumed consecutively from
    2, 3, 5, ... with rank-many per witness, so diagonal supports are
    nonempty within each witness's block and disjoint across witnesses.  No
    randomization: certificates built on top of the sequence stay
    reproducible.
    """
    integer(count, 1, f"at least one witness is required, got {count}")
    simple = [tuple(1 if j == t else 0 for j in range(rs.rank)) for t in range(rs.rank)]
    pairings = [[rs.cartan_integer(beta, alpha) for alpha in simple] for beta in rs.roots]
    prime = 1
    blocks, diagonals = [], []
    for i in range(count):
        block = []
        for _ in range(rs.rank):
            prime = next(q for q in itertools.count(prime + 1) if is_prime(q))
            block.append(prime)
        diag = []
        for j, row in enumerate(pairings):
            a = Fraction(prod(p ** k for p, k in zip(block, row) if k > 0),
                         prod(p ** -k for p, k in zip(block, row) if k < 0))
            if not any(row):
                raise ConsistencyError(
                    f"witness {i} entry {j} = {a} is not a nontrivial product of powers of {block}"
                )
            diag.append(a)
        blocks.append(tuple(block))
        diagonals.append(tuple(diag))
    return WitnessSequence(rs, tuple(blocks), tuple(diagonals))


def _rational_diagonal(diagonal, length: int, context: str) -> Diagonal:
    diagonal = tuple(map(rational, diagonal))
    if len(diagonal) != length:
        raise DomainError(f"{context}: {len(diagonal)} diagonal entries for {length} roots")
    if not all(diagonal):
        i = diagonal.index(0)
        raise DomainError(f"{context}: diagonal entry {i} is not a nonzero rational")
    return diagonal


def _require_graph_field(phi: ChevalleyAutomorphism, context: str):
    if phi.inner is not None or phi.diagonal is not None:
        raise DomainError(f"{context} needs a graph-plus-field automorphism, "
                          "inner and diagonal parts are not allowed")


def _index_map(rs: RootSystem, symmetry: DiagramSymmetry | None):
    """A graph part's torus action as the index map phi(g)[k] = g[sources[k]],
    None without a graph part.  The field part fixes rational entries and the
    signs of the graph realization cancel, so phi(g)[sigma(beta)] = g[beta]."""
    if symmetry is None:
        return None
    sources = [0] * len(rs.roots)
    for i, j in enumerate(root_permutation(rs, symmetry)):
        sources[j] = i
    return tuple(sources)


def _collapse(cycle, g: Diagonal, m: int) -> Diagonal:
    """g phi_1(g) (phi_1 phi_2)(g) ... (phi_1 ... phi_{m-1})(g), phi_t the
    graph part with index map cycle[(t - 1) % len(cycle)].

    Factor t gathers g through the composed index map, so numerators and
    denominators are multiplied as integers, and each entry becomes one
    Fraction at the end.
    """
    nums = [x.numerator for x in g]
    dens = [x.denominator for x in g]
    acc_nums, acc_dens = nums, dens
    index = range(len(g))
    for t in range(m - 1):
        sources = cycle[t % len(cycle)]
        if sources is not None:
            index = [sources[i] for i in index]
        acc_nums = [a * nums[i] for a, i in zip(acc_nums, index)]
        acc_dens = [a * dens[i] for a, i in zip(acc_dens, index)]
    return tuple(map(Fraction, acc_nums, acc_dens))


def twisted_power_product(phi: ChevalleyAutomorphism, g, m: int) -> Diagonal:
    """g phi(g) phi^2(g) ... phi^{m-1}(g) for a rational root-position diagonal g."""
    _require_graph_field(phi, "twisted power product")
    integer(m, 1, f"exponent must be at least 1, got {m}")
    g = _rational_diagonal(g, len(phi.rs.roots), "twisted power product")
    return _collapse((_index_map(phi.rs, phi.graph),), g, m)


class ProductAutomorphism:
    """Automorphism of a k-fold direct sum: permute the summands, then act
    factorwise by graph-plus-field automorphisms.

    The action is (x_1, ..., x_k) -> (phi_{s(1)}(x_{s(1)}), ..., phi_{s(k)}(x_{s(k)}))
    with s the stored permutation (0-based images), on summands that are
    rational root-position diagonals.  All factors must share one root
    system and carry no inner or diagonal part; field parts, where present,
    must agree on the variable count so their compositions along
    permutation cycles stay well formed.
    """

    def __init__(self, factors, permutation):
        factors = tuple(factors)
        if not factors:
            raise DomainError("at least one factor is required")
        rs = factors[0].rs
        for pos, phi in enumerate(factors):
            if not isinstance(phi, ChevalleyAutomorphism):
                raise DomainError(f"factor {pos} is not a Chevalley automorphism")
            _require_graph_field(phi, f"factor {pos}")
            if phi.rs.type != rs.type:
                raise DomainError("factors must share one root system")
        counts = {phi.field.variable_count for phi in factors if phi.field is not None}
        if len(counts) > 1:
            raise DomainError("factor field automorphisms disagree on variable count")
        self.variable_count = counts.pop() if counts else 0
        k = len(factors)
        permutation = tuple(permutation)
        if not {int}.issuperset(map(type, permutation)) or sorted(permutation) != list(range(k)):
            raise DomainError(f"permutation {permutation} does not rearrange 0..{k - 1}")
        self.rs = rs
        self.factors = factors
        self.permutation = permutation
        self.k = k
        self._sources = tuple(_index_map(rs, phi.graph) for phi in factors)

    @property
    def permutation_order(self) -> int:
        return permutation_order(self.permutation)


@dataclass(frozen=True)
class ZeroEntryWitness:
    """One certified-zero position with the data forcing it: the required
    eigencharacter lies outside the scalar lattice, and the certificate's
    witness family has disjoint supports in the column."""

    position: tuple[int, int]
    block: str
    eigencharacter: Fraction


class CertifiedEntries(Sequence):
    """The certified entries of a certificate, in row-major order, built on access.

    The sequence keeps what the certification computed: the numerator and
    denominator of every row and column factor and, for each row, the
    ascending indices of its certified columns.  Reading entry (m, n) builds
    ZeroEntryWitness((m, n), block, col_num row_den / (col_den row_num)), so a
    certificate with thousands of entries holds no Fraction and no
    ZeroEntryWitness until they are read.  It compares equal to, and hashes
    like, the tuple of its entries; a slice is that tuple's slice.
    """

    __slots__ = ("_root_count", "_rows", "_cols", "_columns", "_offsets")

    def __init__(self, root_count: int, rows, cols, columns):
        self._root_count = root_count
        self._rows = tuple(rows)
        self._cols = tuple(cols)
        self._columns = tuple(columns)
        self._offsets = tuple(itertools.accumulate(map(len, self._columns), initial=0))

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        k = operator.index(i)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("certified entry index out of range")
        m = bisect_right(self._offsets, k) - 1
        n = self._columns[m][k - self._offsets[m]]
        (row_num, row_den), (col_num, col_den) = self._rows[m], self._cols[n]
        return ZeroEntryWitness((m, n), "Q" if m < self._root_count else "S",
                                Fraction(col_num * row_den, col_den * row_num))

    def __iter__(self):
        for m, n, block, num, den in self.integer_entries():
            yield ZeroEntryWitness((m, n), block, Fraction(num, den))

    def integer_entries(self):
        """(m, n, block, num, den) for each entry in order, with eigencharacter
        num / den, den != 0, not reduced."""
        for m, ((row_num, row_den), columns) in enumerate(zip(self._rows, self._columns)):
            block = "Q" if m < self._root_count else "S"
            for n in columns:
                col_num, col_den = self._cols[n]
                yield m, n, block, col_num * row_den, col_den * row_num

    def __eq__(self, other):
        if isinstance(other, (tuple, CertifiedEntries)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class ObstructionCertificate:
    """Outcome of the block-zero analysis for one witness index.

    verdict "obstructed" means every Q and S position is certified zero, so
    the root-indexed columns of any admissible Z vanish and det Z = 0.
    verdict "inconclusive" means the index is within the transcendence bound
    or some position could not be certified; uncertified lists those.
    entries lists the certified positions as a CertifiedEntries.
    """

    root_count: int
    cartan_rank: int
    index: int
    bound: int
    family_size: int
    generators: tuple[Fraction, ...]
    verdict: str
    entries: Sequence[ZeroEntryWitness]
    uncertified: tuple[tuple[int, int], ...]


def _certify(rs: RootSystem, products, scaling: ScalingAutomorphism,
             correction, index: int) -> ObstructionCertificate:
    """Certify the Q and S entries of every root-indexed column.

    Any Z intertwining the collapsed first and index-th witnesses satisfies
    (sixth power of scaling applied entrywise to Z) = first^{-1} Z other, read
    entrywise as the eigencharacter in the module docstring; c is a diagonal
    correction on the root positions (identity when omitted).
    """
    if not isinstance(scaling, ScalingAutomorphism):
        raise DomainError("a scaling automorphism is required")
    count = len(products)
    message = f"index {index} outside the witness range 1..{count}"
    if integer(index, 1, message) > count:
        raise DomainError(message)
    root_count = len(rs.roots)
    bound = scaling.variable_count + 1
    generators = tuple((scaling ** 6).scalars)
    if index <= bound:
        return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                      "inconclusive", CertifiedEntries(root_count, (), (), ()),
                                      ())
    diagonals = [_rational_diagonal(p, root_count, "obstruction check") for p in products]
    # Columns whose witness family has nonempty, pairwise disjoint supports;
    # a collision would mean the prime blocks leaked across witnesses.
    column_ok = []
    for n in range(root_count):
        family = [diagonals[j][n] for j in range(count)]
        if not supports_pairwise_disjoint(family):
            raise ConsistencyError(
                f"product supports collide across witnesses at root position {n}"
            )
        column_ok.append(all(abs(b) != 1 for b in family))
    if correction is None:
        c = (Fraction(1),) * root_count
    else:
        c = [rational(x) for x in correction]
        if len(c) != root_count:
            raise DomainError(f"correction vector needs {root_count} entries, got {len(c)}")
        if any(x == 0 for x in c):
            raise DomainError("correction entries must be nonzero")
    first, other = diagonals[0], diagonals[index - 1]
    rows = [first[m] * c[m] for m in range(root_count)] + [Fraction(1)] * rs.rank
    cols = [other[n] * c[n] for n in range(root_count)]
    # Entry (m, n) lies in the lattice exactly when row m and column n share
    # a class key, so a row whose key no good column has certifies them all.
    key = character_classes(generators, rows + cols)
    col_keys = [key(x) for x in cols]
    good = tuple(n for n, ok in enumerate(column_ok) if ok)
    good_keys = {col_keys[n] for n in good}
    columns, failed = [], []
    for m, row in enumerate(rows):
        row_key = key(row)
        certified = good
        if row_key in good_keys:
            certified = tuple(n for n in good if col_keys[n] != row_key)
        columns.append(certified)
        if len(certified) < root_count:
            failed += [(m, n) for n in range(root_count)
                       if not column_ok[n] or col_keys[n] == row_key]
    entries = CertifiedEntries(root_count, [(x.numerator, x.denominator) for x in rows],
                               [(x.numerator, x.denominator) for x in cols], columns)
    verdict = "obstructed" if not failed else "inconclusive"
    return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                  verdict, entries, tuple(failed))


def obstruction_check(rs: RootSystem, witnesses: WitnessSequence,
                      symmetry: DiagramSymmetry | None,
                      scaling: ScalingAutomorphism,
                      index_beyond_bound: int, correction=None) -> ObstructionCertificate:
    """Certify that witness index_beyond_bound cannot be reached from the
    first witness by any intertwining matrix compatible with the automorphism.

    The index must exceed the transcendence degree of the scaling field plus
    one; otherwise the verdict is "inconclusive" without analysis, since up
    to that many witnesses can share a twisted class.  The field part fixes
    the rational witnesses, so only the graph's root permutation enters the
    collapse.
    """
    if witnesses.root_system.type != rs.type:
        raise DomainError("witnesses were generated for a different root system")
    rs = witnesses.root_system
    cycle = (_index_map(rs, symmetry),)
    products = [
        _collapse(cycle, _rational_diagonal(g, len(rs.roots), "obstruction check"), 6)
        for g in witnesses.diagonals
    ]
    return _certify(rs, products, scaling, correction, index_beyond_bound)


def pattern_determinant(certificate: ObstructionCertificate) -> bool:
    """Whether a generic matrix honoring the certified zero pattern has a
    nonzero determinant.

    Free positions get independent variables, certified positions are zero.
    Distinct Leibniz terms are distinct monomials and cannot cancel, so the
    determinant is nonzero exactly when the free positions hold a perfect
    matching of rows to columns (Edmonds, J. Res. NBS 71B, 1967), which a
    greedy pass and augmenting-path searches decide.  An "obstructed" certificate zeroes
    every root-indexed column and gets False.  The zero pattern is read from
    a CertifiedEntries' column indices without building its entries; a plain
    tuple of ZeroEntryWitness is read entry by entry, and a position outside
    the matrix is a DomainError.
    """
    dim = certificate.root_count + certificate.cartan_rank
    entries = certificate.entries
    if isinstance(entries, CertifiedEntries):
        zeroed = list(entries._columns)
    else:
        rows = [set() for _ in range(dim)]
        message = "certified position outside the matrix"
        for entry in entries:
            try:
                m, n = entry.position
            except (TypeError, ValueError):  # not a pair
                raise DomainError(message) from None
            if integer(m, 0, message) >= dim or integer(n, 0, message) >= dim:
                raise DomainError(message)
            rows[m].add(n)
        zeroed = [tuple(row) for row in rows]
    zeroed += [()] * (dim - len(zeroed))
    # Rows with the same certified columns share one list of free columns,
    # and one cursor over it.
    free_of, cursor_of = {}, {}
    for columns in zeroed:
        if columns not in free_of:
            certified = set(columns)
            free_of[columns] = [n for n in range(dim) if n not in certified]
            cursor_of[columns] = iter(free_of[columns])
    free = [free_of[columns] for columns in zeroed]
    row_of: dict[int, int] = {}
    for start, columns in enumerate(zeroed):
        # A free column that no row holds yet is taken directly.  A matched
        # column stays matched, so a shared cursor passes each column once
        # and a generic pattern is matched in one sweep.
        n = next((n for n in cursor_of[columns] if n not in row_of), None)
        if n is not None:
            row_of[n] = start
            continue
        # Depth-first search for an augmenting path from row start, on an
        # explicit stack so that no dimension reaches the recursion limit;
        # taken[i] is the column that the row stack[i] moves to.
        visited: set[int] = set()
        stack, taken = [(start, iter(free[start]))], []
        while stack:
            n = next((n for n in stack[-1][1] if n not in visited), None)
            if n is None:
                stack.pop()
                if taken:
                    taken.pop()
                continue
            visited.add(n)
            taken.append(n)
            if n not in row_of:
                for (m, _), column in zip(stack, taken):
                    row_of[column] = m
                break
            stack.append((row_of[n], iter(free[row_of[n]])))
        else:
            return False
    return True


@dataclass(frozen=True, eq=False)
class FirstFactorReduction:
    """First-summand shadow of a product automorphism acting on direct-sum
    witnesses: the collapsed products over 6 * (order of the permutation)
    steps together with the composed field scaling along the first cycle."""

    root_system: RootSystem
    products: tuple[Diagonal, ...]
    scaling: ScalingAutomorphism
    permutation_order: int


def project_product_to_first_factor(product_aut: ProductAutomorphism,
                                    witnesses: WitnessSequence) -> FirstFactorReduction:
    """Collapse diag(g_i, ..., g_i) under the product automorphism and keep
    only the first summand.

    After t steps the first summand is phi_{j_1} ... phi_{j_t}(g_i) along
    the cycle j_t = s^t(0) through it, so the other summands never enter.
    Over 6s steps (s the permutation order) the permutation part returns to
    the identity and the graph parts cancel, leaving the sixth power of the
    field scaling composed along that cycle.  The projected products feed
    the same certification as the one-factor case.
    """
    if witnesses.root_system.type != product_aut.rs.type:
        raise DomainError("witnesses were generated for a different root system")
    rs = witnesses.root_system
    perm = product_aut.permutation
    s = product_aut.permutation_order
    orbit = [perm[0]]
    while orbit[-1] != 0:
        orbit.append(perm[orbit[-1]])
    cycle = [product_aut._sources[j] for j in orbit]
    products = tuple(
        _collapse(cycle, _rational_diagonal(g, len(rs.roots), "product automorphism"), 6 * s)
        for g in witnesses.diagonals
    )
    theta = ScalingAutomorphism.identity(product_aut.variable_count)
    for t in range(s):
        field = product_aut.factors[orbit[t % len(orbit)]].field
        if field is not None:
            theta = theta.compose(field)
    return FirstFactorReduction(rs, products, theta, s)


def reduced_obstruction_check(reduction: FirstFactorReduction,
                              index_beyond_bound: int,
                              correction=None) -> ObstructionCertificate:
    """Certification on the first-summand shadow; same mechanism, with the
    composed cycle scaling in place of the single field automorphism."""
    return _certify(reduction.root_system, list(reduction.products),
                    reduction.scaling, correction, index_beyond_bound)
