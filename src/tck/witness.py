"""Diagonal witnesses and the eigencharacter obstruction certificate.

A witness is its character.  g = h_{alpha_1}(p_1) ... h_{alpha_l}(p_l)
acts on e_beta by prod_t p_t^<beta, alpha_t^v> (Steinberg, Lectures on
Chevalley Groups, Yale 1967) and on the Cartan block by 1, so over the
witness's own prime block the exponent vector of entry beta is beta's pairing
row with the simple coroots (``rs.pairings``), one matrix for every witness.
Criterion 9 checks these rows and their collapse against the reference route
in ``tck.chevalley``: the exponent vectors of the scaled products
n_alpha(t) n_alpha(-1) and of ``ChevalleyAutomorphism.apply`` on their rows.

The pipeline: take consecutive primes, rank-many per witness, so that the
blocks are pairwise disjoint; collapse the automorphism on the pairing rows
(the field part fixes rational entries and the graph part permutes root
positions, so a collapsed row is a sum of pairing rows, again one for every
witness, and the diagonal part conjugates the collapse by a torus element c);
and certify the entries of any intertwining matrix Z between two collapsed
witnesses

    Z = ( Q | R )      Q of size |roots| x |roots|, T of size rank x rank
        ( S | T )

in one pass over the root-indexed columns.  Entry (m, n) of Q or S is zero
or an eigenvector of the power of the field scaling with eigencharacter
other[n] c[n] / (first[m] c[m]) (c = 1 without a diagonal part, the Cartan
rows contributing 1).  Wherever that eigencharacter falls outside the
multiplicative lattice spanned by the field scalars, the entry must vanish.
Its exponent vector is the column factor's minus the row factor's, each a
collapsed row over its witness's block plus c's vector, so each
factor is keyed once by its class modulo the lattice, and an entry lies
outside exactly when its row and column keys differ.  Certifying this for
every Q and S entry zeroes the root-indexed columns and forces det Z = 0, and
that contradiction is what the certificate records.  Fractions are built only
for output, as the entries' eigencharacters.
"""

import itertools
import operator
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, prod

from .errors import (ConsistencyError, DomainError, Record, ResourceLimitError, closure_cap,
                     decimal, integer, rational)
from .fields import (ScalingAutomorphism, _coprime_base, _is_prime, _lattice_divisors,
                     exponent_vector)
from .roots import DiagramSymmetry, RootSystem, permutation_order, root_permutation

Rows = tuple[tuple[int, ...], ...]


class WitnessSequence(Record, eq=False):
    """Torus elements g_i built from fresh primes, one block per witness:
    entry beta of g_i is prod_t primes[i][t] ** rs.pairings[beta][t]."""

    root_system: RootSystem
    primes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.primes)


def generate_witnesses(rs: RootSystem, count: int) -> WitnessSequence:
    """Witnesses g_i = h_{alpha_1}(p_{i1}) ... h_{alpha_l}(p_{il}).

    Entry beta of g_i is prod_t p_{it}^<beta, alpha_t^v>, its exponent vector
    over the block beta's pairing row.  Primes are consumed consecutively
    from 2, 3, 5, ... with rank-many per witness, so the blocks are pairwise
    disjoint.  No randomization: certificates stay reproducible.
    """
    integer(count, 1, f"at least one witness is required, got {decimal(count)}")
    # every prime is tested from 2 on, so the primes are charged against the
    # closure cap before the first test
    cap = closure_cap()
    if count * rs.rank > cap:
        raise ResourceLimitError(f"witness count exceeds closure cap {cap} at {rs.rank} "
                                 "primes per witness")
    primes = list(itertools.islice(filter(_is_prime, itertools.count(2)), count * rs.rank))
    return WitnessSequence(rs, tuple(tuple(primes[i:i + rs.rank])
                                     for i in range(0, len(primes), rs.rank)))


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


def _factors(cycle, size: int, m: int):
    """For each position k, the positions j whose entries g[j] multiply into
    entry k of g phi_1(g) (phi_1 phi_2)(g) ... (phi_1 ... phi_{m-1})(g),
    phi_t the graph part with index map cycle[(t - 1) % len(cycle)]: factor t
    gathers g through the composed index map."""
    index = range(size)
    steps = [index]
    for t in range(m - 1):
        sources = cycle[t % len(cycle)]
        if sources is not None:
            index = [sources[i] for i in index]
        steps.append(index)
    return zip(*steps)


def _collapse(cycle, rows: Rows, m: int) -> Rows:
    """The exponent rows of the collapse: a product of entries is the sum of
    their rows, so one call serves every witness of a sequence."""
    return tuple(tuple(map(sum, zip(*map(rows.__getitem__, factors))))
                 for factors in _factors(cycle, len(rows), m))


class ProductAutomorphism:
    """Automorphism of a k-fold direct sum: permute the summands, then act
    factorwise by diagonal-graph-field automorphisms.

    The action is (x_1, ..., x_k) -> (phi_{s(1)}(x_{s(1)}), ..., phi_{s(k)}(x_{s(k)}))
    with s the stored permutation (0-based images), on summands that are
    rational root-position diagonals.  All factors must share one root
    system and carry only a rational diagonal part, whose collapse enters
    the eigencharacters; field parts, where present, must agree on the
    variable count so their compositions along permutation cycles stay well
    formed.  One automorphism phi is ProductAutomorphism([phi], (0,)).
    """

    def __init__(self, factors, permutation):
        try:
            factors, permutation = tuple(factors), tuple(permutation)
        except TypeError:  # not iterable
            raise DomainError("a product automorphism needs a sequence of factors "
                              "and a permutation") from None
        if not factors:
            raise DomainError("at least one factor is required")
        from .chevalley import ChevalleyAutomorphism

        for pos, phi in enumerate(factors):
            if not isinstance(phi, ChevalleyAutomorphism):
                raise DomainError(f"factor {pos} is not a Chevalley automorphism")
            if phi.diagonal is not None and not all(isinstance(x, Fraction) for x in phi.diagonal):
                raise DomainError(f"factor {pos} needs a rational diagonal part: the "
                                  "certificate's eigencharacters lie in Q")
            if phi.rs.type != factors[0].rs.type:
                raise DomainError("factors must share one root system")
        counts = {phi.field.variable_count for phi in factors if phi.field is not None}
        if len(counts) > 1:
            raise DomainError("factor field automorphisms disagree on variable count")
        self.variable_count = counts.pop() if counts else 0
        k = len(factors)
        if not {int}.issuperset(map(type, permutation)) or sorted(permutation) != list(range(k)):
            raise DomainError(f"permutation {decimal(permutation)} does not rearrange 0..{k - 1}")
        self.rs = rs = factors[0].rs
        self.factors = factors
        self.permutation = permutation
        self.k = k
        self._sources = tuple(_index_map(rs, phi.graph) for phi in factors)

    @property
    def permutation_order(self) -> int:
        return permutation_order(self.permutation)


class ZeroEntryWitness(Record):
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


class ObstructionCertificate(Record):
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


def _certify(rs: RootSystem, primes, exponents: Rows, scaling: ScalingAutomorphism,
             correction, index: int) -> ObstructionCertificate:
    """Certify the Q and S entries of every root-indexed column.

    Any Z intertwining the collapsed first and index-th witnesses satisfies
    (sixth power of scaling applied entrywise to Z) = first^{-1} Z other, read
    entrywise as the eigencharacter in the module docstring.  Collapsed entry
    k of witness i is prod_t primes[i][t] ** exponents[k][t]; c is the
    collapse of the diagonal parts on the root positions (identity when
    None), checked here because a hand-built reduction carries it too, and
    before the bound, as the prime blocks are.
    """
    if not isinstance(scaling, ScalingAutomorphism):
        raise DomainError("a scaling automorphism is required")
    count = len(primes)
    message = f"index {decimal(index)} outside the witness range 1..{count}"
    if integer(index, 1, message) > count:
        raise DomainError(message)
    # Each witness holds rank ints and no two share one, checked as sets.
    seen = set()
    for i, block in enumerate(primes):
        if len(block) != rs.rank or not {int}.issuperset(map(type, block)):
            raise DomainError(f"obstruction check: witness {i + 1} needs {rs.rank} int primes, "
                              f"got {block!r}")
        seen.update(block)
    if len(seen) < rs.rank * count:
        raise ConsistencyError("obstruction check: a prime occurs twice in the witness blocks")
    root_count = len(rs.roots)
    c = None
    if correction is not None:
        c = [rational(x) for x in correction]
        if len(c) != root_count:
            raise DomainError(f"correction vector needs {root_count} entries, got {len(c)}")
        if any(x == 0 for x in c):
            raise DomainError("correction entries must be nonzero")
    bound = scaling.variable_count + 1
    generators = tuple((scaling ** 6).scalars)
    if index <= bound:
        return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                      "inconclusive", CertifiedEntries(root_count, (), (), ()),
                                      ())
    first, other = primes[0], primes[index - 1]
    if not all(map(_is_prime, (*first, *other))):
        raise DomainError(f"obstruction check: witnesses 1 and {index} need prime blocks")
    # One coprime base over the two blocks, the generators and the correction:
    # each prime is a base element, and every factor has an exponent vector.
    numbers = {*first, *other, *(n for g in generators for n in (g.numerator, g.denominator))}
    if c is not None:
        numbers.update(n for x in c for n in (abs(x.numerator), x.denominator))
    base = _coprime_base(numbers)
    slot = {b: j for j, b in enumerate(base)}
    shifts = None if c is None else [exponent_vector(x, base) for x in c]
    # Membership of x / y is linear in the difference of the exponent vectors,
    # so the class key is the sign, the exponents on base elements no
    # generator uses, and the residues modulo the Smith divisors of the used.
    lattice = [exponent_vector(g, base) for g in generators if g != 1]
    used = [j for j in range(len(base)) if any(row[j] for row in lattice)]
    unused = [j for j in range(len(base)) if j not in used]
    divisors = _lattice_divisors([[row[j] for j in used] for row in lattice],
                                 len(used)) if lattice else []

    def factor(block, e, k=None):
        """(key, (num, den)) of prod(block ** e), times c[k] when both are given."""
        shifted = shifts is not None and k is not None
        v = list(shifts[k]) if shifted else [0] * len(base)
        num = den = 1
        for p, x in zip(block, e):
            v[slot[p]] += x
            if x > 0:
                num *= p ** x
            elif x < 0:
                den *= p ** -x
        if shifted:
            num, den = num * c[k].numerator, den * c[k].denominator
            g = gcd(num, den)
            num, den = num // g, den // g
        residues = []
        for column, d in divisors:
            w = sum(map(operator.mul, map(v.__getitem__, used), column))
            residues.append(w % d if d else w)
        return (num < 0, tuple(map(v.__getitem__, unused)), tuple(residues)), (num, den)

    rows = [factor(first, exponents[m], m) for m in range(root_count)]
    rows += [factor((), ())] * rs.rank
    cols = [factor(other, exponents[n], n) for n in range(root_count)]
    # A column is good when its collapsed row is nonzero: then every witness's
    # entry there is a nontrivial product over its block.
    column_ok = [any(e) for e in exponents]
    # Entry (m, n) lies in the lattice exactly when row m and column n share
    # a class key, so a row whose key no good column has certifies them all.
    col_keys = [key for key, _ in cols]
    good = tuple(n for n, ok in enumerate(column_ok) if ok)
    good_keys = {col_keys[n] for n in good}
    columns, failed = [], []
    for m, (row_key, _) in enumerate(rows):
        certified = good
        if row_key in good_keys:
            certified = tuple(n for n in good if col_keys[n] != row_key)
        columns.append(certified)
        if len(certified) < root_count:
            failed += [(m, n) for n in range(root_count)
                       if not column_ok[n] or col_keys[n] == row_key]
    entries = CertifiedEntries(root_count, [x for _, x in rows], [x for _, x in cols], columns)
    return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                  "inconclusive" if failed else "obstructed", entries,
                                  tuple(failed))


def obstruction_check(rs: RootSystem, witnesses: WitnessSequence,
                      symmetry: DiagramSymmetry | None,
                      scaling: ScalingAutomorphism,
                      index_beyond_bound: int) -> ObstructionCertificate:
    """Certify that witness index_beyond_bound cannot be reached from the
    first witness by any intertwining matrix compatible with the automorphism.

    The index must exceed the transcendence degree of the scaling field plus
    one; otherwise the verdict is "inconclusive" without analysis, since up
    to that many witnesses can share a twisted class.  The field part fixes
    the rational witnesses, so only the graph's root permutation enters the
    collapse, which runs once on the pairing rows.  An automorphism with a
    diagonal part goes through ``project_product_to_first_factor`` as
    ProductAutomorphism([phi], (0,)).
    """
    if witnesses.root_system.type != rs.type:
        raise DomainError("witnesses were generated for a different root system")
    rs = witnesses.root_system
    exponents = _collapse((_index_map(rs, symmetry),), rs.pairings, 6)
    return _certify(rs, witnesses.primes, exponents, scaling, None, index_beyond_bound)


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


class FirstFactorReduction(Record, eq=False):
    """First-summand shadow of a product automorphism acting on direct-sum
    witnesses: their prime blocks, the exponent rows of the collapse over
    6 * (order of the permutation) steps, shared by every witness, the
    composed field scaling along the first cycle, and the torus element c
    that the diagonal parts conjugate the collapse by (None without one)."""

    root_system: RootSystem
    primes: tuple[tuple[int, ...], ...]
    exponents: Rows
    scaling: ScalingAutomorphism
    permutation_order: int
    correction: tuple | None = None


def project_product_to_first_factor(product_aut: ProductAutomorphism,
                                    witnesses: WitnessSequence) -> FirstFactorReduction:
    """Collapse diag(g_i, ..., g_i) under the product automorphism and keep
    only the first summand.

    After t steps the first summand is phi_{j_1} ... phi_{j_t}(g_i) along
    the cycle j_t = s^t(0) through it, so the other summands never enter.
    Over 6s steps (s the permutation order) the permutation part returns to
    the identity and the graph parts cancel, leaving the sixth power of the
    field scaling composed along that cycle.  The collapse runs once, on the
    pairing rows, and feeds the same certification as the one-factor case.

    A diagonal part D gives phi(x) = psi(D) psi(x) psi(D)^-1 for psi the
    graph-plus-field part, and torus conjugation fixes the witnesses, so the
    6s steps only add conjugation by c, c[k] the product over t of
    D_{j_(t+1)} at the composed index map idx_(t+1)(k), D's entry at beta
    being prod v_k^beta_k over its simple-root values v_k; a factor without
    a diagonal part contributes 1.
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
    exponents = _collapse(cycle, rs.pairings, 6 * s)
    correction = None
    if any(phi.diagonal is not None for phi in product_aut.factors):
        # each diagonal part's entries at the roots, prod v_k^beta_k
        diagonals = [None if d is None else [prod(map(pow, d, beta)) for beta in rs.roots]
                     for d in (product_aut.factors[j].diagonal for j in orbit)]
        correction = tuple(prod(d[i] for d, i in zip(itertools.cycle(diagonals), idx[1:])
                                if d is not None)
                           for idx in _factors(cycle, len(rs.roots), 6 * s + 1))
    theta = ScalingAutomorphism.identity(product_aut.variable_count)
    for t in range(s):
        field = product_aut.factors[orbit[t % len(orbit)]].field
        if field is not None:
            theta = theta.compose(field)
    return FirstFactorReduction(rs, witnesses.primes, exponents, theta, s, correction)


def reduced_obstruction_check(reduction: FirstFactorReduction,
                              index_beyond_bound: int) -> ObstructionCertificate:
    """Certification on the first-summand shadow; same mechanism, with the
    composed cycle scaling in place of the single field automorphism and the
    reduction's correction from the diagonal parts."""
    rs, exponents = reduction.root_system, tuple(map(tuple, reduction.exponents))
    if (len(exponents) != len(rs.roots) or any(len(e) != rs.rank for e in exponents)
            or not {int}.issuperset(map(type, itertools.chain.from_iterable(exponents)))):
        raise DomainError(f"obstruction check: the reduction needs {len(rs.roots)} "
                          f"int exponent rows of length {rs.rank}")
    return _certify(rs, reduction.primes, exponents, reduction.scaling, reduction.correction,
                    index_beyond_bound)
