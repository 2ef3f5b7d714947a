"""The tests' Fraction oracle for witness certificates, independent of the
exponent rows that ``tck.witness`` certifies on.

A witness entry is a ``Fraction`` built from its prime block through
``RootSystem.cartan_integer``; a collapse multiplies entries along the graph
part's index maps; a certificate keys every row and column factor by
refactoring it over one coprime base (``character_classes``) and checks each
column's witness family for disjoint supports with running gcds
(``supports_pairwise_disjoint``).  The library route must give the same
verdict, uncertified positions, generators and integer entries.
"""

from fractions import Fraction
from math import prod

from tck import ConsistencyError, DomainError, ScalingAutomorphism, supports_pairwise_disjoint
from tck.errors import integer, rational
from tck.fields import _coprime_base, _lattice_divisors, exponent_vector
from tck.witness import CertifiedEntries, ObstructionCertificate, _index_map


def fraction_diagonals(witnesses):
    """Entry beta of g_i as prod_t p_it^<beta, alpha_t^v>, one Fraction each."""
    rs = witnesses.root_system
    simple = [tuple(int(j == t) for j in range(rs.rank)) for t in range(rs.rank)]
    pairings = [[rs.cartan_integer(beta, alpha) for alpha in simple] for beta in rs.roots]
    return tuple(tuple(prod(Fraction(p) ** k for p, k in zip(block, row)) for row in pairings)
                 for block in witnesses.primes)


def fraction_products(primes, exponents):
    """Witness i's collapsed entries as Fractions: entry k is
    prod_t primes[i][t] ** exponents[k][t]."""
    return tuple(tuple(prod(Fraction(p) ** k for p, k in zip(block, row)) for row in exponents)
                 for block in primes)


def fraction_collapse(cycle, g, m):
    """g phi_1(g) (phi_1 phi_2)(g) ... (phi_1 ... phi_{m-1})(g), phi_t the
    graph part with index map cycle[(t - 1) % len(cycle)], as Fractions."""
    acc = list(g)
    index = range(len(g))
    for t in range(m - 1):
        sources = cycle[t % len(cycle)]
        if sources is not None:
            index = [sources[i] for i in index]
        acc = [a * g[i] for a, i in zip(acc, index)]
    return tuple(acc)


def character_classes(generators, values):
    """Class key of the given nonzero rationals modulo the lattice the positive
    generators span: key(x) == key(y) exactly when x / y is a member.

    One coprime base is refined over the generators and all values together,
    so every value factors over it and exponent vectors subtract; over the
    generators' base alone, 2 / (1/3) lies in <6> although neither factor
    does.  Membership is linear in the exponent vector, so the key is the
    sign, the exponents on base elements no generator uses, and w_j mod d_j
    (w_j where d_j = 0) for the Smith columns of the used ones with d_j != 1.
    Keys exist only for nonzero values that factor over the base.
    """
    gens = [rational(g) for g in generators]
    values = [rational(x) for x in values]
    if any(g <= 0 for g in gens):
        raise DomainError("character lattice generators must be positive")
    base = _coprime_base({n for x in (*gens, *values) for n in (abs(x.numerator), x.denominator)})
    rows = [exponent_vector(g, base) for g in gens if g != 1]
    used = [j for j in range(len(base)) if any(row[j] for row in rows)]
    unused = [j for j in range(len(base)) if j not in used]
    divisors = _lattice_divisors([[row[j] for j in used] for row in rows], len(used)) if rows else []

    def key(x) -> tuple:
        vec = exponent_vector(x, base)
        if vec is None:
            raise DomainError(f"{x} does not factor over the class base")
        target = [vec[j] for j in used]
        residues = []
        for column, d in divisors:
            w = sum(t * v for t, v in zip(target, column))
            residues.append(w % d if d else w)
        return (x < 0, tuple(vec[j] for j in unused), tuple(residues))

    return key


def fraction_certify(rs, products, scaling, correction, index):
    """The certificate on collapsed Fraction products, keyed per factor."""
    count = len(products)
    if integer(index, 1, "index") > count:
        raise DomainError("index outside the witness range")
    root_count = len(rs.roots)
    bound = scaling.variable_count + 1
    generators = tuple((scaling ** 6).scalars)
    if index <= bound:
        return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                      "inconclusive", CertifiedEntries(root_count, (), (), ()),
                                      ())
    column_ok = []
    for n in range(root_count):
        family = [products[j][n] for j in range(count)]
        if not supports_pairwise_disjoint(family):
            raise ConsistencyError(f"supports collide at root position {n}")
        column_ok.append(all(abs(b) != 1 for b in family))
    c = [Fraction(1)] * root_count if correction is None else [Fraction(x) for x in correction]
    first, other = products[0], products[index - 1]
    rows = [first[m] * c[m] for m in range(root_count)] + [Fraction(1)] * rs.rank
    cols = [other[n] * c[n] for n in range(root_count)]
    key = character_classes(generators, rows + cols)
    col_keys = [key(x) for x in cols]
    columns, failed = [], []
    for m, row in enumerate(rows):
        row_key = key(row)
        columns.append(tuple(n for n in range(root_count)
                             if column_ok[n] and col_keys[n] != row_key))
        failed += [(m, n) for n in range(root_count)
                   if not column_ok[n] or col_keys[n] == row_key]
    entries = CertifiedEntries(root_count, [(x.numerator, x.denominator) for x in rows],
                               [(x.numerator, x.denominator) for x in cols], columns)
    return ObstructionCertificate(root_count, rs.rank, index, bound, count, generators,
                                  "inconclusive" if failed else "obstructed", entries,
                                  tuple(failed))


def fraction_obstruction_check(witnesses, symmetry, scaling, index, correction=None):
    rs = witnesses.root_system
    cycle = (_index_map(rs, symmetry),)
    products = [fraction_collapse(cycle, g, 6) for g in fraction_diagonals(witnesses)]
    return fraction_certify(rs, products, scaling, correction, index)


def fraction_projection(product, witnesses):
    """(products, scaling) of the first-factor projection on Fractions."""
    perm, s = product.permutation, product.permutation_order
    orbit = [perm[0]]
    while orbit[-1] != 0:
        orbit.append(perm[orbit[-1]])
    cycle = [product._sources[j] for j in orbit]
    products = [fraction_collapse(cycle, g, 6 * s) for g in fraction_diagonals(witnesses)]
    theta = ScalingAutomorphism.identity(product.variable_count)
    for t in range(s):
        field = product.factors[orbit[t % len(orbit)]].field
        if field is not None:
            theta = theta.compose(field)
    return products, theta


def fraction_reduced_check(product, witnesses, index, correction=None):
    products, theta = fraction_projection(product, witnesses)
    return fraction_certify(witnesses.root_system, products, theta, correction, index)


def summary(certificate):
    """What the two routes must agree on."""
    return (certificate.verdict, certificate.uncertified, certificate.generators,
            list(certificate.entries.integer_entries()))
