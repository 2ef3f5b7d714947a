"""count: twisted-class counts, Z^n and Heisenberg spectra, Smith forms,
lattice membership and metabelian spectra, in one seeded mix.

A round holds the closure/R/S jobs of GROUP_JOBS (S5-S8, S7 twice, and
SL(2,3/5/7)), the three `all_automorphisms` sweeps (S4, SL(2,3), SL(2,5)),
one `reidemeister_zn` job for each n = 2..8, five Smith forms, four
Heisenberg comparisons (odd m = 3..9), 24 lattice-membership queries and
eight metabelian membership queries.  Most jobs near the median are
lattice queries.  The seed picks the conjugating elements,
matrices and queries and the order of the round.  The mix is the same for
every seed.
"""

import random
from fractions import Fraction
from math import gcd

from common import Job, int_det

# name -> (generators, modulus, order, conjugacy classes, classes of G/Z)
GROUPS = {}
_PARTITIONS = {5: 7, 6: 11, 7: 15, 8: 22}
for _n in (5, 6, 7, 8):
    _order = 1
    for _k in range(2, _n + 1):
        _order *= _k
    GROUPS[f"S{_n}"] = (
        [tuple([1, 0] + list(range(2, _n))), tuple(list(range(1, _n)) + [0])],
        None, _order, _PARTITIONS[_n], _PARTITIONS[_n],
    )
for _q in (3, 5, 7):
    # SL(2,q), q odd: q + 4 classes; PSL(2,q) has (q + 5)/2.
    GROUPS[f"SL(2,{_q})"] = (
        [((1, 1), (0, 1)), ((1, 0), (1, 1))], _q, _q * (_q * _q - 1), _q + 4, (_q + 5) // 2,
    )
# (group, twisted by an inner automorphism?) for the group jobs of a round.
# S7 runs twice, so the jobs around the tail percentile are alike.
GROUP_JOBS = (("S5", False), ("S6", True), ("S7", False), ("S7", True), ("S8", True),
              ("SL(2,3)", False), ("SL(2,5)", True), ("SL(2,7)", False))
# |Aut(S4)| = 24, Aut(SL(2,3)) = S4, Aut(SL(2,5)) = S5.
SWEEPS = {
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], None, 24),
    "SL(2,3)": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 3, 24),
    "SL(2,5)": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 5, 120),
}
LATTICE_PRIMES = (2, 3, 5, 7, 11, 13)
OUTSIDE_PRIMES = (17, 19, 23)
METABELIAN_PRIMES = (2, 3, 5, 7)


def random_unimodular(rng, n):
    """Integer matrix of determinant +-1 from random elementary row moves."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + rng.randrange(4)):
        i, j = rng.sample(range(n), 2)
        move = rng.randrange(3)
        if move == 0:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif move == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def metabelian_members(case, p, limit):
    """Members <= limit of the spectrum in each case, from the set forms."""
    out = set()
    if case == "equal-units":
        return {2 * n for n in range(1, limit // 2 + 1) if gcd(n, p) == 1}
    if case == "reciprocal-pair":
        out.add(4)
        power = p
        while 2 * (power - 1) <= limit:
            out.update((2 * (power - 1), 2 * (power + 1)))
            power *= p
    elif case == "opposite-units":
        pl = p
        while 4 * pl <= limit:
            out.add(4 * pl)
            pk = p
            while 2 * pl * (pk - 1) <= limit:
                out.update((2 * pl * (pk - 1), 2 * pl * (pk + 1)))
                pk *= p
            pl *= p
    return {v for v in out if v <= limit}


class Count:
    name = "count"
    round_seconds = 4.6  # nominal, for turning --seconds into rounds

    def __init__(self, seed: int, layers):
        import tck

        self.tck = tck
        self.seed = seed

    def round(self, r: int, layers) -> list[Job]:
        rng = random.Random(f"count/{self.seed}/{r}")
        jobs = [self._group(layers, rng, name, inner) for name, inner in GROUP_JOBS]
        jobs += [self._sweep(layers, name) for name in SWEEPS]
        jobs += [self._zn(layers, rng, n) for n in range(2, 9)]
        jobs += [self._snf(layers, rng, n) for n in (4, 5, 6, 7, 8)]
        jobs += [self._heisenberg(layers, rng, m) for m in (3, 5, 7, 9)]
        jobs += [self._lattice(layers, rng, i) for i in range(24)]
        jobs += [self._metabelian(layers, rng) for _ in range(8)]
        rng.shuffle(jobs)
        return jobs

    def _group(self, L, rng, name, inner):
        tck = self.tck
        generators, modulus, order, classes, central_classes = GROUPS[name]
        inner = rng.randrange(order) if inner else None

        def run():
            G = L.twisted.closure(generators, modulus)
            if inner is None:
                phi = tck.GroupAutomorphism.identity(G)
            else:
                phi = tck.GroupAutomorphism.inner(G, G.elements[inner])
            return (len(G), L.twisted.reidemeister_number(G, phi),
                    L.twisted.isogredience_count(G, phi).count)

        def check(result, counts):
            counts["twisted.closure.elements"] += result[0]
            expected = (order, classes, central_classes)
            if result != expected:
                return f"(|G|, R, S) = {result}, expected {expected}"
            return None

        twist = "id" if inner is None else f"inner #{inner}"
        return Job("group", f"{name} {twist}", run, check)

    def _sweep(self, L, name):
        generators, modulus, expected = SWEEPS[name]

        def run():
            G = L.twisted.closure(generators, modulus)
            return len(G), len(L.twisted.all_automorphisms(G))

        def check(result, counts):
            counts["twisted.closure.elements"] += result[0]
            counts["twisted.all_automorphisms.found"] += result[1]
            if result[1] != expected:
                return f"{result[1]} automorphisms, expected {expected}"
            return None

        return Job("sweep", f"all_automorphisms {name}", run, check)

    def _zn(self, L, rng, n):
        matrix = random_unimodular(rng, n)
        shifted = [[matrix[i][j] - (i == j) for j in range(n)] for i in range(n)]
        expected = abs(int_det(shifted))

        def run():
            return L.spectrum.reidemeister_zn(matrix)

        def check(result, counts):
            if expected == 0:
                return None if not result.is_finite else f"R = {result}, expected infinity"
            if not result.is_finite or result.value != expected:
                return f"R = {result}, expected |det(I - M)| = {expected}"
            return None

        return Job("zn", f"reidemeister_zn {matrix}", run, check)

    def _snf(self, L, rng, n):
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = abs(int_det(matrix))

        def run():
            return L.spectrum.smith_normal_form(matrix).diagonal

        def check(diagonal, counts):
            product = 1
            for d in diagonal:
                product *= d
            chain = all(d >= 0 for d in diagonal) and all(
                b % a == 0 if a else b == 0 for a, b in zip(diagonal, diagonal[1:])
            )
            if not chain or product != expected:
                return f"diagonal {diagonal}, expected a divisor chain with product {expected}"
            return None

        return Job("snf", f"smith_normal_form {matrix}", run, check)

    def _heisenberg(self, L, rng, m):
        # The mod-m cokernel identity needs I - M invertible mod m.
        while True:
            matrix = random_unimodular(rng, 2)
            shifted = [[matrix[0][0] - 1, matrix[0][1]], [matrix[1][0], matrix[1][1] - 1]]
            if gcd(int_det(shifted), m) == 1:
                break

        def run():
            return (L.spectrum.heisenberg_oracle(matrix, m),
                    L.spectrum.heisenberg_cokernel_product(matrix, m))

        def check(result, counts):
            brute, closed = result
            return None if brute == closed else f"oracle {brute}, cokernel product {closed}"

        return Job("heisenberg", f"heisenberg m={m} {matrix}", run, check)

    def _lattice(self, L, rng, i):
        # The generator count (1-3) and the query's shape cycle with i, and
        # each generator takes its own pair of primes, so every round asks
        # questions of the same sizes.
        generators = []
        offset = rng.randrange(len(LATTICE_PRIMES))
        for k in range(1 + i % 3):
            num = den = 1
            for j in (2 * k, 2 * k + 1):
                p = LATTICE_PRIMES[(j + offset) % len(LATTICE_PRIMES)]
                if rng.random() < 0.5:
                    num *= p ** rng.randint(1, 3)
                else:
                    den *= p ** rng.randint(1, 2)
            generators.append(Fraction(num, den))
        lam = Fraction(1)
        for g in generators:
            lam *= g ** rng.randint(-3, 3)
        shape = i % 4
        if shape == 0:
            expected = True
        elif shape == 1:
            lam *= Fraction(rng.choice(OUTSIDE_PRIMES)) ** rng.choice((-1, 1))
            expected = False
        elif shape == 2:
            lam = -lam
            expected = False
        else:
            lam = lam * rng.choice(generators)
            expected = True

        def run():
            return L.fields.character_lattice_member(lam, generators)

        def check(result, counts):
            return None if result is expected else f"member = {result}, expected {expected}"

        return Job("lattice", f"character_lattice_member {lam} in <{generators}>", run, check)

    def _metabelian(self, L, rng):
        p = rng.choice(METABELIAN_PRIMES)
        case = rng.choice(("equal-units", "opposite-units", "reciprocal-pair", "generic"))
        sign = rng.choice((1, -1))
        if case == "equal-units":
            r = s = Fraction(sign)
        elif case == "opposite-units":
            r, s = Fraction(sign), Fraction(-sign)
        elif case == "reciprocal-pair":
            k = rng.randint(1, 2)
            r, s = Fraction(sign * p ** k), Fraction(sign, p ** k)
        else:
            r, s = Fraction(p), Fraction(p ** 2)
        limit = 2 * p ** 4
        members = sorted(metabelian_members(case, p, limit))
        if members and rng.random() < 0.5:
            value = rng.choice(members)
        else:
            value = rng.randint(1, limit)
        expected = value in members

        def run():
            return L.spectrum.metabelian_spectrum(r, s, p).contains(value)

        def check(result, counts):
            return None if result is expected else f"contains = {result}, expected {expected}"

        return Job("metabelian", f"metabelian r={r} s={s} p={p} value={value}", run, check)
