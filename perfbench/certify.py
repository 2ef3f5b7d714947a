"""certify: one obstruction certificate per job, root system built fresh.

A round holds one plain job for each of A2, A3, B2, G2, D4 and F4, one E6
job (plain on even rounds, with the diagram reversal on odd ones), the
graph jobs A3-reversal and twice D4-order-3, and for each of A2, A3, B2
and G2 a swap-product job and a job whose index is within the
transcendence bound.
Witness counts (4-6) and the transcendence degree (1 or 2) cycle with the
round and the job's place in it; the seed picks the scalars, the indices,
the sampled entries the oracle re-checks and the order of the round.  The
mix is the same for every seed, so a run's cost does not depend on which
seed drew it.
"""

import random
from fractions import Fraction

from common import Job, exponent_vector, in_integer_span

PLAIN_TYPES = ("A2", "A3", "B2", "G2", "D4", "F4")
SMALL_TYPES = ("A2", "A3", "B2", "G2")
# Scalars use only the primes 2 and 3, which always sit in the first
# witness's prime block, so every later witness differs from the first in a
# prime the scaling lattice cannot reach: index > bound must be obstructed.
SCALAR_PRIMES = (2, 3)
SCALINGS_1 = ((2,), (3,), (Fraction(1, 2),), (Fraction(2, 3),), (4,), (Fraction(3, 2),))
SCALINGS_2 = ((2, 3), (3, 2), (2, Fraction(3, 2)), (Fraction(1, 3), 4), (6, 2))
SAMPLE = 8  # certified entries re-checked per job


class Certify:
    name = "certify"
    round_seconds = 7.2  # nominal, for turning --seconds into rounds

    def __init__(self, seed: int, layers):
        self.seed = seed
        import tck

        self.tck = tck

    def round(self, r: int, layers) -> list[Job]:
        rng = random.Random(f"certify/{self.seed}/{r}")
        specs = [(t, 2 if t == "E6" and r % 2 else None, "obstructed")
                 for t in PLAIN_TYPES + ("E6",)]
        # D4 runs three times, so the jobs around the tail percentile are alike.
        specs += [("A3", 2, "obstructed"), ("D4", 3, "obstructed"), ("D4", 3, "obstructed")]
        specs += [(t, None, kind) for t in SMALL_TYPES for kind in ("swap", "inconclusive")]
        jobs = []
        for i, (t, graph, kind) in enumerate(specs):
            count = 4 + (r + i) % 3
            scalars = rng.choice(SCALINGS_1 if (r + i) % 2 else SCALINGS_2)
            scalars = tuple(Fraction(c) for c in scalars)
            if kind == "swap":
                jobs.append(self._swap(layers, rng, t, count, scalars))
            else:
                jobs.append(self._certificate(layers, rng, t, graph, count, scalars,
                                              obstructed=kind == "obstructed"))
        rng.shuffle(jobs)
        return jobs

    def _certificate(self, L, rng, type_name, graph, count, scalars, obstructed):
        tck = self.tck
        bound = len(scalars) + 1
        if obstructed:
            index = rng.randint(bound + 1, count)
        else:
            index = rng.randint(1, bound)
        check_rng = random.Random(rng.random())
        generators = tuple(c ** 6 for c in scalars)

        def run():
            rs = L.roots.build_root_system(type_name)
            L.roots.constants(rs)
            symmetry = None
            if graph is not None:
                symmetry = next(s for s in L.roots.diagram_symmetries(rs) if s.order == graph)
            witnesses = L.witness.generate_witnesses(rs, count)
            scaling = tck.ScalingAutomorphism(scalars)
            certificate = L.witness.obstruction_check(rs, witnesses, symmetry, scaling, index)
            determinant = None
            if obstructed and certificate.verdict == "obstructed":
                determinant = L.witness.pattern_determinant(certificate)
            return rs, witnesses, certificate, determinant

        def check(result, counts):
            rs, witnesses, certificate, determinant = result
            return _check_certificate(rs, witnesses, certificate, determinant, obstructed,
                                      generators, check_rng, counts)

        graph_label = {None: "", 2: "+reversal", 3: "+order3"}[graph]
        label = (f"{type_name}{graph_label} count={count} index={index} "
                 f"scale={','.join(map(str, scalars))}")
        return Job("obstructed" if obstructed else "inconclusive", label, run, check)

    def _swap(self, L, rng, type_name, count, scalars):
        tck = self.tck
        bound = len(scalars) + 1
        index = rng.randint(bound + 1, count)
        check_rng = random.Random(rng.random())
        # Over one swap cycle the first summand sees the field scaling twice.
        generators = tuple(c ** 12 for c in scalars)

        def run():
            rs = L.roots.build_root_system(type_name)
            L.roots.constants(rs)
            witnesses = L.witness.generate_witnesses(rs, count)
            factor = tck.ChevalleyAutomorphism(rs, field=tck.ScalingAutomorphism(scalars))
            product = tck.ProductAutomorphism([factor, factor], (1, 0))
            reduction = L.witness.project_product_to_first_factor(product, witnesses)
            certificate = L.witness.reduced_obstruction_check(reduction, index)
            determinant = None
            if certificate.verdict == "obstructed":
                determinant = L.witness.pattern_determinant(certificate)
            return rs, witnesses, certificate, determinant

        def check(result, counts):
            rs, witnesses, certificate, determinant = result
            return _check_certificate(rs, witnesses, certificate, determinant, True,
                                      generators, check_rng, counts)

        label = f"{type_name} swap count={count} index={index} scale={','.join(map(str, scalars))}"
        return Job("swap", label, run, check)


def _check_certificate(rs, witnesses, certificate, determinant, obstructed, generators,
                       rng, counts):
    queries = len(certificate.entries) + len(certificate.uncertified)
    counts["witness.lattice_queries"] += queries
    counts["witness.certified_entries"] += len(certificate.entries)
    expected = "obstructed" if obstructed else "inconclusive"
    if certificate.verdict != expected:
        return f"verdict {certificate.verdict}, expected {expected}"
    if not obstructed:
        if queries:
            return f"inconclusive certificate lists {queries} positions"
        return None
    roots = len(rs.roots)
    if len(certificate.entries) != (roots + rs.rank) * roots or certificate.uncertified:
        return (f"{len(certificate.entries)} certified and {len(certificate.uncertified)} "
                f"uncertified entries, expected {(roots + rs.rank) * roots} certified")
    if determinant:
        return "pattern determinant is not 0"
    if tuple(certificate.generators) != generators:
        return f"lattice generators {certificate.generators}, expected {generators}"
    # Re-check a sample by exponent vectors over the known primes: every
    # certified eigencharacter must factor over them and lie outside the
    # lattice the scaling generates.
    primes = sorted(set(SCALAR_PRIMES).union(*witnesses.primes))
    rows = [exponent_vector(g, primes) for g in generators]
    for entry in rng.sample(certificate.entries, min(SAMPLE, len(certificate.entries))):
        vector = exponent_vector(entry.eigencharacter, primes)
        if vector is None:
            return f"eigencharacter at {entry.position} has a prime outside the witness blocks"
        if in_integer_span(vector, rows):
            return f"eigencharacter at {entry.position} lies in the scaling lattice"
    return None
