"""relations: one seeded Chevalley relation check per job.

The root systems are built once in set-up, and every root's exponential is
warmed there, so jobs run on warm caches.  A round holds, for each type, one
job of each relation with rational parameters (the commutator is skipped on
A1, which has no pair beta != +-alpha), plus one job of each relation with a
rational-function parameter on a seeded type.  The seed picks the roots, the
parameters and the order of the round.
"""

import random
from fractions import Fraction

from common import Job

TYPES = ("A1", "A2", "A3", "B2", "G2", "B3", "C3")
KINDS = ("add", "torus", "conjugate", "commutator")
RATIONALS = tuple(sorted({Fraction(p, q) for p in range(-5, 6) if p for q in range(1, 5)}))


class Relations:
    name = "relations"
    round_seconds = 0.15  # nominal, for turning --seconds into rounds

    def __init__(self, seed: int, layers):
        import tck

        self.seed = seed
        self.systems = {}
        for name in TYPES:
            rs = layers.roots.build_root_system(name)
            layers.roots.constants(rs)
            for alpha in rs.roots:
                layers.chevalley.x_alpha(rs, alpha, 1)
            self.systems[name] = rs
        self.variable = tck.RationalFunction.variable(1, 0)

    def round(self, r: int, layers) -> list[Job]:
        rng = random.Random(f"relations/{self.seed}/{r}")
        jobs = []
        for name in TYPES:
            for kind in KINDS:
                if kind == "commutator" and name == "A1":
                    continue
                jobs.append(self._job(layers, rng, name, kind, function_field=False))
        for kind in KINDS:
            names = TYPES[1:] if kind == "commutator" else TYPES
            jobs.append(self._job(layers, rng, rng.choice(names), kind, function_field=True))
        rng.shuffle(jobs)
        return jobs

    def _parameter(self, rng, function_field):
        if not function_field:
            return rng.choice(RATIONALS)
        # a*T + b with a != 0: a unit of Q(T) that is never a constant.
        a = rng.choice((1, 2, -1, Fraction(1, 2)))
        b = rng.choice((0, 1, -2, Fraction(1, 3)))
        return self.variable * a + b

    def _job(self, L, rng, name, kind, function_field):
        rs = self.systems[name]
        alpha = rng.choice(rs.roots)
        t = self._parameter(rng, function_field)
        u = rng.choice(RATIONALS)
        x_alpha, h_alpha, mat_mul = L.chevalley.x_alpha, L.chevalley.h_alpha, L.linalg.mat_mul

        if kind == "add":
            def run():
                return (mat_mul(x_alpha(rs, alpha, t), x_alpha(rs, alpha, u)),
                        x_alpha(rs, alpha, t + u))
        elif kind == "torus":
            def run():
                return (mat_mul(h_alpha(rs, alpha, t), h_alpha(rs, alpha, u)),
                        h_alpha(rs, alpha, t * u))
        elif kind == "conjugate":
            beta = rng.choice(rs.roots)
            weight = t ** rs.cartan_integer(beta, alpha) * u

            def run():
                h = h_alpha(rs, alpha, t)
                conjugated = mat_mul(mat_mul(h, x_alpha(rs, beta, u)), L.linalg.mat_inv(h))
                return conjugated, x_alpha(rs, beta, weight)
        else:
            beta = rng.choice([b for b in rs.roots if b != alpha and b != rs.negate(alpha)])

            def run():
                return L.chevalley.commutator_relation_check(rs, alpha, beta, t, u), True

        def check(result, counts):
            left, right = result
            return None if left == right else "relation does not hold"

        field = "Q(T)" if function_field else "Q"
        return Job(kind, f"{kind} {name} alpha={alpha} t={t} u={u} over {field}", run, check)
