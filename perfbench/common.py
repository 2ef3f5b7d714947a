"""Pieces shared by the workloads: jobs, layer entry points, the span
tracer, the machine-speed reference, and the small exact helpers the oracles
use instead of tck.

Nothing here imports tck at module level; `Layers` resolves each entry point
on first use, after the checkout's `src` is on the path.
"""

import bisect
import gc
import importlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# Every call the benchmark makes into a layer goes through one of these
# names, so a traced run can put a span around it.  The span is named
# "<module>.<function>"; `roots.constants` forces `RootSystem.constants`.
LAYER_FUNCTIONS = (
    "roots.build_root_system",
    "roots.constants",
    "roots.diagram_symmetries",
    "chevalley.x_alpha",
    "chevalley.h_alpha",
    "chevalley.commutator_relation_check",
    "linalg.mat_mul",
    "linalg.mat_inv",
    "fields.character_lattice_member",
    "twisted.closure",
    "twisted.reidemeister_number",
    "twisted.isogredience_count",
    "twisted.all_automorphisms",
    "spectrum.reidemeister_zn",
    "spectrum.smith_normal_form",
    "spectrum.heisenberg_oracle",
    "spectrum.heisenberg_cokernel_product",
    "spectrum.metabelian_spectrum",
    "witness.generate_witnesses",
    "witness.obstruction_check",
    "witness.project_product_to_first_factor",
    "witness.reduced_obstruction_check",
    "witness.pattern_determinant",
    "cli.main",
)


def _constants(rs):
    return rs.constants


def _resolve(name: str) -> Callable:
    module, function = name.split(".")
    if name == "roots.constants":
        return _constants
    return getattr(importlib.import_module(f"tck.{module}"), function)


class _LayerModule:
    """Entry points of one module, resolved (and wrapped) on first use."""

    def __init__(self, module: str, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, function):
        name = f"{self._module}.{function}"
        if name not in LAYER_FUNCTIONS:
            raise AttributeError(name)
        fn = _resolve(name)
        if self._tracer is not None:
            fn = self._tracer.wrap(name, fn)
        setattr(self, function, fn)
        return fn


class Layers:
    """Layer entry points as `layers.<module>.<function>`.

    Without a tracer the attributes are tck's own functions, so an untraced
    run pays nothing for the indirection beyond one attribute lookup.
    """

    def __init__(self, tracer=None):
        for module in {name.split(".")[0] for name in LAYER_FUNCTIONS}:
            setattr(self, module, _LayerModule(module, tracer))


@dataclass
class Job:
    """One closed-loop job.

    `run` is the timed part and calls tck only through the layers it was
    built with.  `check` is the oracle, run outside the timed span: it gets
    the result and a counter dict and returns None or a failure message.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], str | None]


class JobTimeout(BaseException):
    """Raised by the wall-limit timer; a BaseException so that no handler
    inside the package can swallow it."""


class Tracer:
    """Spans kept in memory as (name, start, end, parent, job) tuples.

    `parent` is the index of the enclosing span or None; `job` is the id of
    the job that was running ("setup" before the first job).
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = "setup"

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.job)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)

        return traced

    def run_job(self, job_id: str, job: Job):
        """Run `job.run` inside a root span named `job.<kind>`."""
        self.job = job_id
        index, parent = self._open()
        start = time.perf_counter()
        try:
            return job.run()
        finally:
            self._close(index, parent, f"job.{job.kind}", start)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).  Self time is the span's
        duration minus the time its direct children cover; spans of one
        thread nest, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}


# -- machine speed -----------------------------------------------------------

# The machine this benchmark was written on is shared: its speed drifts by a
# quarter or more over seconds to minutes, whatever runs.  Each run therefore
# times a fixed loop that uses no tck between jobs, and scales every job's
# latency by REFERENCE_S / (the loop's time near that job).  Timings are
# reported in milliseconds at the speed where the loop takes REFERENCE_S;
# a change to tck moves them, a change in the machine's load much less.
REFERENCE_S = 0.010
REFERENCE_WINDOW = 5


def reference_seconds() -> float:
    """Time one fixed pure-Python loop of Fraction arithmetic and small
    allocations, the kind of work tck does, with the collector paused so that
    the heap a job left behind does not change the loop's cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 2500):
            total += Fraction(i, i + 1)
            table[(i, 3 * i)] = [i] * 4
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale_to_reference(latencies, references) -> list[float]:
    """Scale each latency to the reference speed.

    `references` lists [job index, loop seconds] in order, each timed just
    before that job.  A job uses the median of the REFERENCE_WINDOW samples
    nearest to it, so one noisy sample does not move it."""
    positions = [index for index, _ in references]
    seconds = [value for _, value in references]
    half = REFERENCE_WINDOW // 2
    out = []
    for j, latency in enumerate(latencies):
        k = bisect.bisect_right(positions, j) - 1
        lo = max(0, min(k - half, len(seconds) - REFERENCE_WINDOW))
        out.append(latency * REFERENCE_S / median(seconds[lo:lo + REFERENCE_WINDOW]))
    return out


# -- exact helpers for the oracles -----------------------------------------


def int_det(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def exponent_vector(x: Fraction, primes) -> list[int] | None:
    """Exponents of x over `primes`, or None if x has another prime factor."""
    num, den = abs(x.numerator), x.denominator
    out = []
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        out.append(e)
    return out if num == 1 and den == 1 else None


def in_integer_span(target: list[int], rows: list[list[int]]) -> bool:
    """Whether target is an integer combination of at most two linearly
    independent integer rows (all the oracles need)."""
    if not rows:
        return not any(target)
    if len(rows) > 2:
        raise ValueError("at most two generators are supported")
    width = len(target)
    if len(rows) == 1:
        (g,) = rows
        pivot = next(i for i in range(width) if g[i])
        if target[pivot] % g[pivot]:
            return False
        q = target[pivot] // g[pivot]
        return all(t == q * x for t, x in zip(target, g))
    g, h = rows
    for i in range(width):
        for j in range(i + 1, width):
            minor = g[i] * h[j] - g[j] * h[i]
            if minor:
                x = Fraction(target[i] * h[j] - target[j] * h[i], minor)
                y = Fraction(g[i] * target[j] - g[j] * target[i], minor)
                if x.denominator != 1 or y.denominator != 1:
                    return False
                return all(t == x * a + y * b for t, a, b in zip(target, g, h))
    raise ValueError("generator rows are linearly dependent")


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
