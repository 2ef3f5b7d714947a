"""Worker process: set up one workload in a fresh interpreter and run it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Run from the root of a checkout, with `src` on PYTHONPATH (run.py does both).
The worker prints "ready" once set-up is done; run.py times set-up from its
spawn to that line.  Modes:

  probe  set up, print "ready", exit;
  run    run the rounds that fill S seconds at the workload's nominal round
         time, untraced;
  trace  run the rounds that fill S/2 seconds untraced, then the same
         rounds traced, and derive the per-layer numbers from the spans.

The number of rounds depends only on S, never on how fast this machine or
this commit runs them, so two commits measured with the same S run exactly
the same jobs.

The last line of stdout is one JSON object with the raw results.
"""

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

from certify import Certify
from clijobs import WALL_LIMIT_S, Cli
from common import (LAYER_FUNCTIONS, JobTimeout, Layers, Tracer, median, reference_seconds,
                    scale_to_reference)
from count import Count
from relations import Relations

WORKLOADS = {w.name: w for w in (Certify, Relations, Count, Cli)}
JOB_WALL_LIMIT_S = 30.0
REFERENCE_EVERY_S = 0.25
ROOT = Path.cwd()


def _expire(signum, frame):
    raise JobTimeout()


@contextlib.contextmanager
def wall_limit(seconds=JOB_WALL_LIMIT_S):
    """Interrupt the job running in this process after `seconds`."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rounds_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_seconds))


def run_phase(workload, layers, rounds: int, tracer=None):
    """Closed loop over whole rounds: each job runs after the previous one
    ended.  Latency covers `job.run` only; the oracle runs after it, outside
    the timed span.  Between jobs, at least every REFERENCE_EVERY_S of job
    time, the reference loop is timed (see `common.reference_seconds`)."""
    latencies, passed, failures, references, killed = [], [], [], [], set()
    counts = Counter()
    since_reference = REFERENCE_EVERY_S
    for r in range(rounds):
        for i, job in enumerate(workload.round(r, layers)):
            if since_reference >= REFERENCE_EVERY_S:
                references.append([len(latencies), reference_seconds()])
                since_reference = 0.0
            error = result = None
            with wall_limit():
                start = time.perf_counter()
                try:
                    result = tracer.run_job(f"{r}.{i}", job) if tracer else job.run()
                except JobTimeout:
                    error = f"killed at the {JOB_WALL_LIMIT_S:g} s wall limit"
                    killed.add(len(latencies))
                except Exception as failure:  # a job that raises is a failed job
                    error = f"raised {type(failure).__name__}: {failure}"
                elapsed = time.perf_counter() - start
            if error is None:
                try:
                    error = job.check(result, counts)
                except Exception as failure:  # an oracle that cannot judge fails the job
                    error = f"oracle raised {type(failure).__name__}: {failure}"
                if getattr(result, "killed", False):
                    killed.add(len(latencies))
            latencies.append(elapsed)
            passed.append(error is None)
            since_reference += elapsed
            if error is not None:
                failures.append([job.label, error])
        passed.append(None)  # end of round
    references.append([len(latencies), reference_seconds()])
    # A job stopped at its wall limit took that limit in wall time on any
    # machine, so its latency is not scaled.
    scaled = [latencies[j] if j in killed else x
              for j, x in enumerate(scale_to_reference(latencies, references))]
    rates, ok, busy = [], 0, 0.0
    job = 0
    for flag in passed:
        if flag is None:
            rates.append(ok / busy)
            ok, busy = 0, 0.0
            continue
        ok += flag
        busy += scaled[job]
        job += 1
    return {"latencies": latencies, "scaled": scaled, "references": references,
            "failures": failures, "busy_s": sum(latencies), "rounds": rounds,
            "jobs_per_s": median(rates), "counts": dict(counts)}


def per_layer(tracer, untraced, traced) -> dict:
    times = tracer.self_times()
    out = {}
    for name in LAYER_FUNCTIONS:
        calls, seconds = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = seconds
    out["job.self_s"] = sum(s for name, (_, s) in times.items() if name.startswith("job."))
    counts = Counter(traced["counts"])
    for name in ("twisted.closure.elements", "twisted.all_automorphisms.found",
                 "witness.lattice_queries", "witness.certified_entries", "cli.output_bytes"):
        out[name] = counts[name]
    queries = counts["witness.lattice_queries"]
    certified = counts["witness.certified_entries"]
    out["witness.certified_ratio"] = certified / queries if queries else 0
    out["trace.spans"] = len(tracer.spans)
    out["trace.untraced_jobs_per_s"] = untraced["jobs_per_s"]
    out["trace.jobs_per_s"] = traced["jobs_per_s"]
    out["trace.overhead_ratio"] = out["trace.untraced_jobs_per_s"] / out["trace.jobs_per_s"]
    return out


def write_spans(tracer, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for name, start, end, parent, job in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def peak_rss_mb(workload) -> float:
    # The cli workload's work happens in its children; ru_maxrss is in KiB.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    import tck

    if ROOT / "src" not in Path(tck.__file__).resolve().parents:
        print(f"tck was imported from {tck.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = Tracer() if args.mode == "trace" else None
    plain = Layers()
    traced = Layers(tracer) if tracer else None
    workload = WORKLOADS[args.workload](args.seed, traced or plain)
    print("ready", flush=True)
    try:
        if args.mode == "probe":
            return 0
        if args.mode == "run":
            phase = run_phase(workload, plain, rounds_for(workload, args.seconds))
            phase["peak_rss_mb"] = peak_rss_mb(workload)
            print(json.dumps(phase))
            return 0
        rounds = rounds_for(workload, args.seconds / 2)
        untraced = run_phase(workload, plain, rounds)
        phase = run_phase(workload, traced, rounds, tracer)
        phase["peak_rss_mb"] = peak_rss_mb(workload)
        phase["untraced_failures"] = untraced["failures"]
        # Workloads that start no CLI process report the cli.* numbers as 0.
        probes = {"cli.interpreter_ms": 0, "cli.import_ms": 0, "cli.main_ms": 0}
        if args.workload == "cli":
            tracer.job = "cli.main"
            probes = workload.layer_probes(traced, lambda: wall_limit(WALL_LIMIT_S))
        phase["per_layer"] = {**per_layer(tracer, untraced, phase), **probes}
        if args.spans:
            write_spans(tracer, Path(args.spans))
        print(json.dumps(phase))
        return 0
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
