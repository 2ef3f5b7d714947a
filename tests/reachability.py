"""Which functions of src/tck the program's own traffic reaches, traced rather than guessed.

    python tests/reachability.py

Needs Python 3.11 or later (it reads co_qualname).  It puts the checkout's
src and perfbench directories on sys.path and imports perfbench read-only.
A profile hook (sys.setprofile) records every Python function entered while
each source runs:

  cli.setup, cli.run
      the descriptor files of the benchmark's CLI workload, written to a
      temporary directory, then tck.cli.main on every argv of its pool and
      of KNOWN_DEFECTS, run in that directory;
  verify
      the full acceptance suite, as `tck verify suite` runs it;
  W.setup, W.run, W.check, for W in certify, relations and count
      the workload's constructor and each round's job list, then each job's
      timed part and its oracle, over ROUNDS rounds at seed SEED.

It prints one line per function defined in src/tck, "module:qualified.name"
and the sources that reach it, unreached functions first, then a count.
Lambdas and comprehensions are not listed: they run inside a function that
is.  Not collected by pytest (the name does not start with test_).
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tck"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

ROUNDS = 3
SEED = 1


def defined_functions() -> list[tuple[str, str]]:
    """(module, qualified name) of every def in src/tck; a def nested in a
    function is named f.<locals>.g, as its code object names it."""
    found = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((module, prefix + child.name))
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


class Reach:
    """Code objects entered, per source."""

    def __init__(self):
        self.codes = defaultdict(set)

    @contextlib.contextmanager
    def source(self, name: str):
        entered = self.codes[name]

        def hook(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        sys.setprofile(hook)
        try:
            yield
        finally:
            sys.setprofile(None)

    def functions(self) -> dict[str, set]:
        """source -> {(module, qualified name)} of the functions in src/tck it entered."""
        prefix = str(PACKAGE) + os.sep
        return {name: {(Path(code.co_filename).stem, code.co_qualname)
                       for code in codes if code.co_filename.startswith(prefix)}
                for name, codes in self.codes.items()}


def _attempt(label: str, call):
    """call(), reporting on stderr what raised: a source keeps going past a failure."""
    try:
        return call()
    except (Exception, SystemExit) as failure:
        print(f"{label}: raised {type(failure).__name__}: {failure}", file=sys.stderr)
        return None


def trace_cli(reach: Reach):
    import tck.cli
    from clijobs import KNOWN_DEFECTS, pool, write_descriptors

    argvs = [argv for _, argv in pool()] + list(KNOWN_DEFECTS)
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        with reach.source("cli.setup"):
            write_descriptors(Path(directory))
        os.chdir(directory)
        try:
            for argv in argvs:
                with reach.source("cli.run"), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    _attempt(" ".join(argv), lambda: tck.cli.main(list(argv)))
        finally:
            os.chdir(previous)


def trace_verify(reach: Reach):
    from tck.acceptance import run_suite

    with reach.source("verify"):
        run_suite(None)


def trace_workloads(reach: Reach):
    from certify import Certify
    from common import Layers
    from count import Count
    from relations import Relations

    for workload in (Certify, Relations, Count):
        layers = Layers()
        with reach.source(f"{workload.name}.setup"):
            instance = workload(SEED, layers)
        for r in range(ROUNDS):
            with reach.source(f"{workload.name}.setup"):
                jobs = instance.round(r, layers)
            for job in jobs:
                with reach.source(f"{workload.name}.run"):
                    result = _attempt(job.label, job.run)
                with reach.source(f"{workload.name}.check"):
                    _attempt(job.label, lambda: job.check(result, Counter()))


def main() -> int:
    reach = Reach()
    trace_cli(reach)
    trace_verify(reach)
    trace_workloads(reach)
    reached = reach.functions()
    rows = []
    for module, name in defined_functions():
        sources = [source for source, functions in sorted(reached.items())
                   if (module, name) in functions]
        rows.append((bool(sources), f"{module}:{name}", ", ".join(sources) or "UNREACHED"))
    rows.sort()
    width = max(len(name) for _, name, _ in rows)
    for _, name, sources in rows:
        print(f"{name:<{width}}  {sources}")
    unreached = sum(not hit for hit, _, _ in rows)
    print(f"{unreached} of {len(rows)} functions unreached; sources: {', '.join(sorted(reached))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
