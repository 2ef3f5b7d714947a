"""Which functions of src/tck the program's own traffic reaches, traced rather than guessed.

    python tests/reachability.py

Needs Python 3.11 or later (it reads co_qualname).  It puts the checkout's
src and perfbench directories on sys.path and imports perfbench read-only.
A trace hook (sys.settrace) records every Python function entered while each
source runs, and every line executed in src/tck:

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
and the sources that reach it, unreached functions first, then a count.  An
unreached function is marked public when no part of its qualified name
starts with an underscore, and the count says how many are.
Lambdas and comprehensions are not listed: they run inside a function that
is.  A second section lists, per function, the statements in its body that
no source reaches, docstrings left out: the branches that the first section
cannot see.  A statement counts as reached when a line of its own (its
header, for a compound statement) runs.  Not collected by pytest (the name
does not start with test_).
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


def _header(node) -> range:
    """The lines of a statement that are its own: a compound statement's
    up to its first body statement, with its decorators."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def function_statements() -> dict[tuple[str, str], list]:
    """(module, qualified name) -> (path, header lines) of each statement in
    the function's own body, nested functions' bodies and docstrings left
    out; named as defined_functions names them."""
    found = {}

    def walk(nodes, path, module, prefix, owner):
        for child in nodes:
            if isinstance(child, ast.stmt) and owner is not None:
                found[owner].append((path, _header(child)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = (module, prefix + child.name)
                found[name] = []
                body = child.body
                if ast.get_docstring(child, clean=False) is not None:
                    body = body[1:]
                walk(body, path, module, f"{prefix}{child.name}.<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                walk(child.body, path, module, f"{prefix}{child.name}.", owner)
            else:
                walk(ast.iter_child_nodes(child), path, module, prefix, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()).body, str(path), path.stem, "", None)
    return found


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
    """Code objects entered, per source, and (path, line) pairs run in src/tck."""

    def __init__(self):
        self.codes = defaultdict(set)
        self.lines = set()

    @contextlib.contextmanager
    def source(self, name: str):
        entered, lines = self.codes[name], self.lines
        prefix = str(PACKAGE) + os.sep

        def line(frame, event, arg):
            if event == "line":
                lines.add((frame.f_code.co_filename, frame.f_lineno))
            return line

        def hook(frame, event, arg):
            entered.add(frame.f_code)
            return line if frame.f_code.co_filename.startswith(prefix) else None

        sys.settrace(hook)
        try:
            yield
        finally:
            sys.settrace(None)

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
        if sources:
            label = ", ".join(sources)
        elif any(part.startswith("_") for part in name.split(".")):
            label = "UNREACHED"
        else:
            label = "UNREACHED public"
        rows.append((bool(sources), f"{module}:{name}", label))
    rows.sort()
    width = max(len(name) for _, name, _ in rows)
    for _, name, label in rows:
        print(f"{name:<{width}}  {label}")
    unreached = sum(not hit for hit, _, _ in rows)
    public = sum(label == "UNREACHED public" for _, _, label in rows)
    print(f"{unreached} of {len(rows)} functions unreached, {public} of them public; "
          f"sources: {', '.join(sorted(reached))}")
    entered = set().union(*reached.values())
    missed = total = 0
    print("\nstatements no source reaches, in the functions that some source enters:")
    for (module, name), statements in function_statements().items():
        total += len(statements)
        lines = [header.start for path, header in statements
                 if not any((path, n) in reach.lines for n in header)]
        missed += len(lines)
        if lines and (module, name) in entered:
            print(f"{module}:{name}  lines {', '.join(map(str, lines))}")
    print(f"{missed} of {total} statements unreached, those of unreached functions included")
    return 0


if __name__ == "__main__":
    sys.exit(main())
