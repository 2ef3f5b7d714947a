"""cli: one cold `python -m tck.cli` subprocess per job, one at a time.

The argv pool is fixed and covers every subcommand; `golden.json` holds the
sha256 of each document the pool produced when it was recorded (see
`record_golden.py`), so any byte change in CLI output fails the job.  A
round draws 24 argvs from the pool by category (4 root, 5 chevalley,
5 twisted, one per spectrum subcommand, 3 witness, 3 verify), 2 inputs that
must end in a typed error, and every input of KNOWN_DEFECTS.  The seed picks
the draws and the order; the category mix is the same for every seed.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from common import Job, JobTimeout, median

WALL_LIMIT_S = 5.0
TYPED_CODES = ("domain-error", "resource-limit", "internal-inconsistency")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Inputs that fail at the commit the golden bytes were recorded on.  They
# stay in every round; a job passes once the CLI answers it with a single
# typed-error document, without a traceback, inside the wall limit.
KNOWN_DEFECTS = (
    ("chevalley", "gen", "--type", "A2", "--kind", "x", "--root", "1,a", "--t", "2"),
    ("twisted", "classes", "--group", "bad-perm.json", "--aut", "s3-id.json"),
    ("root", "info", "A60"),
)

# Malformed or hostile inputs that already end in a typed error; their
# error documents are part of the golden bytes.
TYPED_ERRORS = (
    ("root", "info", "Z9"),
    ("spectrum", "zn", "--matrix", "[[1,2],[3]]"),
    ("spectrum", "zn", "--matrix", "[[2,0],[0,1]]"),
    ("spectrum", "metabelian", "--r", "2", "--s", "1/2", "--p", "4"),
    ("spectrum", "lamplighter", "--n", "1"),
    ("witness", "run", "--type", "A2", "--count", "0", "--trdeg", "1", "--scale", "2",
     "--index", "1"),
    ("twisted", "reidemeister", "--group", "absent.json", "--aut", "s3-id.json"),
    ("chevalley", "gen", "--type", "A2", "--kind", "h", "--root", "1,0", "--t", "0"),
)

ROUND_MIX = {"root": 4, "chevalley": 5, "twisted": 5, "witness": 3, "verify": 3}
SPECTRUM_SUBCOMMANDS = ("zn", "heisenberg", "lamplighter", "metabelian")

# name -> (generators, modulus); descriptors are written with tck itself.
DESCRIPTOR_GROUPS = {
    "s3": ([(1, 0, 2), (1, 2, 0)], None),
    "s4": ([(1, 0, 2, 3), (1, 2, 3, 0)], None),
    "d4": ([(1, 2, 3, 0), (3, 2, 1, 0)], None),
    "s5": ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], None),
    "q8": ([((0, 2), (1, 0)), ((1, 1), (1, 2))], 3),
    "sl23": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 3),
}


def pool() -> list[tuple[str, tuple[str, ...]]]:
    """Every (category, argv) a round can draw, in a fixed order."""
    out = []
    for t in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
              "G2", "F4", "E6"):
        out.append(("root", ("root", "info", t)))
    roots = {"A1": ("1", "-1"), "A2": ("1,0", "1,1"), "A3": ("0,1,0", "1,1,1"),
             "B2": ("0,1", "1,2"), "G2": ("1,0", "3,2"), "B3": ("1,0,0", "1,2,2"),
             "C3": ("0,0,1", "2,2,1")}
    for t, (first, second) in roots.items():
        for kind in ("x", "n", "h"):
            out.append(("chevalley", ("chevalley", "gen", "--type", t, "--kind", kind,
                                      "--root", first, "--t", "2")))
            out.append(("chevalley", ("chevalley", "gen", "--type", t, "--kind", kind,
                                      "--root", second, "--t=-3/2")))
    for sub in ("classes", "reidemeister", "isogredience"):
        for group in DESCRIPTOR_GROUPS:
            for aut in ("id", "inner"):
                out.append(("twisted", ("twisted", sub, "--group", f"{group}.json",
                                        "--aut", f"{group}-{aut}.json")))
    for matrix in ("[[0,1],[-1,-3]]", "[[1,1],[0,1]]", "[[-1]]", "[[0,1,0],[0,0,1],[1,0,-2]]",
                   "[[2,1,0],[1,1,0],[0,0,-1]]", "[[0,0,0,1],[1,0,0,0],[0,1,0,0],[0,0,1,3]]",
                   "[[1,2,0,0,0],[0,1,0,0,0],[0,0,0,1,0],[0,0,0,0,1],[0,0,1,0,-1]]",
                   "[[-1,0],[0,-1]]"):
        out.append(("zn", ("spectrum", "zn", "--matrix", matrix)))
    for matrix in ("[[0,1],[1,1]]", "[[2,1],[1,1]]", "[[1,2],[2,3]]", "[[0,1],[-1,0]]"):
        out.append(("heisenberg", ("spectrum", "heisenberg", "--matrix", matrix)))
    for n in ("2", "3", "5", "7"):
        out.append(("lamplighter", ("spectrum", "lamplighter", "--n", n)))
    for r, s, p, member in (("1", "1", "3", "4"), ("1", "-1", "3", "24"),
                            ("2", "1/2", "2", "6"), ("5", "25", "5", None),
                            ("-1", "-1", "5", "10"), ("9", "1/9", "3", "16")):
        argv = ("spectrum", "metabelian", "--r", r, "--s", s, "--p", p)
        out.append(("metabelian", argv + (("--member", member) if member else ())))
    for t, count, trdeg, scale, index in (("A2", "6", "1", "2", "3"), ("A2", "4", "2", "2,3", "4"),
                                         ("A3", "5", "1", "3", "4"), ("B2", "6", "1", "1/2", "5"),
                                         ("G2", "5", "2", "2,3", "4"), ("A3", "4", "1", "2", "2"),
                                         ("D4", "4", "1", "2", "3"), ("B2", "4", "1", "2", "1")):
        out.append(("witness", ("witness", "run", "--type", t, "--count", count, "--trdeg",
                                trdeg, "--scale", scale, "--index", index)))
    for name in ("integer-spectrum", "metabelian-table", "zn-fullness", "abelian-oracle",
                 "projection-inequality"):
        out.append(("verify", ("verify", "suite", "--filter", name)))
    out += [("typed-error", argv) for argv in TYPED_ERRORS]
    return out


def key(argv) -> str:
    return " ".join(argv)


def write_descriptors(directory: Path):
    """Group and automorphism descriptor files, plus one hostile descriptor."""
    import tck

    directory.mkdir(parents=True, exist_ok=True)
    for name, (generators, modulus) in DESCRIPTOR_GROUPS.items():
        group = tck.closure(generators, modulus)
        descriptor = tck.group_descriptor(group)
        g = group.elements[-1]
        images = {"id": group.generators,
                  "inner": [group.conjugate(g, x) for x in group.generators]}
        (directory / f"{name}.json").write_text(json.dumps(descriptor))
        for aut, table in images.items():
            encoded = [[list(row) for row in im] if modulus else list(im) for im in table]
            (directory / f"{name}-{aut}.json").write_text(json.dumps({"images": encoded}))
    hostile = {"encoding": "perm", "generators": ["ab"]}
    (directory / "bad-perm.json").write_text(json.dumps(hostile))


def cli_env(root: Path) -> dict:
    """This environment with the checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliResult(NamedTuple):
    returncode: int | None  # None when the child was killed at the wall limit
    out: bytes
    err: bytes

    @property
    def killed(self) -> bool:
        return self.returncode is None


def run_cli(argv, cwd: Path, env: dict) -> CliResult:
    """One cold CLI call, killed if it runs past WALL_LIMIT_S."""
    with subprocess.Popen([sys.executable, "-m", "tck.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            out, err = child.communicate(timeout=WALL_LIMIT_S)
            return CliResult(child.returncode, out, err)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
            return CliResult(None, out, err)


def judge(argv, returncode, out: bytes, err: bytes, golden: dict) -> str | None:
    """None if the call behaved, else why it failed."""
    if returncode is None:
        return f"killed at the {WALL_LIMIT_S:g} s wall limit"
    if b"Traceback" in err:
        last = err.decode(errors="replace").strip().splitlines()[-1]
        return f"traceback ({last})"
    recorded = golden.get(key(argv))
    if recorded is not None:
        if hashlib.sha256(out).hexdigest() != recorded["sha256"]:
            return "output differs from the recorded bytes"
        if returncode != recorded["exit"]:
            return f"exit code {returncode}, recorded {recorded['exit']}"
        return None
    if tuple(argv) not in KNOWN_DEFECTS:
        return "no recorded output for this argv"
    try:
        report = json.loads(out)
        code = report["payload"]["code"]
    except (ValueError, KeyError, TypeError):
        return "output is not one typed-error document"
    if returncode != 1 or report.get("status") != "error" or code not in TYPED_CODES:
        return f"untyped or unexpected error (exit {returncode}, code {code!r})"
    return None


class Cli:
    name = "cli"
    round_seconds = 23.0  # nominal, for turning --seconds into rounds

    def __init__(self, seed: int, layers):
        self.seed = seed
        self.root = Path.cwd()
        self.directory = self.root / ".bench_out" / f"cli-{os.getpid()}"
        write_descriptors(self.directory)
        self.env = cli_env(self.root)
        self.golden = json.loads(GOLDEN_PATH.read_text())
        self.by_category = {}
        for category, argv in pool():
            self.by_category.setdefault(category, []).append(argv)

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def round(self, r: int, layers) -> list[Job]:
        return [self._job(argv) for argv in self._draws(r)]

    def _draws(self, r: int) -> list[tuple[str, ...]]:
        rng = random.Random(f"cli/{self.seed}/{r}")
        draws = []
        for category, n in ROUND_MIX.items():
            draws += rng.sample(self.by_category[category], n)
        draws += [rng.choice(self.by_category[sub]) for sub in SPECTRUM_SUBCOMMANDS]
        draws += rng.sample(self.by_category["typed-error"], 2)
        draws += list(KNOWN_DEFECTS)
        rng.shuffle(draws)
        return draws

    def _job(self, argv):
        def run():
            return run_cli(argv, self.directory, self.env)

        def check(result, counts):
            returncode, out, err = result
            counts["cli.output_bytes"] += len(out)
            return judge(argv, returncode, out, err, self.golden)

        return Job("cli", key(argv), run, check)

    def layer_probes(self, layers, timer) -> dict:
        """cli.* per-layer numbers: interpreter start and `import tck.cli`
        from cold processes, and `tck.cli.main` in process on each argv of
        the first round, each under `timer()`."""
        interpreter, imported = [], []
        for _ in range(5):
            for code, sink in (("pass", interpreter), ("import tck.cli", imported)):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                               check=True, timeout=60)
                sink.append(time.perf_counter() - start)
        main_ms = []
        previous = Path.cwd()
        os.chdir(self.directory)
        try:
            for argv in self._draws(0):
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()), timer():
                        layers.cli.main(list(argv))
                except (Exception, SystemExit, JobTimeout):
                    pass  # defects raise, usage errors exit, the wall limit interrupts
                main_ms.append((time.perf_counter() - start) * 1000)
        finally:
            os.chdir(previous)
        interpreter_ms = median(interpreter) * 1000
        return {
            "cli.interpreter_ms": interpreter_ms,
            "cli.import_ms": median(imported) * 1000 - interpreter_ms,
            "cli.main_ms": median(main_ms),
        }
