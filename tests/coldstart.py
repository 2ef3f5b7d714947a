"""Cold `python -m tck.cli` calls, timed against a parent tree.

    python3 tests/coldstart.py PARENT [--repeats N]

PARENT is the root of another checkout of this repository, for example a
`git archive` of the parent commit extracted to a scratch directory.  Each
command below runs as one child process at a time, alternating between this
tree and PARENT (this tree first on even repeats), with
PYTHONDONTWRITEBYTECODE=1, so every call compiles the tck modules it imports
from source, as a fresh tree without bytecode does.  The script prints the
median wall time of each command on each side and, per side, the tck and
standard-library modules the command loads beyond a bare interpreter's.
It uses the standard library only and is not part of the test suite.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

COMMANDS = (
    "root info A2",
    "chevalley gen --type A2 --kind x --root 1,0 --t 2",
    "twisted classes --group s3.json --aut id.json",
    "spectrum zn --matrix [[2,1],[1,1]]",
    "spectrum metabelian --r 2 --s 1/2 --p 2 --member 6",
    "witness run --type A2 --count 4 --trdeg 1 --scale 2 --index 3",
    "verify suite --filter zn-fullness",
)

# the modules a command loads beyond what the interpreter holds at start
PROBE = (
    "import os, sys\n"
    "before = set(sys.modules)\n"
    "import tck.cli\n"
    "sys.stdout = open(os.devnull, 'w')\n"
    "tck.cli.main(sys.argv[1:])\n"
    "sys.stdout = sys.__stdout__\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _seconds(argv, tree: Path, cwd: Path) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=_env(tree), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    return time.perf_counter() - start


def _loaded(command: str, tree: Path, cwd: Path) -> list[str]:
    result = subprocess.run([sys.executable, "-c", PROBE, *command.split()], cwd=cwd,
                            env=_env(tree), capture_output=True, text=True, check=True)
    return result.stdout.split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    trees = {"this": HERE, "parent": args.parent.resolve()}
    if not (trees["parent"] / "src" / "tck" / "cli.py").is_file():
        parser.error(f"{args.parent} holds no src/tck/cli.py")
    with tempfile.TemporaryDirectory() as scratch:
        cwd = Path(scratch)
        (cwd / "s3.json").write_text('{"encoding": "perm", "generators": [[1, 0, 2], [1, 2, 0]]}')
        (cwd / "id.json").write_text('{"images": [[1, 0, 2], [1, 2, 0]]}')
        calls = [("python -c pass", [sys.executable, "-c", "pass"])]
        calls += [(c, [sys.executable, "-m", "tck.cli", *c.split()]) for c in COMMANDS]
        times = {(label, side): [] for label, _ in calls for side in trees}
        for repeat in range(args.repeats):
            order = ("this", "parent") if repeat % 2 == 0 else ("parent", "this")
            for label, argv in calls:
                for side in order:
                    times[label, side].append(_seconds(argv, trees[side], cwd))
        print(f"median wall ms over {args.repeats} alternating calls "
              "(PYTHONDONTWRITEBYTECODE=1)")
        print(f"{'command':<66} {'parent':>8} {'this':>8}")
        for label, _ in calls:
            parent, this = (statistics.median(times[label, s]) * 1000 for s in ("parent", "this"))
            print(f"{label:<66} {parent:8.1f} {this:8.1f}")
        for command in COMMANDS:
            print(f"\n{command}")
            for side in ("parent", "this"):
                loaded = _loaded(command, trees[side], cwd)
                tck = [m for m in loaded if m.split(".")[0] == "tck"]
                stdlib = [m for m in loaded if m.split(".")[0] != "tck"]
                print(f"  {side:<6} tck:    {' '.join(tck)}")
                print(f"  {side:<6} stdlib: {' '.join(stdlib)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
