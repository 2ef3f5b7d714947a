"""Record the sha256 of every CLI document in the cli workload's pool.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose CLI output is the reference.  Each
argv of the pool runs once as a cold subprocess; the digest, exit code and
size of its stdout go to perfbench/golden.json, keyed by the argv joined
with spaces.  Inputs listed in KNOWN_DEFECTS are not recorded.  An argv that
prints a traceback or runs past the wall limit stops the recording.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

from clijobs import GOLDEN_PATH, cli_env, key, pool, run_cli, write_descriptors


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    directory = root / ".bench_out" / "golden-descriptors"
    write_descriptors(directory)
    env = cli_env(root)
    golden = {}
    try:
        for category, argv in pool():
            returncode, out, err = run_cli(argv, directory, env)
            if returncode is None or b"Traceback" in err:
                print(f"cannot record {key(argv)}: "
                      f"{'killed' if returncode is None else 'traceback'}", file=sys.stderr)
                return 1
            golden[key(argv)] = {"sha256": hashlib.sha256(out).hexdigest(),
                                 "exit": returncode, "bytes": len(out)}
            status = json.loads(out)["status"]
            print(f"{category:12} exit={returncode} {status:5} {len(out):7d} B  {key(argv)}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} documents recorded in {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
