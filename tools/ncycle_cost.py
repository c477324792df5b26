"""CPU time and peak memory of ``polyrec run`` on n-cycle r-epsilon scenarios.

Run from the repository root:

    python3 tools/ncycle_cost.py [--src PATH]

Each case is one r-epsilon scenario on an n-cycle with uniform weights,
f = z and A the first n/2 points, so the grid has n points and n distinct
exponent keys, and each return measure takes n/2 steps.  The cases are
n = 500 and 1 000 at the default ``--cap``, n = 2 000 at the default cap
(2 000 + 2 000 * 1 000 is over it, so it is refused), and n = 2 000 and
4 000 under ``--cap 100000000``.  Each case runs ``python -m polyrec.cli
run`` in a child with ``--src`` (default: this tree's ``src``) on
PYTHONPATH, and prints one JSON line: n, the cap, the exit code, the
child's CPU seconds (user + system) and its ``ru_maxrss`` in kB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [(500, None), (1000, None), (2000, None), (2000, 10**8), (4000, 10**8)]


def scenario(n: int) -> dict:
    points = [f"p{i}" for i in range(n)]
    payload = {
        "system": {
            "points": points,
            "weights": {p: f"1/{n}" for p in points},
            "maps": [points[1:] + points[:1]],
        },
        "A": points[: n // 2],
        "fs": [{"nvars": 1, "terms": [{"idx": [1], "coef": "1"}]}],
        "epsilon": "0",
    }
    return {"schema_version": 1, "id": f"cycle-{n}", "kind": "r-epsilon", "payload": payload}


def run_case(src: Path, scratch: Path, n: int, cap) -> dict:
    path = scratch / f"cycle-{n}.json"
    path.write_text(json.dumps(scenario(n)))
    argv = [sys.executable, "-m", "polyrec.cli", "run", str(path)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "n": n,
        "cap": cap,
        "exit": proc.returncode,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
        "maxrss_kb": usage.ru_maxrss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import polyrec from")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        for n, cap in CASES:
            print(json.dumps(run_case(args.src.resolve(), Path(scratch), n, cap)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
