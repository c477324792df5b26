"""CPU time, peak memory and output size of ``polyrec run --json`` at the cap edge.

Run from the repository root:

    python3 tools/capedge_cost.py [--src PATH]

Both cases use one 97-cycle with uniform weights, A = its first 40 points
and f = z1 + z2 + z3 + C(z1, 2), whose minimal period grid is
97^3 = 912 673 points, just under the default ``--cap`` of 10^6, with 97
distinct exponent keys.  The cases are the r-epsilon scenario and the
ip-star scenario with k = 2 and W = 12.  Each runs ``python -m polyrec.cli
run FILE --json REPORT`` in a child with ``--src`` (default: this tree's
``src``) on PYTHONPATH, and prints one JSON line: the case, the exit code,
the child's CPU seconds (user + system), its ``ru_maxrss`` in kB, and the
bytes of the ``--json`` report and of standard output.
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
N, A_SIZE = 97, 40
CASES = [("r-epsilon", {}), ("ip-star", {"k": 2, "W": 12})]


def scenario(kind: str, extra: dict) -> dict:
    points = [f"p{i}" for i in range(N)]
    linear = [{"idx": idx, "coef": "1"} for idx in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    payload = {
        "system": {
            "points": points,
            "weights": {p: f"1/{N}" for p in points},
            "maps": [points[1:] + points[:1]],
        },
        "A": points[:A_SIZE],
        "fs": [{"nvars": 3, "terms": [*linear, {"idx": [2, 0, 0], "coef": "1"}]}],
        "epsilon": "0",
        **extra,
    }
    return {"schema_version": 1, "id": f"capedge-{kind}", "kind": kind, "payload": payload}


def run_case(src: Path, scratch: Path, kind: str, extra: dict) -> dict:
    path, report, stdout = (scratch / f"{kind}.{ext}" for ext in ("json", "report.json", "out"))
    path.write_text(json.dumps(scenario(kind, extra)))
    argv = [sys.executable, "-m", "polyrec.cli", "run", str(path), "--json", str(report)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with stdout.open("wb") as out:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "case": kind,
        "exit": proc.returncode,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
        "maxrss_kb": usage.ru_maxrss,
        "report_bytes": report.stat().st_size if report.exists() else 0,
        "stdout_bytes": stdout.stat().st_size,
    }
    for p in (report, stdout):
        p.unlink(missing_ok=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import polyrec from")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        for kind, extra in CASES:
            print(json.dumps(run_case(args.src.resolve(), Path(scratch), kind, extra)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
