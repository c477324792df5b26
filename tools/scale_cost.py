"""CPU time, peak memory and output size of ``polyrec run --json`` at scale.

Run from the repository root:

    python3 tools/scale_cost.py [--src PATH]

The cases (``CASES``: name, scenario, ``--cap`` or None for the default):

- cap edge: one 97-cycle with uniform weights, A = its first 40 points and
  f = z1 + z2 + z3 + C(z1, 2), whose minimal period grid is 97^3 = 912 673
  points, just under the default cap of 10^6, with 97 distinct exponent
  keys; the r-epsilon scenario and the ip-star one with k = 2 and W = 12.
- n-cycle: r-epsilon on an n-cycle with uniform weights, f = z and A the
  first n/2 points, so the grid has n points and n keys of n/2 steps each;
  n = 500, 1 000 and 2 000 at the default cap (2 000 + 2 000 * 1 000 is over
  it, so it is refused), and n = 2 000 and 4 000 under ``--cap 100000000``.
- spectral: spectral-limit at the default cap, which charges the distinct
  phase rows times the binomial indices.  D eigenvectors of one operator
  with phases (e mod 12)/12 have 12 distinct rows: f = z at D = 500, 1 000
  and 2 000 (charge 12), and f = the sum of all 14 binomial coordinates
  C(z1, a) C(z2, b), 1 <= a + b <= 4, at D = 250 and 500 (charge 168).
  Two operators with f = (z, C(z, 2)): 1 000 distinct rows (e mod 40)/40,
  floor(e / 40)/25 charge 2 000 and decide (charged rows squared, they were
  refused), 10 000 distinct rows (e mod 100)/100, floor(e / 100)/100
  charge 2 * 10^4, and 100 000 distinct rows (e mod 400)/400,
  floor(e / 400)/250 charge 2 * 10^5.
- window: the subset-sum searches at the default cap, which charges the
  subset sums they form.  ip-star with k = 2 on a 4-cycle whose A is every
  point, so each residue holds: the window is searched mod 4 and forms 4
  sums whatever W is; W = 706, 707 and 10^9 (the first two charged
  C(W + 1, 2) * 4 up front, so 707 was refused).  hindman-search with k = 2
  on 706 distinct colors, which has no witness, so every pair is visited:
  705 first generators and C(706, 2) pairs of 2 sums each form 498 435.
- many maps: khintchine on 1 000 rotations of a 60-cycle by seeded steps
  (``rotations``), with seeded two-variable f_i of degree <= 2 and A the
  first 30 points.  Its 60 distinct maps charge C(60, 2) * 60 = 106 200
  for the commutation check, and each f_i is taken modulo its own order.

Each case runs ``python -m polyrec.cli run FILE --json REPORT
--emit-certificates DIR`` in a child with ``--src`` (default: this tree's
``src``) on PYTHONPATH, and prints one JSON line: the case, the cap, the exit
code, the child's CPU seconds (user + system, from ``os.wait4``), its
``ru_maxrss`` in kB, and the bytes of the report and of standard output.
The report is counted without its ``wall_time_ms`` fields, whose digits vary
from run to run.  A spectral-limit case also prints its charge against
``--cap``, computed from the scenario (``spectral_charge``), and its child
CPU per unit of that charge in microseconds, start-up included.  A case that
emits a certificate also prints the exit code and CPU seconds of a
``verify-certificate`` child on it (``verify_exit``, ``verify_cpu_s``).  A
child's ``ru_maxrss`` starts at the peak of the process it is forked from,
so each child is started, waited for and measured by a small launcher
(``LAUNCHER``), not by this process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def poly(nvars: int, indices) -> dict:
    return {"nvars": nvars, "terms": [{"idx": list(idx), "coef": "1"} for idx in indices]}


def cycle_payload(n: int, a_size: int, f: dict) -> dict:
    points = [f"p{i}" for i in range(n)]
    system = {"points": points, "weights": {p: f"1/{n}" for p in points}, "maps": [points[1:] + points[:1]]}
    return {"system": system, "A": points[:a_size], "fs": [f], "epsilon": "0"}


def scenario(name: str, kind: str, payload: dict) -> dict:
    return {"schema_version": 1, "id": name, "kind": kind, "payload": payload}


def spectral(name: str, dim: int, f: dict) -> dict:
    phases = [[f"{e % 12}/12"] for e in range(dim)]
    return scenario(name, "spectral-limit", {"unitary": {"phases": phases}, "fs": [f]})


def rotations(count: int) -> dict:
    """khintchine on ``count`` rotations of a 60-cycle by seeded steps, with
    seeded two-variable f_i of degree <= 2 and A the first 30 points."""
    rng = random.Random(count)
    points = [f"p{i}" for i in range(60)]
    maps = [points[r:] + points[:r] for r in (rng.randrange(60) for _ in range(count))]
    indices = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    fs = [{"nvars": 2, "terms": [{"idx": list(idx), "coef": str(rng.randint(1, 5))}
                                 for idx in rng.sample(indices, rng.randint(1, 5))]}
          for _ in range(count)]
    system = {"points": points, "weights": {p: "1/60" for p in points}, "maps": maps}
    return {"system": system, "A": points[:30], "fs": fs}


CAPEDGE = cycle_payload(97, 40, poly(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]))
Z = poly(1, [(1,)])
DEGREE_4 = poly(2, [(a, b) for a in range(5) for b in range(5) if 1 <= a + b <= 4])
ROWS_1000 = {
    "unitary": {"phases": [[f"{e % 40}/40", f"{e // 40}/25"] for e in range(1000)]},
    "fs": [Z, poly(1, [(2,)])],
}
ROWS_10000 = {
    "unitary": {"phases": [[f"{e % 100}/100", f"{e // 100}/100"] for e in range(10000)]},
    "fs": ROWS_1000["fs"],
}
ROWS_100000 = {
    "unitary": {"phases": [[f"{e % 400}/400", f"{e // 400}/250"] for e in range(100000)]},
    "fs": ROWS_1000["fs"],
}
WHOLE_4 = cycle_payload(4, 4, Z)
DISTINCT_706 = {"coloring": {"W": 706, "colors": list(range(706))}, "k": 2}
CASES = [
    ("capedge-r-epsilon", scenario("capedge-r-epsilon", "r-epsilon", CAPEDGE), None),
    ("capedge-ip-star", scenario("capedge-ip-star", "ip-star", {**CAPEDGE, "k": 2, "W": 12}), None),
    *((f"cycle-{n}", scenario(f"cycle-{n}", "r-epsilon", cycle_payload(n, n // 2, Z)), cap)
      for n, cap in [(500, None), (1000, None), (2000, None), (2000, 10**8), (4000, 10**8)]),
    *((f"spectral-z-{d}", spectral(f"spectral-z-{d}", d, Z), None) for d in (500, 1000, 2000)),
    *((f"spectral-deg4-{d}", spectral(f"spectral-deg4-{d}", d, DEGREE_4), None) for d in (250, 500)),
    ("spectral-rows-1000", scenario("spectral-rows-1000", "spectral-limit", ROWS_1000), None),
    ("spectral-rows-10000", scenario("spectral-rows-10000", "spectral-limit", ROWS_10000), None),
    ("spectral-rows-100000", scenario("spectral-rows-100000", "spectral-limit", ROWS_100000), None),
    *((f"ip-star-window-{w}", scenario(f"ip-star-window-{w}", "ip-star", {**WHOLE_4, "k": 2, "W": w}), None)
      for w in (706, 707)),
    ("ip-star-window-1e9", scenario("ip-star-window-1e9", "ip-star", {**WHOLE_4, "k": 2, "W": 10**9}), None),
    ("hindman-706", scenario("hindman-706", "hindman-search", DISTINCT_706), None),
    ("many-maps-1000", scenario("many-maps-1000", "khintchine", rotations(1000)), None),
]
# Run as ``python -S -c LAUNCHER STDOUT ARGV...``: it holds only itself when it
# starts the child, and prints the child's exit code, CPU seconds and ru_maxrss.
LAUNCHER = """
import os, sys
out, argv = sys.argv[1], sys.argv[2:]
files = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
         (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=files), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""
WALL_TIME = re.compile(rb',"wall_time_ms":[^,}]*')


def report_bytes(path: Path) -> int:
    """The bytes of a case's report without its ``wall_time_ms`` field.  The
    report holds one scenario, and that field is its last key, so the field
    lies in the file's last 128 bytes, and only those are read."""
    size = path.stat().st_size
    with path.open("rb") as f:
        f.seek(max(size - 128, 0))
        return size - sum(map(len, WALL_TIME.findall(f.read())))


def spectral_charge(payload: dict) -> int:
    """What a spectral-limit payload charges against ``--cap`` (README):
    its distinct phase rows, each phase taken mod 1, times the distinct
    binomial indices of its ``fs`` with a nonzero coefficient."""
    phases = payload["unitary"]["phases"]
    values = {p: Fraction(p) % 1 for p in set(chain.from_iterable(phases))}
    rows = {tuple(map(values.__getitem__, row)) for row in phases}
    indices = {tuple(t["idx"]) for f in payload["fs"] for t in f["terms"] if int(t["coef"])}
    return len(rows) * len(indices)


def measured(argv, env, stdout: Path):
    """Exit code, CPU seconds and ``ru_maxrss`` in kB of the child argv,
    started by ``LAUNCHER`` with its standard output in stdout."""
    launcher = [sys.executable, "-S", "-c", LAUNCHER, str(stdout), *argv]
    code, cpu, maxrss = subprocess.run(launcher, env=env, stdout=subprocess.PIPE, check=True).stdout.split()
    return int(code), float(cpu), int(maxrss)


def run_case(src: Path, scratch: Path, name: str, doc: dict, cap) -> dict:
    path, report, stdout, certs = (scratch / f"{name}.{ext}" for ext in ("json", "report.json", "out", "certs"))
    path.write_text(json.dumps(doc))
    polyrec = [sys.executable, "-m", "polyrec.cli"]
    argv = [*polyrec, "run", str(path), "--json", str(report), "--emit-certificates", str(certs)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code, cpu, maxrss = measured(argv, env, stdout)
    result = {
        "case": name,
        "cap": cap,
        "exit": code,
        "cpu_s": round(cpu, 2),
        "maxrss_kb": maxrss,
        "report_bytes": report_bytes(report) if report.exists() else 0,
        "stdout_bytes": stdout.stat().st_size,
    }
    if doc["kind"] == "spectral-limit":
        result["charge"] = spectral_charge(doc["payload"])
        result["cpu_us_per_unit"] = round(cpu * 1e6 / result["charge"], 1)
    # a case is one scenario, so it emits at most one certificate
    for cert in certs.glob("*.cert.json"):
        code, cpu, _ = measured([*polyrec, "verify-certificate", str(cert)], env, stdout)
        result["verify_exit"], result["verify_cpu_s"] = code, round(cpu, 2)
    for p in (path, report, stdout):
        p.unlink(missing_ok=True)
    shutil.rmtree(certs, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import polyrec from")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        for name, doc, cap in CASES:
            print(json.dumps(run_case(args.src.resolve(), Path(scratch), name, doc, cap)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
