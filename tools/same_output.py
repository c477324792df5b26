"""Compare what a git ref and the working tree print and write, and time it.

Run from the repository root:

    python3 tools/same_output.py REF

Both sides are copied once into a temporary directory, as
``tools/bench_pairs.py`` copies them (``git archive`` of REF; the tracked and
untracked non-ignored files of the working tree), and every child runs with
``PYTHONDONTWRITEBYTECODE=1`` and its side's ``src`` on PYTHONPATH, so its
CPU includes compiling ``src``.  The cases, whose inputs are written once
and shared by both sides:

- ``bundled``: ``run --bundled``;
- ``WORKLOAD-SEED``: ``run DIR --seed SEED`` on the recurrence, algebra and
  many-small corpora of ``bench/corpus.py`` (read, not changed) for seeds 1
  to 3;
- the scale cases (``CASES``: name, scenario, ``--cap`` or None for the
  default of 10^6), ``run FILE``:
  - cap edge: r-epsilon, and ip-star with k = 2 and W = 12, on a 97-cycle
    with A its first 40 points and f = z1 + z2 + z3 + C(z1, 2), whose
    minimal period grid is 97^3 = 912 673 points;
  - n-cycle: r-epsilon on an n-cycle with f = z and A the first n/2
    points, a grid of n points and n keys of n/2 steps each: n = 500,
    1 000 and 2 000 (refused, as 2 000 + 2 000 * 1 000 is over the cap),
    and n = 2 000 and 4 000 under ``--cap 100000000``;
  - spectral-limit, charged its distinct phase rows times binomial indices:
    one operator with phases (e mod 12)/12, 12 rows, with f = z at
    D = 500, 1 000 and 2 000 (charge 12) and f the 14 binomial coordinates
    of degree 1 to 4 in two variables at D = 250 and 500 (charge 168); two
    operators with f = (z, C(z, 2)) and 10^3, 10^4 and 10^5 distinct rows
    (charge twice that);
  - window: ip-star with k = 2 on a 4-cycle whose A is every point, which
    forms 4 sums whatever W is (W = 706, 707 and 10^9), and hindman-search
    with k = 2 on 706 distinct colors, which has no witness and forms all
    498 435 sums;
  - many maps: khintchine on 1 000 seeded rotations of a 60-cycle
    (``rotations``), whose 60 distinct maps charge C(60, 2) * 60 = 106 200
    for the commutation check;
- ``schema KIND``: ``schema KIND`` for every scenario kind of the working
  tree.

Each ``run`` writes ``--json`` and ``--emit-certificates``, and each emitted
certificate is checked with ``verify-certificate``, and so are two tampered
copies of it (``TAMPERED``): its lattice field (``LATTICE_FIELDS``) replaced
by Z^n, and that field with its last basis column dropped.  Per case the two
sides' exit codes, standard output and error, report bytes without their
``wall_time_ms`` fields (``WALL_TIME``), certificate files, and every
``verify-certificate`` exit code and output are compared, and then deleted.
The side that runs first alternates from case to case.

One JSON line per case names what differs.  A ``run`` case's line also
counts the tampered copies the working tree refuses with exit code 1, and
gives per side the run child's exit code, CPU seconds (user + system, from
``os.wait4``), ``ru_maxrss`` in kB, the bytes of its report and standard
output, and the CPU seconds of its ``verify-certificate`` children on the
emitted certificates.  A spectral-limit scale case also gives its charge
against ``--cap``, computed from the scenario (``spectral_charge``), and per
side the run's CPU per unit of it in microseconds, start-up included.  A
child's ``ru_maxrss`` starts at the peak of the process it is forked from,
so every child is started, waited for and measured by a small launcher
(``LAUNCHER``), not by this process.  The exit code is 1 if anything
differs.
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

from bench_pairs import ROOT, copy_tree

SEEDS = (1, 2, 3)

# The lattice each certificate kind claims something on.
LATTICE_FIELDS = {"key-lemma": "witness", "stable-rank": "V", "spectral-limit": "lattice"}

# Each tampering of a lattice document, by name.
TAMPERED = {
    "whole": lambda lat: {
        "ambient": lat["ambient"],
        "basis": [[int(i == j) for i in range(lat["ambient"])] for j in range(lat["ambient"])],
    },
    "short": lambda lat: {"ambient": lat["ambient"], "basis": lat["basis"][:-1]},
}


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
# Run as ``python -S -c LAUNCHER STDOUT STDERR ARGV...``: it holds only itself
# when it starts the child, and prints the child's exit code, CPU seconds and
# ru_maxrss.
LAUNCHER = """
import os, sys
argv = sys.argv[3:]
files = [(os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
         for fd, path in ((1, sys.argv[1]), (2, sys.argv[2]))]
_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=files), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""
WALL_TIME = re.compile(rb',"wall_time_ms":[^,}]*')


def spectral_charge(payload: dict) -> int:
    """What a spectral-limit payload charges against ``--cap`` (README):
    its distinct phase rows, each phase taken mod 1, times the distinct
    binomial indices of its ``fs`` with a nonzero coefficient."""
    phases = payload["unitary"]["phases"]
    values = {p: Fraction(p) % 1 for p in set(chain.from_iterable(phases))}
    rows = {tuple(map(values.__getitem__, row)) for row in phases}
    indices = {tuple(t["idx"]) for f in payload["fs"] for t in f["terms"] if int(t["coef"])}
    return len(rows) * len(indices)


def scale_args(directory: Path, name: str, doc: dict, cap) -> list:
    """The ``run`` arguments of a scale case, its scenario written in directory."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return [str(path)] + ([] if cap is None else ["--cap", str(cap)])


def polyrec(src: Path, cwd: Path, *args):
    """Exit code, standard output and error of ``polyrec ARGS`` run from cwd
    by ``LAUNCHER``, and the child's CPU seconds and ``ru_maxrss`` in kB."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    # the launcher runs in cwd, so it opens the stream files by name
    streams = {name: cwd / name for name in ("stdout", "stderr")}
    argv = [sys.executable, "-S", "-c", LAUNCHER, *streams, sys.executable, "-m", "polyrec.cli", *args]
    code, cpu, maxrss = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, check=True).stdout.split()
    out = {"exit": int(code)}
    for name, path in streams.items():
        out[name] = path.read_bytes()
        path.unlink()
    return out, {"cpu_s": float(cpu), "maxrss_kb": int(maxrss)}


def run_case(src: Path, work: Path, args):
    """What ``run ARGS`` prints and writes in the empty directory work, and
    what ``verify-certificate`` prints on each certificate it emits and on
    its tampered copies; and what the run and the plain checks cost.  Output
    paths are relative to work, so both sides print the same names."""
    work.mkdir(parents=True)
    out, usage = polyrec(src, work, "run", *args, "--json", "report.json", "--emit-certificates", "certs")
    report = work / "report.json"
    if report.exists():
        out["report"] = WALL_TIME.sub(b"", report.read_bytes())
    certs = sorted((work / "certs").glob("*")) if (work / "certs").is_dir() else []
    out["certificates"] = {p.name: p.read_bytes() for p in certs}
    checks = {p.name: polyrec(src, work, "verify-certificate", f"certs/{p.name}") for p in certs}
    out["verify"] = {name: check for name, (check, _) in checks.items()}
    out["tampered"] = {}
    (work / "tampered").mkdir()
    for p in certs:
        doc = json.loads(p.read_bytes())
        field = LATTICE_FIELDS[doc["certificate_kind"]]
        for how, tamper in TAMPERED.items():
            name = f"{how}.{p.name}"
            (work / "tampered" / name).write_text(json.dumps({**doc, field: tamper(doc[field])}))
            out["tampered"][name], _ = polyrec(src, work, "verify-certificate", f"tampered/{name}")
    costs = {
        "exit": out["exit"],
        "cpu_s": round(usage["cpu_s"], 3),
        "maxrss_kb": usage["maxrss_kb"],
        "report_bytes": len(out.get("report", b"")),
        "stdout_bytes": len(out["stdout"]),
        "verify_cpu_s": round(sum(cost["cpu_s"] for _, cost in checks.values()), 3),
    }
    return out, costs


def differing(ref: dict, tree: dict) -> list:
    """The outputs that the two sides do not share, by name."""
    return sorted(k for k in ref.keys() | tree.keys() if ref.get(k) != tree.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    sys.path.insert(0, str(ROOT / "src"))
    from polyrec.cli import PAYLOAD_SCHEMAS

    differs_anywhere = False
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        sides = {"ref": scratch / "ref", "tree": scratch / "tree"}
        copy_tree(args.ref, sides["ref"])
        copy_tree("WORKTREE", sides["tree"])
        # name, run arguments, and what the case's line says before its outputs
        cases = [("bundled", ["--bundled"], {})]
        for workload in ("recurrence", "algebra", "many-small"):
            for seed in SEEDS:
                directory = scratch / "corpora" / f"{workload}-{seed}"
                corpus.write(corpus.generate(workload, seed), directory)
                cases.append((f"{workload}-{seed}", [str(directory), "--seed", str(seed)], {}))
        (scratch / "scale").mkdir()
        for name, doc, cap in CASES:
            line = {"cap": cap}
            if doc["kind"] == "spectral-limit":
                line["charge"] = spectral_charge(doc["payload"])
            cases.append((name, scale_args(scratch / "scale", name, doc, cap), line))
        for i, (name, run_args, line) in enumerate(cases):
            order = ("ref", "tree") if i % 2 == 0 else ("tree", "ref")
            got, costs = {}, {}
            for side in order:
                got[side], costs[side] = run_case(sides[side] / "src", scratch / "out" / side / name, run_args)
            line = {"case": name, **line, "first": order[0], "certificates": len(got["tree"]["certificates"])}
            line["tampered_refused"] = sum(out["exit"] == 1 for out in got["tree"]["tampered"].values())
            line["differs"] = differing(got["ref"], got["tree"])
            for side in sides:
                if "charge" in line:
                    costs[side]["cpu_us_per_unit"] = round(costs[side]["cpu_s"] * 1e6 / line["charge"], 1)
                line[side] = costs[side]
                shutil.rmtree(scratch / "out" / side / name)
            differs_anywhere |= bool(line["differs"])
            print(json.dumps(line), flush=True)
        for kind in sorted(PAYLOAD_SCHEMAS):
            got = {side: polyrec(tree / "src", scratch, "schema", kind)[0] for side, tree in sides.items()}
            line = {"case": f"schema {kind}"}
            line["differs"] = differing(got["ref"], got["tree"])
            differs_anywhere |= bool(line["differs"])
            print(json.dumps(line), flush=True)
    return 1 if differs_anywhere else 0


if __name__ == "__main__":
    sys.exit(main())
