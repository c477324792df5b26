"""Compare what a git ref and the working tree print and write.

Run from the repository root:

    python3 tools/same_output.py REF

Both sides are copied once into a temporary directory, as
``tools/bench_pairs.py`` copies them (``git archive`` of REF; the tracked and
untracked non-ignored files of the working tree), and every child runs with
``PYTHONDONTWRITEBYTECODE=1`` and its side's ``src`` on PYTHONPATH.  The
cases:

- ``bundled``: ``run --bundled``;
- ``WORKLOAD-SEED``: ``run DIR --seed SEED`` on the recurrence, algebra and
  many-small corpora of ``bench/corpus.py`` (read, not changed) for seeds 1
  to 3, written once and shared by both sides;
- ``schema KIND``: ``schema KIND`` for every scenario kind of the working
  tree.

Each ``run`` writes ``--json`` and ``--emit-certificates``, and each emitted
certificate is checked with ``verify-certificate``, and so are two tampered
copies of it (``TAMPERED``): its lattice field (``LATTICE_FIELDS``) replaced
by Z^n, and that field with its last basis column dropped.  Per case the two
sides' exit codes, standard output and error, report without its
``wall_time_ms`` fields, certificate files, and every ``verify-certificate``
exit code and output are compared.  One JSON line per case names what
differs and counts the tampered copies the working tree refuses with exit
code 1; the exit code is 1 if anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
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


def polyrec(src: Path, cwd: Path, *args) -> dict:
    """Exit code, standard output and error of ``polyrec ARGS`` run from cwd."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "polyrec.cli", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_outputs(src: Path, work: Path, args) -> dict:
    """What ``run ARGS`` prints and writes in the empty directory work, and
    what ``verify-certificate`` prints on each certificate it emits.  Output
    paths are relative to work, so both sides print the same names."""
    work.mkdir(parents=True)
    out = polyrec(src, work, "run", *args, "--json", "report.json", "--emit-certificates", "certs")
    report = work / "report.json"
    if report.exists():
        doc = json.loads(report.read_text())
        for entry in doc["reports"]:
            entry.pop("wall_time_ms", None)
        out["report"] = doc
    certs = sorted((work / "certs").glob("*")) if (work / "certs").is_dir() else []
    out["certificates"] = {p.name: p.read_bytes() for p in certs}
    out["verify"] = {p.name: polyrec(src, work, "verify-certificate", f"certs/{p.name}") for p in certs}
    (work / "tampered").mkdir()
    for p in certs:
        doc = json.loads(p.read_text())
        field = LATTICE_FIELDS[doc["certificate_kind"]]
        for how, tamper in TAMPERED.items():
            name = f"{how}.{p.name}"
            (work / "tampered" / name).write_text(json.dumps({**doc, field: tamper(doc[field])}))
            out["verify"][name] = polyrec(src, work, "verify-certificate", f"tampered/{name}")
    return out


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
        cases = [("bundled", ["--bundled"])]
        for workload in ("recurrence", "algebra", "many-small"):
            for seed in SEEDS:
                directory = scratch / "corpora" / f"{workload}-{seed}"
                corpus.write(corpus.generate(workload, seed), directory)
                cases.append((f"{workload}-{seed}", [str(directory), "--seed", str(seed)]))
        for name, run_args in cases:
            got = {
                side: run_outputs(tree / "src", scratch / "out" / side / name, run_args)
                for side, tree in sides.items()
            }
            line = {"case": name, "certificates": len(got["tree"]["certificates"])}
            line["tampered_refused"] = sum(
                out["exit"] == 1 for key, out in got["tree"]["verify"].items() if key.split(".")[0] in TAMPERED
            )
            line["differs"] = differing(got["ref"], got["tree"])
            differs_anywhere |= bool(line["differs"])
            print(json.dumps(line), flush=True)
        for kind in sorted(PAYLOAD_SCHEMAS):
            got = {side: polyrec(tree / "src", scratch, "schema", kind) for side, tree in sides.items()}
            line = {"case": f"schema {kind}"}
            line["differs"] = differing(got["ref"], got["tree"])
            differs_anywhere |= bool(line["differs"])
            print(json.dumps(line), flush=True)
    return 1 if differs_anywhere else 0


if __name__ == "__main__":
    sys.exit(main())
