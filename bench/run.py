"""End-to-end benchmark of polyrec's `run` and `verify-certificate` commands.

Run from the repository root:

    python3 bench/run.py --workload recurrence --seed 1 --seconds 25 --trace 0

It writes a seeded scenario corpus (see corpus.py) under .bench_work/, runs
the CLI from src/ as a subprocess the way a user would, checks every verdict,
certificate and residue set with the independent oracles in oracles.py, and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

One untimed warm-up round comes first; its output is what the oracles check.
Then timed rounds repeat while the next one still fits in --seconds (at least
three), each one checked against the warm-up output, and every metric is the
median over the timed rounds.  Times are the children's CPU times rescaled to
a reference CPU speed (hostprobe.py).  --trace 0 reports the end-to-end
metrics; --trace 1 adds a traced run of the same command (tracer.py) to every
round and reports the per-layer metrics.  Without src/polyrec the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import corpus
import hostprobe
import oracles
import tracer

BENCH = Path(__file__).resolve().parent
MIN_ROUNDS = 3
SETUP_PER_ROUND_S = 0.7  # repeat the short set-up measurement up to this total
VERIFY_PER_ROUND_S = 1.5  # repeat the verification of all certificates up to this total
DEADLINE_S = 170  # children still running this long after the start are killed
SETUP_CODE = (
    "import sys; from pathlib import Path; from polyrec import cli; "
    "cli.load_scenarios([Path(sys.argv[1])], False)"
)
IMPORT_CODE = "import time; t = time.perf_counter(); import polyrec.cli; print(time.perf_counter() - t)"


class Tally:
    """Operations attempted and failed; a failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(map(str, errors[:3]))}", file=sys.stderr)


def timed(cmd, env, stdout_path: Path, deadline: float):
    """Run cmd; return (Timing, exit code, peak RSS in KiB of that child).

    The host probe runs while the child does.  The child is killed if it is
    still running at ``deadline`` (perf_counter).
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        probe = hostprobe.Probe(proc.pid)
        probe.start()
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            elapsed = time.perf_counter() - start
            samples = probe.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return hostprobe.Timing(elapsed, cpu, samples), proc.returncode, usage.ru_maxrss


def normalized_report(path: Path):
    doc = json.loads(path.read_text())
    for report in doc["reports"]:
        report.pop("wall_time_ms")
    return doc


def read_certs(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.cert.json"))}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.workload, self.seed = workload, seed
        self.work = root / ".bench_work" / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.corpus_dir = self.work / "corpus"
        self.scenarios = corpus.generate(workload, seed)
        corpus.write(self.scenarios, self.corpus_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.py = sys.executable
        self.tally = Tally()
        self.reference = None
        self.reference_certs = None

    def run_args(self, out: Path):
        return [
            "run", str(self.corpus_dir), "--json", str(out / "report.json"),
            "--emit-certificates", str(out / "certs"), "--jobs", "1", "--seed", str(self.seed),
        ]

    def child(self, label: str, args, stdout: Path, expect: int = 0):
        """Time one child process; an exit code other than ``expect`` fails."""
        timing, code, rss = timed([self.py, *args], self.env, stdout, self.deadline)
        self.tally.check(label, [] if code == expect else [f"exit {code}, expected {expect}"])
        return timing, rss

    def round(self, k: int, repeat: bool = True) -> dict:
        """Set-up, run and verify-certificate, each a fresh process.

        With ``repeat``, set-up and the verification of all certificates are
        repeated until each holds its share of the round, so that these
        shorter metrics get several samples per round.
        """
        out = self.work / f"round-{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        setups = []
        while not setups or (repeat and sum(t.wall for t in setups) < SETUP_PER_ROUND_S):
            timing, _ = self.child(f"round {k} setup", ["-c", SETUP_CODE, str(self.corpus_dir)], out / "setup.out")
            setups.append(timing)
        run, rss = self.child(f"round {k} run", ["-m", "polyrec.cli", *self.run_args(out)], out / "run.out")
        certs = sorted((out / "certs").glob("*.cert.json"))
        verifies = []  # one list of timings per verification of all certificates
        while not verifies or (repeat and certs and sum(t.wall for v in verifies for t in v) < VERIFY_PER_ROUND_S):
            args = ["-m", "polyrec.cli", "verify-certificate"]
            verifies.append([self.child(f"round {k} verify {c.name}", [*args, str(c)], out / "verify.out")[0] for c in certs])
        report = out / "report.json"
        return {
            "dir": out,
            "setup": setups,
            "run": run,
            "verify": verifies,
            "peak_rss_mb": rss * 1024 / 1e6,
            "report_mb": report.stat().st_size / 1e6 if report.exists() else 0.0,
        }

    def same_as_reference(self, label: str, out: Path):
        try:
            errors = []
            if normalized_report(out / "report.json") != self.reference:
                errors.append("report differs from the checked warm-up report")
            if read_certs(out / "certs") != self.reference_certs:
                errors.append("certificates differ from the checked warm-up certificates")
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"unreadable output: {exc}"]
        self.tally.check(label, errors)

    def check_reference(self, out: Path):
        """Oracle checks of the warm-up output, one operation per scenario."""
        try:
            self.reference = normalized_report(out / "report.json")
            self.reference_certs = read_certs(out / "certs")
        except (OSError, ValueError, KeyError) as exc:
            self.tally.check("warm-up report", [f"unreadable output: {exc}"])
            return
        reports = {r["id"]: r for r in self.reference["reports"]}
        for doc in self.scenarios:
            rng = random.Random(f"oracle:{self.seed}:{doc['id']}")
            report = reports.get(doc["id"])
            cert_bytes = self.reference_certs.get(f"{doc['id']}.cert.json")
            cert = json.loads(cert_bytes) if cert_bytes else None
            if report is None:
                errors = ["missing from the report"]
            else:
                try:
                    errors = oracles.check_report(doc, report, cert, rng)
                except Exception as exc:  # output of any malformed shape is one failed check
                    errors = [f"malformed output: {exc!r}"]
            self.tally.check(f"oracle {doc['id']}", errors)
        self.check_tampered()

    def check_tampered(self):
        """A falsified copy of every certificate must be rejected with exit code 1."""
        tampered_dir = self.work / "tampered"
        tampered_dir.mkdir(exist_ok=True)
        for name, raw in sorted(self.reference_certs.items()):
            cert = json.loads(raw)
            self.tally.check(f"tampered {name} is false", tamper(cert))
            path = tampered_dir / name
            path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
            args = ["-m", "polyrec.cli", "verify-certificate", str(path)]
            self.child(f"tampered {name} rejected", args, tampered_dir / "verify.out", expect=1)

    def traced_round(self, k: int, plain: dict) -> dict:
        out = plain["dir"]
        traced = out / "traced"
        traced.mkdir()
        self.child(f"round {k} import", ["-c", IMPORT_CODE], out / "import.out")
        run_spans, verify_spans = out / "run-spans.json", out / "verify-spans.json"
        tracer_py = str(BENCH / "tracer.py")
        run, _ = self.child(
            f"round {k} traced run", [tracer_py, str(run_spans), *self.run_args(traced)], out / "traced-run.out"
        )
        self.same_as_reference(f"round {k} traced output", traced)
        args = [tracer_py, str(verify_spans), "verify-all", str(traced / "certs")]
        self.child(f"round {k} traced verify", args, out / "traced-verify.out")
        try:
            layers = tracer.layer_metrics([json.loads(p.read_text()) for p in (run_spans, verify_spans)])
            layers["import.polyrec_s"] = float((out / "import.out").read_text())
        except (OSError, ValueError) as exc:
            self.tally.check(f"round {k} spans", [f"unreadable trace output: {exc}"])
            layers = dict(tracer.layer_metrics([]), **{"import.polyrec_s": 0.0})
        layers["trace.overhead_s"] = run.rescaled() - plain["run"].rescaled()
        return layers


def tamper(cert: dict) -> list:
    """Falsify a certificate in place; return errors if the oracle finds it still true."""
    kind = cert["certificate_kind"]
    if kind == "key-lemma":
        n = cert["v"][0]["nvars"]
        units = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        cert["witness"] = {"ambient": n, "basis": units}
        v = [oracles.parse_poly(f) for f in cert["v"]]
        V = oracles.lattice_columns(cert["V"])
        still_true = all(oracles.key_lemma_holds_at(v, V, e) for e in units)
    elif kind == "spectral-limit":
        n = cert["fs"][0]["nvars"]
        units = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        cert["lattice"] = {"ambient": n, "basis": units}
        phases = [[Fraction(p) for p in row] for row in cert["unitary"]["phases"]]
        fs = [oracles.parse_poly(f) for f in cert["fs"]]
        still_true = all(oracles.phases_vanish(phases, fs, e) for e in units)
    elif kind == "stable-rank":
        cert["samples"] = cert["samples"][:-1]
        v = [oracles.parse_poly(f) for f in cert["v"]]
        images = [[oracles.poly_eval(f, pt) for f in v] for pt in cert["samples"]]
        still_true = oracles.sympy_rank(images) == cert["r"]
    else:
        return [f"unknown certificate kind {kind}"]
    return ["the tampered certificate is still true"] if still_true else []


def median_metrics(rows, names):
    """Median of each metric over the rounds."""
    return {name: statistics.median(row[name] for row in rows) for name in names}


END_TO_END = {"run_s": "s", "setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "report_mb": "MB"}


def end_to_end(rows) -> dict:
    """Median of each end-to-end metric over all samples of the timed rounds.

    Times are CPU times rescaled to the reference CPU speed (hostprobe.py);
    the plain wall-time and CPU-time medians go to stderr beside them.
    """
    samples = {  # each sample is the list of child timings it sums
        "setup_s": [[t] for row in rows for t in row["setup"]],
        "run_s": [[row["run"]] for row in rows],
        "verify_s": [v for row in rows for v in row["verify"]],
    }
    metrics, walls, cpus = {}, {}, {}
    for name, values in samples.items():
        metrics[name] = statistics.median(sum(t.rescaled() for t in v) for v in values)
        walls[name] = statistics.median(sum(t.wall for t in v) for v in values)
        cpus[name] = statistics.median(sum(t.cpu for t in v) for v in values)
    metrics.update(median_metrics(rows, ("peak_rss_mb", "report_mb")))
    print(f"wall-time medians {json.dumps(walls)}; CPU-time medians {json.dumps(cpus)}", file=sys.stderr)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyrec" / "cli.py").is_file():
        print(f"error: {root} holds no src/polyrec; run from the repository root", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    warm = bench.round(0, repeat=False)
    bench.check_reference(warm["dir"])

    rows, layers = [], []
    started = time.perf_counter()
    longest = 0.0  # the longest timed round so far; a round is started only if one that long still fits
    k = 0
    while time.perf_counter() + longest < bench.deadline and (
        k < MIN_ROUNDS or time.perf_counter() - started + longest <= args.seconds
    ):
        k += 1
        round_start = time.perf_counter()
        row = bench.round(k)
        bench.same_as_reference(f"round {k} output", row["dir"])
        if args.trace:
            layers.append(bench.traced_round(k, row))
        shutil.rmtree(row["dir"], ignore_errors=True)
        rows.append(row)
        longest = max(longest, time.perf_counter() - round_start)

    if not rows:
        print("error: no timed round finished before the deadline", file=sys.stderr)
        return 1
    if args.trace:
        names = sorted(set().union(*layers))
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in median_metrics(layers, names).items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in end_to_end(rows).items()}
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
