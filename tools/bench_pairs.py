"""Compare two trees with bench/run.py in alternating parent/change pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change WORKTREE \
        --workload recurrence --seeds 1 2 3 --out BENCH_N.json

Each side is copied once under --scratch (``git archive`` of a ref, or the
tracked and untracked non-ignored files of the working tree for WORKTREE),
and each run gets a fresh copy of that, so neither side has a ``__pycache__`` and
both compile ``src/`` on every start (PYTHONDONTWRITEBYTECODE=1).  The side
that runs first alternates from pair to pair.  The bench files of the
change are used on both sides, so only ``src/`` differs.  The output holds
every run's end-to-end metrics and, per workload and metric, the quartiles
of each side and how many pairs the change wins and loses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def copy_tree(ref: str, dest: Path) -> None:
    """A fresh copy of ``ref`` (a git ref, or WORKTREE) in ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if ref == "WORKTREE":
        listed = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        for name in filter(None, listed):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
    else:
        archive = subprocess.run(
            ["git", "archive", ref], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_side(tree: Path, bench: Path, workload: str, seed: int, seconds: float) -> dict:
    shutil.rmtree(tree / "bench", ignore_errors=True)
    shutil.copytree(bench, tree / "bench")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{m["name"]: result["metrics"][m["name"]]["value"] for m in METRICS},
    }


def quartiles(values):
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = [r for r in runs if r["workload"] == workload]
        summary = {}
        for metric in METRICS:
            name = metric["name"]
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            sign = 1 if metric["better"] == "lower" else -1
            summary[name] = {
                "pairs": len(pairs),
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_over_parent_median": round(
                    statistics.median(change) / statistics.median(parent) - 1, 4
                ) if statistics.median(parent) else None,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "change_loses": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "bound": metric["bound"],
            }
        for key in ("failed", "attempted"):
            summary[f"{key}_ops"] = {
                side: sum(p[side][key] for p in pairs) for side in ("parent", "change")
            }
        summary["all_correct"] = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
        out[workload] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--change", default="WORKTREE", help="git ref, or WORKTREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--scratch", type=Path, default=ROOT / ".bench_pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    # one snapshot per side, so later edits to the working tree do not leak in
    for side in ("parent", "change"):
        copy_tree(getattr(args, side), args.scratch / f"{side}-src")
    bench = args.scratch / "change-src" / "bench"
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            tree = args.scratch / side
            shutil.rmtree(tree, ignore_errors=True)
            shutil.copytree(args.scratch / f"{side}-src", tree)
            pair[side] = run_side(tree, bench, args.workload, seed, args.seconds)
        runs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)
        doc = {
            "command": "python3 bench/run.py --workload W --seed N --seconds "
            f"{args.seconds:g} --trace 0",
            "parent": args.parent,
            "change": args.change,
            "date": time.strftime("%Y-%m-%d"),
            "summary": summarize(runs),
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
