"""Self-test of the benchmark's oracles; needs no polyrec.

    python3 bench/selftest.py

Builds the correct report details of one seeded r-epsilon scenario from the
oracle itself, checks that the oracle accepts them, then feeds it a member
set with one residue missing and one with an extra residue, and checks that
it rejects both.  Exits with code 0 when all three behave, 1 otherwise.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import product

import corpus
import oracles


def correct_details(payload: dict) -> dict:
    rec = oracles.Recurrence(payload)
    degree = max(oracles.poly_degree(f) for f in rec.fs)
    period = (rec.sys.modulus * math.lcm(*range(1, degree + 1)),) * rec.nvars
    members = rec.members(period)
    rows = ["residue  exponents  return measure  threshold  verdict"]
    for z in product(*(range(p) for p in period)):
        cells = [
            ",".join(map(str, z)),
            ",".join(map(str, rec.exps(z))),
            str(rec.value(z)),
            str(rec.threshold),
            "holds" if z in members else "fails",
        ]
        rows.append("  ".join(cells))
    return {
        "period": list(period),
        "members": sorted(list(m) for m in members),
        "member_count": len(members),
        "epsilon": str(rec.epsilon),
        "mu_a": str(rec.mu_a),
        "mu_a_sq": str(rec.mu_a**2),
        "table": "\n".join(rows),
    }


def main() -> int:
    doc = next(d for d in corpus.generate("recurrence", 7) if d["kind"] == "r-epsilon")
    payload = doc["payload"]
    good = correct_details(payload)
    members = good["members"]
    taken = {tuple(m) for m in members}
    outsider = next(z for z in product(*map(range, good["period"])) if z not in taken)
    missing = dict(good, members=members[1:])
    extra = dict(good, members=sorted(members + [list(outsider)]))

    failures = []
    if oracles.check_r_epsilon(payload, good, random.Random(0)):
        failures.append("the oracle rejects correct details")
    if not oracles.check_r_epsilon(payload, missing, random.Random(0)):
        failures.append("the oracle accepts a member set with a residue missing")
    if not oracles.check_r_epsilon(payload, extra, random.Random(0)):
        failures.append("the oracle accepts a member set with an extra residue")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
