"""Run each seeded mutant of the source against the tests that must catch it.

Run from the repository root:

    python3 tools/mutants.py

A mutant (``MUTANTS``) is one exact edit: a file, text that occurs in it
exactly once, the text that replaces it, and the test node ids that must
fail on the edited tree.  Each mutant is applied to a fresh copy of the
working tree (its tracked and untracked non-ignored files, copied as
``tools/bench_pairs.py`` copies them) in a temporary directory, and only its
tests run there, with ``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONHASHSEED=0``.
The unmutated copy runs every listed test first and must pass, so a test
that fails without any edit cannot count as a kill.  One JSON line is
printed per run: the mutant's name (``unmutated`` for the plain copy),
whether its tests failed (``killed``), and the seconds taken.  The exit
code is 1 if the unmutated copy fails or a mutant survives.

A mutant that survives marks a gap in its tests: record it, and keep the
mutant.  ``tests/test_tooling.py`` checks that every old text still occurs
exactly once in its file and that every node id exists, so a refactor that
moves the code updates this table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

from bench_pairs import copy_tree


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


CYCLIC = "tests/test_keyengine.py::TestCyclicPeriods::test_against_the_joint_periods"
BEST_MATCH = (
    "tests/test_cli.py::TestSchemaChecker::test_scenario_errors_read_as_best_match",
    "tests/test_cli.py::TestSchemaChecker::test_payload_errors_read_as_best_match",
)

MUTANTS = (
    Mutant(
        "cyclic_escape decides only the first distinct pair",
        "src/polyrec/keyengine.py",
        "(first_escape(*pair) for pair in _cyclic_pairs(us, moduli))",
        "(first_escape(*pair) for pair in list(_cyclic_pairs(us, moduli))[:1])",
        (CYCLIC,),
    ),
    Mutant(
        "cyclic_escape takes the largest escaping index",
        "src/polyrec/keyengine.py",
        "return min((a for a in escapes if a is not None), default=None)",
        "return max((a for a in escapes if a is not None), default=None)",
        (CYCLIC,),
    ),
    Mutant(
        "cyclic_periods combines the per-pair periods with max",
        "src/polyrec/keyengine.py",
        "return tuple(map(math.lcm, *periods))",
        "return tuple(map(max, *periods))",
        (CYCLIC,),
    ),
    Mutant(
        "least_periods skips the prime d",
        "src/polyrec/keyengine.py",
        "primes = [p for p in range(2, d + 1) if",
        "primes = [p for p in range(2, d) if",
        ("tests/test_keyengine.py::TestLeastPeriods::test_matches_division_by_every_prime_factor",),
    ),
    Mutant(
        "build_system keys maps by their last occurrence",
        "src/polyrec/dynamics.py",
        "first.setdefault(perm, mi)",
        "first[perm] = mi",
        ("tests/test_dynamics.py::TestBuildSystem::test_not_commuting_text_matches_the_full_pairwise_loop",),
    ),
    Mutant(
        "ip_star_verdict takes the strides in the wrong order",
        "src/polyrec/dynamics.py",
        "strides = [math.prod(period[j + 1:]) for j in range(len(period))]",
        "strides = [math.prod(period[:j]) for j in range(len(period))]",
        ("tests/test_dynamics.py::TestOnePass::test_ip_star_lift_matches_the_member_set_lift",),
    ),
    Mutant(
        "delta drops one row",
        "src/polyrec/intpoly.py",
        "for row in _all_blocks_rows(idx, s)]\n",
        "for row in _all_blocks_rows(idx, s)][1:]\n",
        ("tests/test_cli.py::TestDeltaCheckRandomSuite::test_a_delta_that_drops_a_row_fails",),
    ),
    Mutant(
        "phase_unitary skips the mod 1",
        "src/polyrec/spectral.py",
        "values = {p: Fraction(p) % 1 for p in",
        "values = {p: Fraction(p) for p in",
        ("tests/test_spectral.py::TestIntegerTable::test_phase_polys_are_one_combine_per_distinct_row",),
    ),
    Mutant(
        "verify_rank_certificate skips its regenerate comparison",
        "src/polyrec/keyengine.py",
        "if regenerated != cert.V:",
        "if False:",
        ("tests/test_keyengine.py::TestStableRank::test_certificate_reverification",),
    ),
    Mutant(
        "the key-lemma check takes offset 0 for v(0)",
        "src/polyrec/keyengine.py",
        "verify_value_membership(v, v.evaluate([0] * v.nvars), V, witness)",
        "verify_value_membership(v, [0] * v.arity, V, witness)",
        ("tests/test_first_escape.py::TestCallSitesAgreeWithSweeps::test_value_membership_and_key_certificates",),
    ),
    Mutant(
        "key_lemma_lattice skips its post-check",
        "src/polyrec/keyengine.py",
        "    verify_key_lemma_certificate(v, V, result)\n",
        "",
        ("tests/test_keyengine.py::TestKeyLemma::test_a_shrunk_period_fails_as_verify_certificate_words_it",),
    ),
    Mutant(
        "first_escape ignores span",
        "src/polyrec/keyengine.py",
        "if (lattice.smallest_multiple(V, c) is None) if span else not V.contains(c):",
        "if not V.contains(c):",
        (
            "tests/test_first_escape.py::TestCallSitesAgreeWithSweeps::test_key_lemma_hypothesis",
            "tests/test_first_escape.py::TestCallSitesAgreeWithSweeps::test_stable_rank",
        ),
    ),
    Mutant(
        "_exponent_lines swaps the arguments of its binomials",
        "src/polyrec/dynamics.py",
        "math.prod(map(math.comb, prefix, idx))",
        "math.prod(map(math.comb, idx, prefix))",
        ("tests/test_dynamics.py::TestMinimalGrid::test_forward_differences_match_evaluate",),
    ),
    Mutant(
        "certificate kind schemas miss one required field",
        "src/polyrec/cli.py",
        '{"required": sorted(fields), "properties": fields}',
        '{"required": sorted(fields)[1:], "properties": fields}',
        ("tests/test_cli.py::TestSchemaChecker::test_certificate_errors_read_as_under_one_conditional_schema",),
    ),
    Mutant(
        "is_ip_star_window visits strictly increasing tuples only",
        "src/polyrec/ipstruct.py",
        "_least_tuple(k, min(window, modulus), True,",
        "_least_tuple(k, min(window, modulus), False,",
        ("tests/test_ipstruct.py::TestIpStarWindow::test_against_brute_force",),
    ),
    Mutant(
        "_check picks its error by depth alone",
        "src/polyrec/cli.py",
        "key=lambda error: (-len(error[0]), error[0]))",
        "key=lambda error: -len(error[0]))",
        BEST_MATCH,
    ),
    Mutant(
        "additionalProperties lists its extras in set order",
        "src/polyrec/cli.py",
        'listed = ", ".join(map(repr, sorted(extras)))',
        'listed = ", ".join(map(repr, extras))',
        BEST_MATCH,
    ),
    Mutant(
        "additionalProperties lists its extras in document order",
        "src/polyrec/cli.py",
        'listed = ", ".join(map(repr, sorted(extras)))',
        'listed = ", ".join(repr(k) for k in x if k in extras)',
        BEST_MATCH,
    ),
)


def failed(tree: Path, tests) -> bool:
    """Whether pytest on the given node ids fails in tree."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode != 0


def main() -> int:
    all_good = True
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        runs = [("unmutated", None, sorted({t for m in MUTANTS for t in m.tests}))]
        runs += [(m.name, m, m.tests) for m in MUTANTS]
        for name, mutant, tests in runs:
            start = time.perf_counter()
            copy_tree("WORKTREE", tree)
            if mutant is not None:
                target = tree / mutant.path
                source = target.read_text()
                if source.count(mutant.old) != 1:
                    raise SystemExit(f"{name}: the old text does not occur exactly once in {mutant.path}")
                target.write_text(source.replace(mutant.old, mutant.new))
            killed = failed(tree, tests)
            line = {"mutant": name, "killed": killed, "seconds": round(time.perf_counter() - start, 2)}
            all_good &= killed is (mutant is not None)
            print(json.dumps(line), flush=True)
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
