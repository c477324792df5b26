"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live) and asserts both the mathematical property and its runtime budget.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import child_env, random_binpoly, random_fullrank_lattice, random_homogeneous
from polyrec import dynamics as dy
from polyrec import intpoly as ip
from polyrec import ipstruct as ips
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec import spectral as sp
from polyrec.numutil import lcm_upto


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s / {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


# ---------------------------------------------------------------------------
# Criterion 1: difference-operator identity suite
# ---------------------------------------------------------------------------


def test_criterion_1_delta_identities():
    with Budget(1, "delta identity suite", 10):
        rng = random.Random(2024)
        for _ in range(200):
            nvars = rng.randint(1, 3)
            f = random_binpoly(rng, nvars, 4, bound=9)
            d = f.degree
            collapsed = ip.delta(f, d + 1)
            expected = ip.constant((d + 1) * nvars, (-1) ** d * f.constant_term())
            assert collapsed == expected
            doubled = ip.delta(f, 2)
            for block in (range(nvars), range(nvars, 2 * nvars)):
                assert ip.degree_in_vars(doubled, block) < d


# ---------------------------------------------------------------------------
# Criterion 2: homogeneous identity on the diagonal
# ---------------------------------------------------------------------------


def test_criterion_2_homogeneous_identity():
    with Budget(2, "homogeneous diagonal identity", 10):
        cases = []
        # every single monomial with coefficients of both signs, exhaustively
        for nvars in (1, 2):
            for d in range(1, 5):
                for idx in itertools.product(range(d + 1), repeat=nvars):
                    if sum(idx) == d:
                        for coef in (-5, -1, 1, 5):
                            cases.append(
                                ip.from_monomial_coeffs(nvars, {idx: coef})
                            )
        # plus a seeded random sample of mixed homogeneous polynomials
        rng = random.Random(2025)
        for _ in range(150):
            nvars = rng.randint(1, 2)
            d = rng.randint(1, 4)
            cases.append(random_homogeneous(rng, nvars, d, bound=5))
        assert len(cases) >= 200
        for h in cases:
            d = h.degree
            diff = ip.delta(h, d)
            fact = math.factorial(d)
            for pt in itertools.product(range(-3, 4), repeat=h.nvars):
                assert diff.evaluate(list(pt) * d) == fact * h.evaluate(pt)


# ---------------------------------------------------------------------------
# Criterion 3: the alternating-sum table
# ---------------------------------------------------------------------------


def test_criterion_3_c_number_table():
    with Budget(3, "alternating-sum table", 1):
        for m in range(1, 11):
            assert ip.c_number(m, m) == math.factorial(m)
        for m in range(1, 11):
            for s in range(m + 1, 11):
                assert ip.c_number(s, m) == 0


# ---------------------------------------------------------------------------
# Criterion 4: lattice operations against brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_4_lattice_oracles():
    with Budget(4, "lattice oracle equivalence", 10):
        rng = random.Random(2026)
        done = 0
        while done < 100:
            g1 = (rng.randint(-6, 6), rng.randint(-6, 6))
            g2 = (rng.randint(-6, 6), rng.randint(-6, 6))
            det = abs(g1[0] * g2[1] - g1[1] * g2[0])
            if det == 0 or det > 36:
                continue
            done += 1
            l = lat.hnf_from_generators(2, [g1, g2])
            # rank oracle: nonzero determinant means two independent columns
            assert l.rank == 2
            # membership oracle: residues of all small combinations mod det,
            # complete because det * Z^2 always sits inside the lattice
            residues = set()
            for a, b in itertools.product(range(det), repeat=2):
                residues.add(
                    tuple((a * x + b * y) % det for x, y in zip(g1, g2))
                )
            for pt in itertools.product(range(-7, 8), repeat=2):
                expected = tuple(c % det for c in pt) in residues
                assert l.contains(pt) == expected
            # index oracle: density count over one det-periodic box
            count = sum(
                1
                for pt in itertools.product(range(det), repeat=2)
                if tuple(c % det for c in pt) in residues
            )
            assert lat.index(l) == det * det // count == det


# ---------------------------------------------------------------------------
# Criterion 5: transfer-construction certificates, exhaustively re-checked
# ---------------------------------------------------------------------------


def test_criterion_5_key_lemma_certificates():
    with Budget(5, "witness-lattice certificates", 60):
        rng = random.Random(2027)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            v = ip.polytuple([random_binpoly(rng, n, 3, bound=4) for _ in range(K)])
            target = random_fullrank_lattice(rng, K, pivot_max=2)
            witness = ke.key_lemma_lattice(
                ke.key_instance(v, target), lat.full_lattice(n)
            )
            checked += 1
            # independent re-check over one full fundamental domain: for a
            # full-rank target, membership of an integer vector only depends
            # on its class mod index(target), so the value map is periodic
            # with period index * lcm(1..d) in the witness coordinates
            offset = v.evaluate([0] * n)
            side = max(lat.index(target) * lcm_upto(max(v.degree, 1)), v.degree + 1)
            for ks in itertools.product(range(side), repeat=n):
                pt = [0] * n
                for c, col in zip(ks, witness.basis):
                    for i in range(n):
                        pt[i] += c * col[i]
                value = [a - b for a, b in zip(v.evaluate(pt), offset)]
                assert target.contains(value)


# ---------------------------------------------------------------------------
# Criteria 6 and 7 share a fixed corpus of systems and queries
# ---------------------------------------------------------------------------


def _cyclic(n):
    pts = [str(i) for i in range(n)]
    return dy.build_system(
        pts, {p: Fraction(1, n) for p in pts}, [[str((i + 1) % n) for i in range(n)]]
    )


def _product_23():
    pts = [f"{a}{b}" for a in range(2) for b in range(3)]
    return dy.build_system(
        pts,
        {p: Fraction(1, 6) for p in pts},
        [
            [f"{(int(p[0]) + 1) % 2}{p[1]}" for p in pts],
            [f"{p[0]}{(int(p[1]) + 1) % 3}" for p in pts],
        ],
    )


def _weighted_five():
    pts = ["p0", "p1", "p2", "p3", "p4"]
    weights = {"p0": Fraction(1, 2)} | {f"p{i}": Fraction(1, 8) for i in (1, 2, 3, 4)}
    cycle = {"p0": "p0", "p1": "p2", "p2": "p3", "p3": "p4", "p4": "p1"}
    return dy.build_system(pts, weights, [cycle])


Z = ip.binpoly(1, {(1,): 1})
ZSQ = ip.from_monomial_coeffs(1, {(2,): 1})
ZCUBE_MINUS_Z = ip.from_monomial_coeffs(1, {(3,): 1, (1,): -1})
TWOZ_PLUS_ZSQ = ip.from_monomial_coeffs(1, {(2,): 1, (1,): 2})


def _corpus():
    z2, z3, z4, z6 = _cyclic(2), _cyclic(3), _cyclic(4), _cyclic(6)
    z23, w5 = _product_23(), _weighted_five()
    queries = [
        ("z4-square", z4, ["0"], [ZSQ]),  # the pinned case: sup 1/4 vs 1/16
        ("z2-square", z2, ["0"], [ZSQ]),
        ("z3-cube", z3, ["0"], [ZCUBE_MINUS_Z]),
        ("z3-pair-set", z3, ["0", "1"], [ZCUBE_MINUS_Z]),
        ("z4-mixed", z4, ["0", "2"], [TWOZ_PLUS_ZSQ]),
        ("z6-even-orbit", z6, ["0", "2", "4"], [ZSQ]),
        ("z6-cube", z6, ["0"], [ZCUBE_MINUS_Z]),
        ("product-pair", z23, ["00"], [ZSQ, ZCUBE_MINUS_Z]),
        ("product-two-atoms", z23, ["00", "10"], [ZSQ, ZCUBE_MINUS_Z]),
        ("weighted-orbit", w5, ["p1"], [ZSQ]),
        ("weighted-fixed-point", w5, ["p0"], [ZCUBE_MINUS_Z]),
    ]
    return queries


def test_criterion_6_khintchine_suite():
    with Budget(6, "recurrence lower-bound suite", 30):
        queries = _corpus()
        assert len(queries) >= 10
        for name, sys_, A, fs in queries:
            report = dy.verify_khintchine(sys_, dy.recurrence_query(A, fs, 0))
            assert report.holds, name
            assert report.sup_value >= report.bound
            if name == "z4-square":
                assert report.sup_value == Fraction(1, 4)
                assert report.bound == Fraction(1, 16)


def test_criterion_7_threshold_set_structure():
    with Budget(7, "threshold-set structure", 30):
        for name, sys_, A, fs in _corpus():
            verdict = dy.r_epsilon(sys_, dy.recurrence_query(A, fs, 0))
            zero = (0,) * fs[0].nvars
            assert zero in verdict.members, name
            window = dy.ip_star_verdict(verdict, 2, 8)
            assert window.ip_star.holds, name
            assert window.gap is not None, name


# ---------------------------------------------------------------------------
# Criterion 8: verified identity certificates for rational-phase families
# ---------------------------------------------------------------------------


def test_criterion_8_spectral_certificates():
    with Budget(8, "rational-phase certificates", 30):
        rng = random.Random(2028)
        denominators = [1, 2, 3, 4, 6, 12]
        for _ in range(10):
            dim = rng.randint(1, 6)
            ops = rng.randint(1, 2)
            phases = [
                [
                    Fraction(rng.randint(0, 11), rng.choice(denominators))
                    for _ in range(ops)
                ]
                for _ in range(dim)
            ]
            u = sp.phase_unitary(phases)
            fs = []
            for _ in range(ops):
                f = random_binpoly(rng, 1, 3, bound=4)
                fs.append(ip.subtract(f, ip.constant(1, f.constant_term())))
            desc = sp.limit_projection(u, fs)  # raises if the sweep finds a bad point
            assert desc.fixed == frozenset(range(dim))
            realized = [desc.to_matrix()]
            for vec in itertools.product(range(3), repeat=ops):
                if any(vec):
                    realized.append(sp.orbit_fixed_projection(u, [vec]).to_matrix())
            for m in realized:
                assert sp.is_orthogonal_projection(m).ok
            for a, b in itertools.combinations(realized, 2):
                assert sp.mat_mul(a, b) == sp.mat_mul(b, a)


# ---------------------------------------------------------------------------
# Criterion 9: the quadratic averaging expansion is exact
# ---------------------------------------------------------------------------


def test_criterion_9_averaging_expansion():
    with Budget(9, "averaging expansion", 5):
        rng = random.Random(2029)
        for _ in range(100):
            n = rng.randint(1, 8)
            d = rng.randint(1, 5)
            vecs = [
                [
                    sp.gq(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                    )
                    for _ in range(d)
                ]
                for _ in range(n)
            ]
            out = sp.vdc_expansion(vecs)
            assert out.equal
            assert out.rhs == out.diagonal + out.cross


# ---------------------------------------------------------------------------
# Criterion 10: monochromatic subset-sum search over all small colorings
# ---------------------------------------------------------------------------


def test_criterion_10_window_search_all_colorings():
    with Budget(10, "window search over all 2-colorings", 60):
        w, k = 10, 2
        witnesses = 0
        for bits in range(1 << w):
            coloring = {n: (bits >> (n - 1)) & 1 for n in range(1, w + 1)}
            out = ips.find_monochromatic_fs(coloring, k)
            if out is not None:
                witnesses += 1
                sums = ips.fs_expand(out)
                assert max(sums) <= w
                assert len({coloring[s] for s in sums}) == 1
            else:
                # independent exhaustion with inline subset-sum arithmetic
                for s1 in range(1, w + 1):
                    for s2 in range(s1 + 1, w + 1):
                        family = {s1, s2, s1 + s2}
                        if max(family) <= w:
                            assert len({coloring[x] for x in family}) > 1
        print(f"  colorings of 1..{w} with a k={k} witness: {witnesses} / {1 << w}")
        assert witnesses > 0


# ---------------------------------------------------------------------------
# Criterion 11: CLI byte-determinism across parallelism levels
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    with Budget(11, "CLI determinism", 30):
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"reports-{jobs}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "polyrec.cli",
                    "run",
                    "--bundled",
                    "--jobs",
                    jobs,
                    "--json",
                    str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            for report in doc["reports"]:
                report.pop("wall_time_ms")
            outputs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert outputs[0] == outputs[1]
