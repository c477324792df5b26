"""Independent checks of polyrec's verdicts and certificates.

Nothing here imports polyrec.  Polynomials are read from their scenario JSON
and evaluated with ``math.comb``; permutations are composed directly; lattice
questions are settled with exact ``Fraction`` elimination or sympy.  Each
``check_*`` function takes the scenario payload and the program's report
details (and certificate, where there is one) and returns a list of
disagreements; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import sympy

# ---------------------------------------------------------------------------
# Exact arithmetic helpers
# ---------------------------------------------------------------------------


def binom(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0."""
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def parse_poly(obj: dict):
    """Scenario polynomial JSON -> (nvars, [(idx, coef)])."""
    terms = [(tuple(t["idx"]), int(t["coef"])) for t in obj["terms"]]
    return obj["nvars"], terms


def poly_eval(poly, z) -> int:
    _, terms = poly
    total = 0
    for idx, coef in terms:
        value = coef
        for zj, ij in zip(z, idx):
            if ij:
                value *= binom(zj, ij)
        total += value
    return total


def poly_degree(poly) -> int:
    _, terms = poly
    return max((sum(idx) for idx, c in terms if c), default=0)


def solve_rational(columns, target):
    """x with sum_j x_j * columns[j] = target over Q, or None.

    The columns must be linearly independent, so the solution is unique.
    """
    rows = len(target)
    ncols = len(columns)
    m = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if any(m[i][ncols] for i in range(r, rows)):
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def in_lattice(columns, vec) -> bool:
    """Is vec an integer combination of the (independent) columns?"""
    if not any(vec):
        return True
    if not columns:
        return False
    x = solve_rational(columns, vec)
    return x is not None and all(c.denominator == 1 for c in x)


def lattice_columns(obj: dict):
    return [list(map(int, col)) for col in obj.get("basis", [])]


def lattice_point(columns, coeffs, ambient):
    point = [0] * ambient
    for c, col in zip(coeffs, columns):
        for i in range(ambient):
            point[i] += c * col[i]
    return point


def sympy_rank(rows) -> int:
    """Rank over Q of an integer matrix, via sympy on the Gram matrix M^T M."""
    if not rows:
        return 0
    m = sympy.Matrix(rows)
    return (m.T * m).rank()


# ---------------------------------------------------------------------------
# Finite systems: permutations composed directly
# ---------------------------------------------------------------------------


class System:
    def __init__(self, obj: dict):
        self.points = list(obj["points"])
        pos = {p: i for i, p in enumerate(self.points)}
        self.weights = [Fraction(obj["weights"][p]) for p in self.points]
        self.perms = [[pos[img] for img in images] for images in obj["maps"]]
        self.powers = []
        for perm in self.perms:
            table = [list(range(len(perm)))]
            while True:
                nxt = [perm[x] for x in table[-1]]
                if nxt == table[0]:
                    break
                table.append(nxt)
            self.powers.append(table)
        self.orders = [len(t) for t in self.powers]
        self.modulus = math.lcm(*self.orders)

    def measure(self, names) -> Fraction:
        idx = {self.points.index(p) for p in names}
        return sum((self.weights[i] for i in idx), Fraction(0))

    def return_measure(self, a_idx, exps) -> Fraction:
        """mu(A intersect T_1^{-e_1} ... T_m^{-e_m} A)."""
        total = Fraction(0)
        for x in a_idx:
            y = x
            for table, e in zip(self.powers, exps):
                y = table[e % len(table)][y]
            if y in a_idx:
                total += self.weights[x]
        return total


class Recurrence:
    """Oracle view of a khintchine / r-epsilon / ip-star payload."""

    def __init__(self, payload: dict):
        self.sys = System(payload["system"])
        self.fs = [parse_poly(f) for f in payload["fs"]]
        self.nvars = self.fs[0][0]
        self.A = sorted(set(payload["A"]))
        self.a_idx = {self.sys.points.index(p) for p in self.A}
        self.mu_a = self.sys.measure(self.A)
        self.epsilon = Fraction(payload.get("epsilon", 0))
        self.threshold = self.mu_a * self.mu_a - self.epsilon

    def exps(self, z):
        return [poly_eval(f, z) for f in self.fs]

    def value(self, z) -> Fraction:
        return self.sys.return_measure(self.a_idx, self.exps(z))

    def members(self, period):
        return {
            z for z in product(*(range(p) for p in period)) if self.value(z) >= self.threshold
        }


def lift(members, period, horizon):
    """Diagonal lift of residue classes to {1..horizon}."""
    return {t for t in range(1, horizon + 1) if tuple(t % p for p in period) in members}


def largest_gap(values, lo, hi):
    """Largest gap of values inside [lo, hi], the two ends included."""
    inside = sorted(v for v in values if lo <= v <= hi)
    if not inside:
        return None
    marks = [lo] + inside + [hi]
    return max(b - a for a, b in zip(marks, marks[1:]))


def subset_sums(gens):
    sums = set()
    for r in range(1, len(gens) + 1):
        for combo in combinations(gens, r):
            sums.add(sum(combo))
    return sums


def ip_star_holds(values, k, window):
    return all(subset_sums(t) & values for t in product(range(1, window + 1), repeat=k))


# ---------------------------------------------------------------------------
# Checks, one per scenario kind
# ---------------------------------------------------------------------------


def _residue_fields(rec: Recurrence, details: dict, errors: list):
    period = tuple(details["period"])
    if len(period) != rec.nvars or any(p < 1 for p in period):
        errors.append(f"bad period {period}")
        return None
    members = rec.members(period)
    reported = {tuple(m) for m in details["members"]}
    if reported != members:
        errors.append(f"members differ: {len(reported ^ members)} residues disagree")
    if details["member_count"] != len(members):
        errors.append("member_count is wrong")
    if Fraction(details["mu_a"]) != rec.mu_a or Fraction(details["mu_a_sq"]) != rec.mu_a**2:
        errors.append("mu(A) or mu(A)^2 is wrong")
    if Fraction(details["epsilon"]) != rec.epsilon:
        errors.append("epsilon echoed wrongly")
    if (0,) * rec.nvars not in members:
        errors.append("0 is not in the threshold set")
    return period, members


def _check_period(rec: Recurrence, period, rng: random.Random, errors: list):
    """f_i(z + N_j e_j) = f_i(z) modulo the map orders, at seeded points."""
    for _ in range(50):
        z = [rng.randrange(-3 * p, 3 * p) for p in period]
        base = rec.exps(z)
        for j in range(rec.nvars):
            shifted = list(z)
            shifted[j] += period[j]
            moved = rec.exps(shifted)
            if any((a - b) % o for a, b, o in zip(moved, base, rec.sys.orders)):
                errors.append(f"period {period} fails at {z} along axis {j}")
                return


def _check_table(rec: Recurrence, period, members, table: str, errors: list):
    rows = table.splitlines()[1:]
    grid = list(product(*(range(p) for p in period)))
    if len(rows) != len(grid):
        errors.append(f"residue table has {len(rows)} rows, grid has {len(grid)}")
        return
    threshold = str(rec.threshold)
    for z, row in zip(grid, rows):
        cells = row.split()
        want = [
            ",".join(map(str, z)),
            ",".join(map(str, rec.exps(z))),
            str(rec.value(z)),
            threshold,
            "holds" if z in members else "fails",
        ]
        if cells != want:
            errors.append(f"residue table row {cells} should be {want}")
            return


def check_r_epsilon(payload, details, rng):
    errors = []
    rec = Recurrence(payload)
    got = _residue_fields(rec, details, errors)
    if got:
        period, members = got
        _check_period(rec, period, rng, errors)
        _check_table(rec, period, members, details["table"], errors)
    return errors


def check_ip_star(payload, details, rng):
    errors = []
    rec = Recurrence(payload)
    got = _residue_fields(rec, details, errors)
    if not got:
        return errors
    period, members = got
    _check_period(rec, period, rng, errors)
    k, w = payload["k"], payload["W"]
    horizon = details["horizon"]
    if horizon < k * w or horizon < 2 * max(period):
        errors.append(f"horizon {horizon} is too short for k={k}, W={w}, period {period}")
    values = lift(members, period, horizon)
    if details["syndetic_gap"] != largest_gap(values, 1, horizon):
        errors.append("syndetic gap differs from the lifted set's")
    holds = ip_star_holds(values, k, w)
    if details["ip_star"]["holds"] != holds or not holds:
        errors.append(f"ip-star verdict {details['ip_star']['holds']}, oracle {holds}")
    return errors


def check_khintchine(payload, details, rng):
    errors = []
    rec = Recurrence(payload)
    sup, bound = Fraction(details["sup"]), Fraction(details["bound"])
    if bound != rec.mu_a**2:
        errors.append("bound is not mu(A)^2")
    if sup != rec.mu_a:
        errors.append(f"sup {sup} is not mu(A) = {rec.mu_a}")
    if sup < bound:
        errors.append("sup below mu(A)^2")
    w = details["witness_residue"]
    if rec.value(w) != sup:
        errors.append("return measure at the witness residue is not the sup")
    if any(e % o for e, o in zip(rec.exps(w), rec.sys.orders)):
        errors.append("witness residue is off the vanishing sublattice")
    return errors


def _phase_table(unitary):
    return [[Fraction(p) % 1 for p in row] for row in unitary["phases"]]


def phases_vanish(phases, fs, point) -> bool:
    exps = [poly_eval(f, point) for f in fs]
    return all(sum(e * p for e, p in zip(exps, row)).denominator == 1 for row in phases)


def _sample_coeffs(rng, rank, count, spread):
    out = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    out += [tuple(rng.randint(-spread, spread) for _ in range(rank)) for _ in range(count)]
    return out


def check_spectral_limit(payload, details, certificate, rng):
    errors = []
    phases = _phase_table(payload["unitary"])
    fs = [parse_poly(f) for f in payload["fs"]]
    n = fs[0][0]
    order = 1
    for row in phases:
        for p in row:
            order = math.lcm(order, p.denominator)
    if details["phase_order"] != order:
        errors.append("phase_order is not the lcm of the phase denominators")
    if details["fixed"] != list(range(len(phases))) or details["is_identity"] is not True:
        errors.append("limit projection is not the identity")
    if certificate is None:
        return errors + ["no certificate emitted"]
    if certificate["lattice"] != details["certificate"]:
        errors.append("certificate lattice differs from the report")
    if certificate["fs"] != payload["fs"] or _phase_table(certificate["unitary"]) != phases:
        errors.append("certificate does not restate the scenario")
    cols = lattice_columns(details["certificate"])
    if len(cols) != n or sympy.Matrix(cols).det() == 0:
        return errors + ["certificate lattice is not full rank"]
    for coeffs in _sample_coeffs(rng, n, 40, 30):
        point = lattice_point(cols, coeffs, n)
        if not phases_vanish(phases, fs, point):
            errors.append(f"a phase survives at lattice point {point}")
            break
    return errors


def key_lemma_holds_at(v, V_cols, point) -> bool:
    zero = [0] * len(point)
    value = [poly_eval(f, point) - poly_eval(f, zero) for f in v]
    return in_lattice(V_cols, value)


def check_key_lemma(payload, details, certificate, rng):
    errors = []
    v = [parse_poly(f) for f in payload["v"]]
    n = v[0][0]
    V_cols = lattice_columns(payload["V"])
    cols = lattice_columns(details["witness"])
    if len(cols) != n:
        return ["witness lattice is not full rank"]
    det = abs(int(sympy.Matrix(cols).det()))
    if det == 0 or details["witness_index"] != det:
        errors.append(f"witness_index {details['witness_index']} but |det| = {det}")
    if certificate is None:
        return errors + ["no certificate emitted"]
    if certificate["witness"] != details["witness"] or certificate["v"] != payload["v"]:
        errors.append("certificate does not restate the report")
    cert_V = lattice_columns(certificate["V"])
    if not (
        all(in_lattice(cert_V, col) for col in V_cols)
        and all(in_lattice(V_cols, col) for col in cert_V)
    ):
        errors.append("certificate target subgroup differs from the scenario")
    for coeffs in _sample_coeffs(rng, n, 60, 40):
        point = lattice_point(cols, coeffs, n)
        if not key_lemma_holds_at(v, V_cols, point):
            errors.append(f"v(a) - v(0) leaves V at lattice point {point}")
            break
    return errors


def window(n, w):
    return product(range(-w, w + 1), repeat=n)


def check_stable_rank(payload, details, certificate, rng):
    errors = []
    v = [parse_poly(f) for f in payload["v"]]
    n = v[0][0]
    w = payload["window"]
    images = [[poly_eval(f, pt) for f in v] for pt in window(n, w)]
    rank = sympy_rank(images)
    if details["r"] != rank:
        errors.append(f"r = {details['r']}, sympy rank of the window images = {rank}")
    if details["saturation_window"] != w:
        errors.append("saturation window differs from the scenario")
    V_cols = lattice_columns(details["V"])
    sample_imgs = [[poly_eval(f, pt) for f in v] for pt in details["samples"]]
    if sympy_rank(V_cols) != rank or sympy_rank(sample_imgs) != len(sample_imgs):
        errors.append("V or the samples do not have the window rank")
    elif not (
        all(in_lattice(sample_imgs, c) for c in V_cols)
        and all(in_lattice(V_cols, img) for img in sample_imgs)
    ):
        errors.append("sample images do not generate V")
    if certificate is None:
        return errors + ["no certificate emitted"]
    for key in ("r", "samples", "V", "saturation_window"):
        if certificate[key] != details[key]:
            errors.append(f"certificate field {key} differs from the report")
    if certificate["v"] != payload["v"]:
        errors.append("certificate does not restate the scenario")
    return errors


def inclusion_exclusion(f, blocks):
    """delta(f, s) at the point made of s blocks, by its definition."""
    s = len(blocks)
    n = f[0]
    total = 0
    for r in range(1, s + 1):
        for chosen in combinations(range(s), r):
            point = [sum(blocks[b][j] for b in chosen) for j in range(n)]
            total += (-1) ** (s - r) * poly_eval(f, point)
    return total


def _rand_point(rng, n, spread=20):
    return [rng.randint(-spread, spread) for _ in range(n)]


def block_degree_drops(f, rng) -> bool:
    """deg_x of f(x+y) - f(x) - f(y) is below deg f, by d-th differences."""
    d, n = poly_degree(f), f[0]
    for _ in range(6):
        x, y, u = _rand_point(rng, n), _rand_point(rng, n), _rand_point(rng, n, 5)
        total = 0
        for j in range(d + 1):
            xj = [a + j * b for a, b in zip(x, u)]
            g = inclusion_exclusion(f, [xj, y])
            total += (-1) ** (d - j) * math.comb(d, j) * g
        if total:
            return False
    return True


def c_number(s, m):
    return sum((-1) ** (s - k) * math.comb(s, k) * k**m for k in range(1, s + 1))


def check_delta(payload, details, rng):
    errors = []
    if "poly" in payload:
        f = parse_poly(payload["poly"])
        d, n = poly_degree(f), f[0]
        const = (-1) ** d * poly_eval(f, [0] * n)
        for _ in range(8):
            blocks = [_rand_point(rng, n) for _ in range(d + 1)]
            if inclusion_exclusion(f, blocks) != const:
                errors.append(f"delta(f, {d + 1}) is not the constant {const} (oracle)")
                break
        info = details["poly"]
        if info["collapsed_value"] != str(const):
            errors.append(f"collapsed value {info['collapsed_value']}, oracle {const}")
        if info["constant_collapse"] is not True:
            errors.append("constant collapse reported false")
        drop = d < 1 or block_degree_drops(f, rng)
        if info["block_degree_drop"] is not drop or not drop:
            errors.append(f"block degree drop reported {info['block_degree_drop']}, oracle {drop}")
        if details["recursion_consistent"] is not True:
            errors.append("delta and delta_recursive disagree")
    if "c_table_max" in payload:
        top = payload["c_table_max"]
        diag = all(c_number(m, m) == math.factorial(m) for m in range(1, top + 1))
        zeros = all(c_number(s, m) == 0 for m in range(1, top + 1) for s in range(m + 1, top + 1))
        want = {"factorial_diagonal": diag, "upper_zeros": zeros}
        if details["c_table"] != want or not (diag and zeros):
            errors.append(f"c_table {details['c_table']}, oracle {want}")
    if "random" in payload:
        rnd = details["random"]
        if rnd["count"] != payload["random"]["count"] or rnd["failures"] != 0:
            errors.append(f"random suite reported {rnd}")
    return errors


def least_monochromatic(colors, k):
    """Least strictly increasing k-tuple whose subset sums stay in 1..W in one color."""
    w = len(colors)
    for gens in combinations(range(1, w + 1), k):
        sums = subset_sums(gens)
        if max(sums) <= w and len({colors[s - 1] for s in sums}) == 1:
            return list(gens)
    return None


def check_hindman(payload, details, rng):
    colors = payload["coloring"]["colors"]
    want = least_monochromatic(colors, payload["k"])
    if details["witness"] != want:
        return [f"witness {details['witness']}, oracle {want}"]
    if want is not None and details["subset_sums"] != sorted(subset_sums(want)):
        return ["subset sums of the witness are wrong"]
    return []


def check_report(scenario: dict, report: dict, certificate, rng) -> list:
    """Every disagreement between the program's report and the oracles."""
    if report["verdict"] != "holds":
        return [f"verdict {report['verdict']}: {report['details']}"]
    kind, payload, details = scenario["kind"], scenario["payload"], report["details"]
    if kind == "r-epsilon":
        return check_r_epsilon(payload, details, rng)
    if kind == "ip-star":
        return check_ip_star(payload, details, rng)
    if kind == "khintchine":
        return check_khintchine(payload, details, rng)
    if kind == "spectral-limit":
        return check_spectral_limit(payload, details, certificate, rng)
    if kind == "key-lemma":
        return check_key_lemma(payload, details, certificate, rng)
    if kind == "stable-rank":
        return check_stable_rank(payload, details, certificate, rng)
    if kind == "delta-check":
        return check_delta(payload, details, rng)
    if kind == "hindman-search":
        return check_hindman(payload, details, rng)
    return [f"no oracle for kind {kind}"]
