"""Seeded scenario corpora for the three benchmark workloads.

``generate(workload, seed)`` returns a list of scenario documents; the same
seed gives the same documents, and ``write`` gives the same bytes.  The seed
draws coefficients, point labels, weights, target sets and lattices; the
shape of each corpus (kinds, variable counts, degrees, map orders and so the
period grids) is fixed per workload, so run times do not depend on the seed.

Every scenario stays inside polyrec's documented ingestion caps (degree 8,
4 variables, window 12, tuple length 4, phase denominators 720) and the
default sweep cap of 10^6 points, and every one has the known answer
"holds".  Two kinds of input are left out on purpose because the program
mishandles them: hindman-search with list-valued colors (a traceback), and
one-variable delta-check of degree 8 (seconds of work that ignore --cap).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracles

WORKLOADS = ("recurrence", "algebra", "many-small")


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def poly(nvars: int, terms: dict) -> dict:
    return {
        "nvars": nvars,
        "basis": "binomial",
        "terms": [{"idx": list(idx), "coef": str(c)} for idx, c in sorted(terms.items()) if c],
    }


def indices(nvars: int, degree: int, lowest: int = 1):
    """Multi-indices with total degree in [lowest, degree], in lex order."""
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars:
            if sum(prefix) >= lowest:
                out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], degree)
    return out


def exponent_poly(rng: random.Random, nvars: int, degree: int, nterms: int) -> dict:
    """f with f(0) = 0, total degree exactly ``degree``, coefficient 1 on z_1.

    The unit linear coefficient keeps f(e_1) = 1, so no nonzero phase or
    nontrivial orbit vanishes on all of Z^n; tampered certificates then fail.
    """
    idxs = indices(nvars, degree)
    top = [i for i in idxs if sum(i) == degree]
    first = tuple(1 if j == 0 else 0 for j in range(nvars))
    terms = {first: 1, rng.choice(top): rng.choice([-3, -2, -1, 1, 2, 3])}
    others = [i for i in idxs if i not in terms]
    for idx in rng.sample(others, min(nterms, len(others))):
        terms[idx] = rng.randint(-9, 9)
    return poly(nvars, terms)


def dense_poly(rng: random.Random, nvars: int, degree: int) -> dict:
    return poly(nvars, {idx: rng.choice([-1, 1]) * rng.randint(1, 9) for idx in indices(nvars, degree, 0)})


def cycle_system(rng: random.Random, lengths) -> dict:
    """One permutation with the given cycle lengths; weights constant on cycles."""
    names = [f"x{i}" for i in range(sum(lengths))]
    rng.shuffle(names)
    mult = [rng.randint(1, 5) for _ in lengths]
    total = sum(length * m for length, m in zip(lengths, mult))
    image, weight = {}, {}
    pos = 0
    for length, m in zip(lengths, mult):
        cycle = names[pos : pos + length]
        pos += length
        for i, p in enumerate(cycle):
            image[p] = cycle[(i + 1) % length]
            weight[p] = str(Fraction(m, total))
    points = sorted(names, key=lambda s: int(s[1:]))
    return {
        "points": points,
        "weights": {p: weight[p] for p in points},
        "maps": [[image[p] for p in points]],
    }


def product_system(rng: random.Random, a: int, b: int) -> dict:
    """Z/a x Z/b with one rotation per factor, under shuffled labels."""
    cells = [(i, j) for i in range(a) for j in range(b)]
    labels = [f"y{t}" for t in range(a * b)]
    rng.shuffle(labels)
    name = dict(zip(cells, labels))
    points = sorted(labels, key=lambda s: int(s[1:]))
    cell = {v: k for k, v in name.items()}
    rot_a = [name[((cell[p][0] + 1) % a, cell[p][1])] for p in points]
    rot_b = [name[(cell[p][0], (cell[p][1] + 1) % b)] for p in points]
    w = str(Fraction(1, a * b))
    return {"points": points, "weights": {p: w for p in points}, "maps": [rot_a, rot_b]}


def cycle_phases(rng: random.Random, lengths, dim: int):
    """Eigen-phases of one permutation with these cycle lengths, ``dim`` rows.

    Row i has denominator lengths[i % len(lengths)], so with dim >= the number
    of cycles the phase order is the map order.
    """
    rows = []
    for i in range(dim):
        q = lengths[i % len(lengths)]
        rows.append([str(Fraction(rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1]), q))])
    return rows


def product_phases(rng: random.Random, orders, dim: int):
    """Characters of Z/q_1 x ... x Z/q_m, one phase column per rotation."""
    rows = []
    for i in range(dim):
        row = []
        for j, q in enumerate(orders):
            if i % len(orders) == j:
                k = rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1])
            else:
                k = rng.randrange(q)
            row.append(str(Fraction(k, q)))
        rows.append(row)
    return rows


def subset(rng: random.Random, system: dict, size: int):
    return sorted(rng.sample(system["points"], size), key=lambda s: int(s[1:]))


def scenario(sid: str, kind: str, payload: dict) -> dict:
    return {"schema_version": 1, "id": sid, "kind": kind, "payload": payload}


def recurrence_payload(rng, system, fs, a_size, with_eps=True):
    """A recurrence payload whose threshold set holds about 3/4 of the residues.

    Eight target sets A are drawn; for each, every cut mu(A)^2 - epsilon
    with epsilon >= 0 is tried, and the pair whose share of member residues
    is closest to 3/4 wins (at epsilon = 0 most systems already admit
    two thirds or more).  The share of members, and with it the
    report size, then barely moves with the seed.
    """
    if not with_eps:
        return {"system": system, "A": subset(rng, system, a_size), "fs": fs}
    sys_ = oracles.System(system)
    parsed = [oracles.parse_poly(f) for f in fs]
    classes = Counter(
        tuple(oracles.poly_eval(f, z) % o for f, o in zip(parsed, sys_.orders))
        for z in product(*(range(p) for p in grid_period(system, fs)))
    )
    total = sum(classes.values())
    best = None
    for _ in range(8):
        A = subset(rng, system, a_size)
        a_idx = {sys_.points.index(p) for p in A}
        mu = sys_.measure(A)
        values = Counter()
        for cls, count in sorted(classes.items()):
            values[sys_.return_measure(a_idx, cls)] += count
        members = 0
        for cut in sorted(values, reverse=True):
            members += values[cut]
            if cut <= mu * mu:
                miss = abs(Fraction(members, total) - Fraction(3, 4))
                if best is None or miss < best[0]:
                    best = (miss, A, mu * mu - cut)
    _, A, eps = best
    return {"system": system, "A": A, "fs": fs, "epsilon": str(eps)}


def grid_period(system: dict, fs) -> tuple:
    """polyrec's residue grid: q * lcm(1..d) per variable, q the map modulus."""
    degree = max(oracles.poly_degree(oracles.parse_poly(f)) for f in fs)
    modulus = oracles.System(system).modulus
    return (modulus * math.lcm(*range(1, degree + 1)),) * fs[0]["nvars"]


def ip_star_payload(rng, system, fs, a_size, k, w):
    """An ip-star payload whose window verdict holds, checked by the oracle.

    A and epsilon are redrawn until the lifted threshold set meets every
    subset-sum family of the window; the last resort epsilon = mu(A)^2
    makes every residue a member.
    """
    sys_ = oracles.System(system)
    period = grid_period(system, fs)
    horizon = max(w * k, 2 * period[0])
    for attempt in range(40):
        A = subset(rng, system, a_size)
        mu = sys_.measure(A)
        eps = mu * mu * Fraction(rng.randint(20, 95), 100) if attempt < 39 else mu * mu
        payload = {"system": system, "A": A, "fs": fs, "epsilon": str(eps), "k": k, "W": w}
        rec = oracles.Recurrence(payload)
        if oracles.ip_star_holds(oracles.lift(rec.members(period), period, horizon), k, w):
            return payload
    raise AssertionError("unreachable: epsilon = mu(A)^2 admits every residue")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def recurrence(rng: random.Random):
    """Dynamics sweeps on three systems; grids of 512 to 13 824 residues."""
    out = []
    # 12 points in cycles of 3, 4 and 5: map order 60, one variable.
    sa = cycle_system(rng, (3, 4, 5))
    f6 = [exponent_poly(rng, 1, 6, 3)]  # period 60 * lcm(1..6) = 3600
    out.append(scenario("rec-a-r-epsilon", "r-epsilon", recurrence_payload(rng, sa, f6, 5)))
    out.append(scenario("rec-a-khintchine", "khintchine", recurrence_payload(rng, sa, [exponent_poly(rng, 1, 6, 3)], 4, False)))
    out.append(scenario("rec-a-ip-star", "ip-star", ip_star_payload(rng, sa, [exponent_poly(rng, 1, 5, 3)], 5, 2, 8)))
    out.append(scenario("rec-a-spectral-limit", "spectral-limit", {"unitary": {"phases": cycle_phases(rng, (3, 4, 5), 4)}, "fs": f6}))
    # Z/4 x Z/6 with two rotations: modulus 12, two variables.
    sb = product_system(rng, 4, 6)
    f2 = [exponent_poly(rng, 2, 2, 3), exponent_poly(rng, 2, 2, 3)]  # 24^2 = 576
    f3 = [exponent_poly(rng, 2, 3, 3), exponent_poly(rng, 2, 3, 3)]  # 72^2 = 5184
    out.append(scenario("rec-b-r-epsilon", "r-epsilon", recurrence_payload(rng, sb, f2, 6)))
    out.append(scenario("rec-b-khintchine", "khintchine", recurrence_payload(rng, sb, f3, 5, False)))
    out.append(scenario("rec-b-ip-star", "ip-star", ip_star_payload(rng, sb, [exponent_poly(rng, 2, 2, 2), exponent_poly(rng, 2, 2, 2)], 8, 2, 8)))
    out.append(scenario("rec-b-spectral-limit", "spectral-limit", {"unitary": {"phases": product_phases(rng, (4, 6), 4)}, "fs": f2}))
    # One 4-cycle: modulus 4, three variables.
    sc = cycle_system(rng, (4,))
    g3 = [exponent_poly(rng, 3, 3, 4)]  # 24^3 = 13824
    g2 = [exponent_poly(rng, 3, 2, 3)]  # 8^3 = 512
    out.append(scenario("rec-c-r-epsilon", "r-epsilon", recurrence_payload(rng, sc, g3, 2)))
    out.append(scenario("rec-c-khintchine", "khintchine", recurrence_payload(rng, sc, g2, 1, False)))
    out.append(scenario("rec-c-ip-star", "ip-star", ip_star_payload(rng, sc, [exponent_poly(rng, 3, 2, 3)], 2, 2, 8)))
    out.append(scenario("rec-c-spectral-limit", "spectral-limit", {"unitary": {"phases": cycle_phases(rng, (4,), 3)}, "fs": g2}))
    return out


def unimodular_mix(rng: random.Random, cols):
    """The same lattice, under a seeded change of basis."""
    cols = [list(c) for c in cols]
    for _ in range(4):
        i, j = rng.sample(range(len(cols)), 2)
        c = rng.choice([-2, -1, 1, 2])
        cols[j] = [a + c * b for a, b in zip(cols[j], cols[i])]
    return cols


def key_lemma_payload(rng: random.Random, nvars: int, degree: int, diag):
    """v: Z^n -> Z^K of the given degree, V of index prod(diag).

    v is redrawn until v(e_j) - v(0) leaves V for some unit vector e_j, so
    the witness is a proper sublattice and a certificate claiming all of
    Z^n is false.
    """
    units = [[1 if i == j else 0 for i in range(nvars)] for j in range(nvars)]
    diagonal = [[d if i == j else 0 for i in range(len(diag))] for j, d in enumerate(diag)]
    while True:
        V = {"ambient": len(diag), "basis": unimodular_mix(rng, diagonal)}
        V_cols = oracles.lattice_columns(V)
        v = [exponent_poly(rng, nvars, degree, 3) for _ in diag]
        for f in v:
            f["terms"].insert(0, {"idx": [0] * nvars, "coef": str(rng.randint(1, 9))})
        parsed = [oracles.parse_poly(f) for f in v]
        if not all(oracles.key_lemma_holds_at(parsed, V_cols, e) for e in units):
            break
    return {"v": v, "V": V, "hypothesis": {"ambient": nvars, "basis": units}}


def stable_rank_payload(rng: random.Random, nvars: int, arity: int, degree: int, window: int):
    return {"v": [exponent_poly(rng, nvars, degree, 2) for _ in range(arity)], "window": window}


def algebra(rng: random.Random):
    """delta, keyengine, spectral and lattice under load; no dynamics."""
    out = []
    out.append(scenario("alg-delta-1v-d7", "delta-check", {"poly": dense_poly(rng, 1, 7), "recursion_max_s": 3}))
    out.append(scenario("alg-delta-1v-d6", "delta-check", {"poly": dense_poly(rng, 1, 6), "recursion_max_s": 4}))
    out.append(scenario("alg-delta-2v-d4", "delta-check", {"poly": dense_poly(rng, 2, 4), "recursion_max_s": 4}))
    out.append(scenario("alg-delta-3v-d3", "delta-check", {"poly": dense_poly(rng, 3, 3), "recursion_max_s": 3}))
    out.append(scenario("alg-delta-tables", "delta-check", {"c_table_max": 12, "random": {"count": 60, "nvars": 2, "max_degree": 3, "coeff_bound": 9}}))
    # Membership sweep of (index * lcm(1..d))^2 = 144^2 points, in run and verify.
    out.append(scenario("alg-key-lemma", "key-lemma", key_lemma_payload(rng, 2, 2, (3, 4, 6))))
    # Certificate sweep of (q * lcm(1..d))^2 = 72^2 points times 4 eigenvectors.
    out.append(scenario("alg-spectral-limit", "spectral-limit", {"unitary": {"phases": product_phases(rng, (4, 3), 4)}, "fs": [exponent_poly(rng, 2, 3, 3), exponent_poly(rng, 2, 3, 3)]}))
    # Greedy rank growth over the 25^2 window points.
    out.append(scenario("alg-stable-rank", "stable-rank", stable_rank_payload(rng, 2, 3, 2, 12)))
    return out


def many_small(rng: random.Random):
    """160 tiny scenarios of every kind; three of them emit certificates."""
    out = []
    tiny_cycles = [(2,), (3,), (4,), (2, 3), (2, 2)]
    for i in range(35):
        s = cycle_system(rng, rng.choice(tiny_cycles))
        out.append(scenario(f"ms-r-epsilon-{i:03d}", "r-epsilon", recurrence_payload(rng, s, [exponent_poly(rng, 1, 2, 1)], 1)))
    for i in range(25):
        s = cycle_system(rng, rng.choice(tiny_cycles))
        out.append(scenario(f"ms-ip-star-{i:03d}", "ip-star", ip_star_payload(rng, s, [exponent_poly(rng, 1, 2, 1)], 1, 2, rng.randint(4, 6))))
    for i in range(35):
        s = cycle_system(rng, rng.choice(tiny_cycles))
        out.append(scenario(f"ms-khintchine-{i:03d}", "khintchine", recurrence_payload(rng, s, [exponent_poly(rng, 1, 2, 1)], 1, False)))
    for i in range(30):
        payload = {"poly": dense_poly(rng, rng.randint(1, 2), rng.randint(1, 3)), "recursion_max_s": rng.randint(2, 3)}
        if i % 4 == 0:
            payload["c_table_max"] = rng.randint(2, 6)
        if i % 5 == 0:
            payload["random"] = {"count": 2, "nvars": 1, "max_degree": 2}
        out.append(scenario(f"ms-delta-{i:03d}", "delta-check", payload))
    for i in range(32):
        w = rng.randint(5, 10)
        coloring = {"W": w, "colors": [rng.randint(0, 1) for _ in range(w)]}
        out.append(scenario(f"ms-hindman-{i:03d}", "hindman-search", {"coloring": coloring, "k": 2}))
    out.append(scenario("ms-key-lemma", "key-lemma", key_lemma_payload(rng, 1, 2, (2, 2))))
    out.append(scenario("ms-stable-rank", "stable-rank", stable_rank_payload(rng, 1, 2, 2, 3)))
    out.append(scenario("ms-spectral-limit", "spectral-limit", {"unitary": {"phases": cycle_phases(rng, (4,), 2)}, "fs": [exponent_poly(rng, 1, 2, 1)]}))
    return out


def generate(workload: str, seed: int):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return {"recurrence": recurrence, "algebra": algebra, "many-small": many_small}[workload](rng)


def write(scenarios, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for doc in scenarios:
        (directory / f"{doc['id']}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
