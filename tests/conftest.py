"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_decomp

from polyrec import cli
from polyrec import dynamics as dy
from polyrec import intpoly as ip
from polyrec import ipstruct as ips
from polyrec import lattice as lat

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The environment with src/ first on PYTHONPATH, so that a child
    ``python -m polyrec.cli`` imports this tree without an install."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_in_process(*argv):
    """cli.main with captured output; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def verify_certificate(path: Path, doc: dict):
    """``polyrec verify-certificate`` in process on doc, written to path:
    its exit code, standard output and standard error."""
    path.write_text(json.dumps(doc))
    return run_in_process("verify-certificate", str(path))


def random_binpoly(
    rng: random.Random,
    nvars: int,
    max_degree: int,
    bound: int = 9,
    max_terms: int = 6,
    ensure_nonconstant: bool = True,
) -> ip.BinPoly:
    """Random binomial-basis polynomial with bounded total degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            idx = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if sum(idx) <= max_degree:
                break
        coef = rng.randint(-bound, bound)
        if coef:
            terms[idx] = coef
    f = ip.binpoly(nvars, terms)
    if ensure_nonconstant and f.degree < 1:
        one = (1,) + (0,) * (nvars - 1)
        f = ip.add(f, ip.binpoly(nvars, {one: 1}))
    return f


def random_homogeneous(rng: random.Random, nvars: int, degree: int, bound: int = 5):
    """Random monomial-homogeneous integer polynomial of exact degree."""
    idxs = [
        i
        for i in itertools.product(range(degree + 1), repeat=nvars)
        if sum(i) == degree
    ]
    mono = {i: rng.randint(-bound, bound) for i in idxs}
    if not any(mono.values()):
        mono[idxs[0]] = 1
    return ip.from_monomial_coeffs(nvars, mono)


def random_fullrank_lattice(rng: random.Random, dim: int, pivot_max: int = 2) -> lat.Lattice:
    """Random full-rank lattice with small index (pivots in 1..pivot_max)."""
    gens = []
    for j in range(dim):
        col = [0] * dim
        col[j] = rng.randint(1, pivot_max)
        for i in range(j + 1, dim):
            col[i] = rng.randint(-2, 2)
        gens.append(col)
    return lat.hnf_from_generators(dim, gens)


def smith_form(V: lat.Lattice):
    """Smith form S = U * B * W of the basis matrix B of V, as (S, U)."""
    B = Matrix([[col[i] for col in V.basis] for i in range(V.ambient)])
    S, U, _ = smith_normal_decomp(B, domain=ZZ)
    return S, U


def sympy_saturation(V: lat.Lattice) -> lat.Lattice:
    """Q*V intersected with Z^K, from sympy's Smith form B = U^-1 * S * W^-1:
    the first rank(V) columns of U^-1 span it.  Independent of the walk in
    polyrec.lattice."""
    if V.rank == 0:
        return V
    _, U = smith_form(V)
    inverse = U.inv()
    return lat.hnf_from_generators(V.ambient, [list(inverse[:, j]) for j in range(V.rank)])


def fraction_phase_polys(phases, fs):
    """The phase polynomials formed in Fraction arithmetic from a raw phase
    table: each phase taken into [0, 1), q the lcm of their denominators,
    and sum_i int(q * theta_i) * f_i once per distinct row, in order of first
    occurrence.  Returns q and the polynomials."""
    rows = [tuple(Fraction(p) - math.floor(Fraction(p)) for p in row) for row in phases]
    q = math.lcm(*(p.denominator for row in rows for p in row))
    polys = []
    for row in dict.fromkeys(rows):
        acc = {}
        for f, p in zip(fs, row):
            for idx, coef in f.terms:
                acc[idx] = acc.get(idx, 0) + int(q * p) * coef
        polys.append(ip.binpoly(fs[0].nvars, acc))
    return q, polys


def product_system(sizes):
    """Z/s_1 x ... x Z/s_k with the uniform measure and one rotation per factor.

    A factor of size 1 is a map of order 1, so sizes of all 1 give q = 1.
    """
    pts = [",".join(map(str, p)) for p in itertools.product(*(range(s) for s in sizes))]
    maps = []
    for i, s in enumerate(sizes):
        image = []
        for p in itertools.product(*(range(t) for t in sizes)):
            moved = list(p)
            moved[i] = (moved[i] + 1) % s
            image.append(",".join(map(str, moved)))
        maps.append(image)
    return dy.build_system(pts, {p: Fraction(1, len(pts)) for p in pts}, maps)


def first_disagreement(points, maps):
    """The full pairwise commutation loop over every pair of maps, repeats
    included: the text of the first disagreement, maps i < j at a point,
    or None when all maps commute."""
    pos = {p: i for i, p in enumerate(points)}
    perms = [[pos[y] for y in images] for images in maps]
    for i, j in itertools.combinations(range(len(perms)), 2):
        for x in range(len(points)):
            if perms[i][perms[j][x]] != perms[j][perms[i][x]]:
                return f"maps {i} and {j} disagree at point {points[x]!r}"
    return None


def rotations(rng: random.Random, count: int, size: int = 60):
    """``count`` rotations of a ``size``-cycle by seeded steps, uniform weights."""
    pts = [str(i) for i in range(size)]
    maps = [pts[r:] + pts[:r] for r in (rng.randrange(size) for _ in range(count))]
    return dy.build_system(pts, {p: Fraction(1, size) for p in pts}, maps)


# Set-based oracles of the subset-sum searches: every tuple is expanded in
# full and checked against the explicit set, with no pruning and no residues.


def lift_ip_star(values, k: int, window: int):
    """The least non-decreasing k-tuple in 1..window none of whose subset
    sums lies in ``values``, or None."""
    values = frozenset(values)
    for tup in itertools.combinations_with_replacement(range(1, window + 1), k):
        if not (ips.fs_expand(tup) & values):
            return tup
    return None


def lift_gap(values, lo: int, hi: int):
    """Largest gap of ``values`` inside [lo, hi], counting the distance in
    from both ends; None when no value lies inside."""
    elems = sorted(x for x in set(values) if lo <= x <= hi)
    if not elems:
        return None
    marks = [lo, *elems, hi]
    return max(b - a for a, b in zip(marks, marks[1:]))


def lift_monochromatic(coloring, k: int):
    """The least increasing k-tuple in 1..W whose subset sums all lie in
    1..W and share one color, or None."""
    w = len(coloring)
    for gens in itertools.combinations(range(1, w + 1), k):
        if sum(gens) <= w and len({coloring[s] for s in ips.fs_expand(gens)}) == 1:
            return gens
    return None
