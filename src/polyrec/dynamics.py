"""Exact recurrence verification on finite measure-preserving systems.

A system is a finite weighted probability space together with commuting
weight-preserving bijections T_1, ..., T_m.  For integer-valued polynomials
f_i vanishing at the origin, the return measure

    z  |->  mu(A intersect T_1^{-f_1(z)} ... T_m^{-f_m(z)} A)

depends only on the residues f_i(z) mod order_i, the orders of the maps.
Those residues are periodic in each coordinate j of z, with a least period
N_j that divides q * lcm(1..d) (q the lcm of the orders, d the max degree)
and is decided from binomial coordinates (:func:`keyengine.least_periods`).
The sets where the return measure clears the threshold mu(A)^2 - eps are
therefore computed *exactly* as unions of residue classes, in one pass over
the minimal period grid that sums the exponents up from forward
differences along the last axis and looks each return measure up by its
exponent residues (e_i mod order_i).
All measures are rationals; there is no floating point anywhere in this
module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import intpoly, ipstruct, keyengine, lattice
from .errors import (
    ArityMismatch,
    NotBijective,
    NotCommuting,
    NotMeasurePreserving,
    SWEEP_CAP,
    SweepCapExceeded,
    UnknownPoint,
    WeightsNotNormalized,
)
from .intpoly import BinPoly


class FiniteSystem(NamedTuple):
    """Finite weighted probability space with commuting m.p. bijections.

    ``maps[i]`` sends point index x to its image index; weights are exact
    positive rationals summing to 1 and are preserved by every map.
    """

    points: Tuple[str, ...]
    weights: Tuple[Fraction, ...]
    maps: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def num_maps(self) -> int:
        return len(self.maps)

    def point_index(self, pt: str) -> int:
        try:
            return self.points.index(pt)
        except ValueError:
            raise UnknownPoint(f"point {pt!r} is not part of the system") from None

    def measure(self, subset: Sequence[str]) -> Fraction:
        return sum(
            (self.weights[self.point_index(p)] for p in set(subset)), Fraction(0)
        )


def _perm_cycles(perm: Sequence[int]) -> List[List[int]]:
    cycles, seen = [], set()
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def _perm_power(perm: Sequence[int], e: int) -> List[int]:
    """perm^e for any integer e: each point moves e steps along its cycle."""
    out = [0] * len(perm)
    for cycle in _perm_cycles(perm):
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + e) % len(cycle)]
    return out


def build_system(
    points: Sequence[str],
    weights: Mapping[str, Fraction | int | str],
    maps: Sequence[Sequence[str]],
) -> FiniteSystem:
    """Validate and build a system; every invariant is checked eagerly.

    Each map is a list of images aligned with ``points``.  Raises with a
    concrete witness on any violation.
    """
    pts = tuple(str(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ArityMismatch("point ids must be distinct")
    if not pts:
        raise ArityMismatch("need at least one point")
    pos = {p: i for i, p in enumerate(pts)}

    wts = []
    for p in pts:
        if p not in weights:
            raise WeightsNotNormalized(f"missing weight for point {p!r}")
        w = Fraction(weights[p])
        if w <= 0:
            raise WeightsNotNormalized(f"weight of {p!r} is {w}, not positive")
        wts.append(w)
    total = sum(wts)
    if total != 1:
        raise WeightsNotNormalized(f"weights sum to {total}, expected 1")

    perms: List[Tuple[int, ...]] = []
    for mi, images in enumerate(maps):
        if len(images) != len(pts):
            raise NotBijective(f"map {mi} does not assign an image to every point")
        try:
            perm = tuple(pos[str(img)] for img in images)
        except KeyError as exc:
            raise UnknownPoint(f"map {mi} sends a point to unknown {exc.args[0]!r}") from None
        if sorted(perm) != list(range(len(pts))):
            dup = next(p for p in perm if perm.count(p) > 1)
            raise NotBijective(f"map {mi} is not a bijection: {pts[dup]!r} hit twice")
        for x in range(len(pts)):
            if wts[perm[x]] != wts[x]:
                raise NotMeasurePreserving(
                    f"map {mi} moves mass at {pts[x]!r}: {wts[x]} -> {wts[perm[x]]}"
                )
        perms.append(perm)

    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            for x in range(len(pts)):
                if perms[i][perms[j][x]] != perms[j][perms[i][x]]:
                    raise NotCommuting(
                        f"maps {i} and {j} disagree at point {pts[x]!r}"
                    )
    return FiniteSystem(pts, tuple(wts), tuple(perms))


def system_from_json(obj: Mapping) -> FiniteSystem:
    """{"points": [...], "weights": {"pt": "p/q"}, "maps": [[image list], ...]}."""
    return build_system(obj["points"], obj["weights"], obj["maps"])


class RecurrenceQuery(NamedTuple):
    """A target set, exponent polynomials with f_i(0) = 0, and a slack eps."""

    A: FrozenSet[str]
    fs: Tuple[BinPoly, ...]
    epsilon: Fraction


def recurrence_query(
    A: Sequence[str], fs: Sequence[BinPoly], epsilon: Fraction | int | str = 0
) -> RecurrenceQuery:
    fs = intpoly.exponent_tuple(fs).components
    eps = Fraction(epsilon)
    if eps < 0:
        raise ArityMismatch(f"epsilon must be non-negative, got {eps}")
    return RecurrenceQuery(frozenset(str(p) for p in A), fs, eps)


def return_measure(
    sys: FiniteSystem, A: Sequence[str], exps: Sequence[int]
) -> Fraction:
    """Exact mu(A intersect T_1^{-e_1} ... T_m^{-e_m} A)."""
    if len(exps) != sys.num_maps:
        raise ArityMismatch(f"{len(exps)} exponents for {sys.num_maps} maps")
    idxs = {sys.point_index(p) for p in A}
    composite = list(range(sys.size))
    for perm, e in zip(sys.maps, exps):
        power = _perm_power(perm, int(e))
        composite = [power[x] for x in composite]
    return sum(
        (sys.weights[x] for x in idxs if composite[x] in idxs), Fraction(0)
    )


def map_orders(sys: FiniteSystem) -> Tuple[int, ...]:
    return tuple(math.lcm(*map(len, _perm_cycles(perm))) for perm in sys.maps)


def system_period(sys: FiniteSystem, fs: Sequence[BinPoly]) -> Tuple[int, ...]:
    """Minimal per-coordinate periods (N_1, ..., N_n) of z -> (f_i(z) mod order_i)_i.

    These are the least periods of the tuple (f_i) modulo the diagonal
    lattice of the map orders (:func:`keyengine.least_periods`).
    """
    fs = intpoly.exponent_tuple(fs).components
    orders = map_orders(sys)
    if len(fs) != len(orders):
        raise ArityMismatch(f"{len(fs)} polynomials for {len(orders)} maps")
    return keyengine.least_periods(fs, lattice.diagonal(orders))


class ResidueVerdict(NamedTuple):
    """Exact description of a threshold set as residue classes.

    z belongs to the set iff (z_1 mod N_1, ..., z_n mod N_n) is in
    ``members``, N = ``period`` the minimal per-coordinate periods.  ``rows``
    holds (residue, exponents, return measure) for every point of that
    grid, in lexicographic order; the exponents are the exact values
    f_i(residue), not reduced.
    """

    period: Tuple[int, ...]
    members: FrozenSet[Tuple[int, ...]]
    epsilon: Fraction
    mu_a: Fraction
    mu_a_sq: Fraction
    rows: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], Fraction], ...] = ()


def _exponent_rows(fs: Sequence[BinPoly], period: Sequence[int]):
    """(z, (f_1(z), ..., f_m(z))) for every z of the grid, in lexicographic order.

    For each prefix p of the first n - 1 coordinates, t -> f_i(p, t) has
    binomial coordinate c_j = sum over the terms of f_i with last index j
    of coef * prod_l C(p_l, idx_l), read off f_i's own coordinates without
    evaluating it.  These are its forward differences at t = 0: the k-th
    one (k its degree in the last variable) is constant, and each lower one
    is the running sum of the one above.
    """
    *head, last = period
    depths = [intpoly.degree_in_vars(f, [len(period) - 1]) for f in fs]
    for prefix in product(*(range(p) for p in head)):
        columns = []
        for f, k in zip(fs, depths):
            leading = [0] * (k + 1)
            for idx, coef in f.terms:
                leading[idx[-1]] += coef * math.prod(map(math.comb, prefix, idx))
            column = [leading.pop()] * last
            while leading:
                column = list(accumulate(column[: last - 1], initial=leading.pop()))
            columns.append(column)
        for t, exps in enumerate(zip(*columns)):
            yield prefix + (t,), exps


def r_epsilon(
    sys: FiniteSystem, query: RecurrenceQuery, cap: int = SWEEP_CAP
) -> ResidueVerdict:
    """All residues whose return measure clears mu(A)^2 - eps, exactly.

    Sweeps the minimal period grid (:func:`system_period`) once; a grid of
    more than ``cap`` points is refused with :class:`SweepCapExceeded`.  The
    exponents come from forward differences along the last axis
    (:func:`_exponent_rows`).  As T_i^{order_i} = id, each return measure is
    computed once per tuple (e_i mod order_i), then looked up.
    """
    period = system_period(sys, query.fs)
    if math.prod(period) > cap:
        raise SweepCapExceeded(f"period grid needs {math.prod(period)} points, cap is {cap}")
    orders = map_orders(sys)
    A = sorted(query.A)
    mu_a = sys.measure(A)
    measures: Dict[Tuple[int, ...], Fraction] = {}
    rows = []
    for z, exps in _exponent_rows(query.fs, period):
        key = tuple(map(operator.mod, exps, orders))
        if key not in measures:
            measures[key] = return_measure(sys, A, key)
        rows.append((z, exps, measures[key]))
    threshold = mu_a * mu_a - query.epsilon
    return ResidueVerdict(
        period=period,
        members=frozenset(z for z, _, value in rows if value >= threshold),
        epsilon=query.epsilon,
        mu_a=mu_a,
        mu_a_sq=mu_a * mu_a,
        rows=tuple(rows),
    )


class KhintchineReport(NamedTuple):
    sup_value: Fraction
    bound: Fraction
    holds: bool
    witness_residue: Tuple[int, ...]
    period: Tuple[int, ...]


def verify_khintchine(sys: FiniteSystem, query: RecurrenceQuery) -> KhintchineReport:
    """Return measure on the period lattice, against mu(A)^2.

    The period lattice is N_1 Z x ... x N_n Z, N the minimal periods that
    :func:`system_period` decides: f_i(z + N_j e_j) - f_i(z) lies in
    order_i * Z for every z, and f_i(0) = 0, so on that lattice every
    exponent is divisible by its map's order and acts as the identity.  The
    return measure is therefore mu(A) >= mu(A)^2 at every lattice point and
    is read once, at the origin; a failing verdict signals an implementation
    bug, not a property of the system.
    """
    period = system_period(sys, query.fs)
    mu_a = sys.measure(sorted(query.A))
    value = return_measure(sys, sorted(query.A), [0] * len(query.fs))
    return KhintchineReport(
        sup_value=value,
        bound=mu_a * mu_a,
        holds=value >= mu_a * mu_a,
        witness_residue=(0,) * query.fs[0].nvars,
        period=period,
    )


class WindowStructure(NamedTuple):
    ip_star: ipstruct.IpStarVerdict
    gap: Optional[int]
    horizon: int


def ip_star_verdict(verdict: ResidueVerdict, k: int, window: int) -> WindowStructure:
    """Window check of the residue set: meets every subset-sum family, gaps.

    The residue classes are lifted to the explicit positive values
    {t in [1, horizon] : (t mod N_1, ..., t mod N_n) in members} (the
    diagonal embedding; for one variable this is just the set itself), with
    horizon = max(window * k, 2 * lcm(N_1, ..., N_n)): the lift has period
    lcm(N), so the window holds at least two of its periods.  The caps of
    :func:`ipstruct.is_ip_star_window` are checked before the lift is built.
    """
    ipstruct.check_window(k, window)
    horizon = max(window * k, 2 * math.lcm(*verdict.period))
    values = {
        t
        for t in range(1, horizon + 1)
        if tuple(t % p for p in verdict.period) in verdict.members
    }
    ip = ipstruct.is_ip_star_window(values, k, window)
    gap = ipstruct.syndetic_gap(values, 1, horizon)
    return WindowStructure(ip_star=ip, gap=gap, horizon=horizon)


def residue_table(verdict: ResidueVerdict) -> str:
    """Aligned text table of the rows :func:`r_epsilon` recorded: residue,
    exponents, return measure, threshold, verdict.  Nothing is evaluated."""
    threshold = str(verdict.mu_a_sq - verdict.epsilon)
    rows = [("residue", "exponents", "return measure", "threshold", "verdict")]
    for z, exps, value in verdict.rows:
        rows.append(
            (
                ",".join(map(str, z)),
                ",".join(map(str, exps)),
                str(value),
                threshold,
                "holds" if z in verdict.members else "fails",
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)
