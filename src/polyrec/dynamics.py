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
differences along the last axis.  Each exponent key (e_i mod order_i) is
decided once, the first time the sweep meets it: its return measure, and
whether that clears the threshold.  A grid point then carries only the
index of its key, so the residue table formats each key's measure and
verdict once.  Each return measure moves every point of A e_i places
along its cycle of each T_i, read off the table that :func:`build_system`
builds once: |A| * m integer steps.
All measures are rationals; there is no floating point anywhere in this
module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, compress, product, starmap
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

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

    ``maps[i]`` sends point index x to its image index, ``index`` a point id
    to its index.  The weight of x is ``mass[x] / denominator``; weights sum
    to 1 and every map preserves them.  ``cycles[i]`` lists the cycles of
    map i; T_i^e x = cycle[(position + e) % len(cycle)] for any integer e,
    where ``place[i][x] = (cycle, position)``.
    """

    points: Tuple[str, ...]
    maps: Tuple[Tuple[int, ...], ...]
    index: Dict[str, int]
    mass: Tuple[int, ...]
    denominator: int
    cycles: Tuple[Tuple[Tuple[int, ...], ...], ...]
    place: Tuple[Tuple[Tuple[Tuple[int, ...], int], ...], ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def num_maps(self) -> int:
        return len(self.maps)

    def indices(self, subset: Iterable[str]) -> Set[int]:
        """The indices of ``subset``; the least unknown point, if any, raises."""
        subset = set(subset)
        unknown = subset.difference(self.index)
        if unknown:
            raise UnknownPoint(f"point {min(unknown)!r} is not part of the system")
        return {self.index[p] for p in subset}

    def measure(self, subset: Iterable[str]) -> Fraction:
        return Fraction(sum(self.mass[x] for x in self.indices(subset)), self.denominator)


def _cycle_table(perm: Sequence[int]):
    """(cycles of perm, (cycle, position) of every point)."""
    cycles, place = [], [None] * len(perm)
    for start in range(len(perm)):
        if place[start] is None:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            cycles.append(tuple(cycle))
            for i, x in enumerate(cycle):
                place[x] = (cycles[-1], i)
    return tuple(cycles), tuple(place)


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
                    raise NotCommuting(f"maps {i} and {j} disagree at point {pts[x]!r}")
    denominator = math.lcm(*(w.denominator for w in wts))
    mass = tuple(w.numerator * (denominator // w.denominator) for w in wts)
    cycles, place = zip(*map(_cycle_table, perms)) if perms else ((), ())
    return FiniteSystem(pts, tuple(perms), pos, mass, denominator, cycles, place)


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


def _moved(sys: FiniteSystem, xs: Iterable[int], exps: Sequence[int]) -> List[int]:
    """T_1^{e_1} ... T_m^{e_m} x for each x of xs, read off the cycle table."""
    for place, e in zip(sys.place, exps):
        xs = [cycle[(i + e) % len(cycle)] for cycle, i in map(place.__getitem__, xs)]
    return list(xs)


def return_measure(sys: FiniteSystem, A: Sequence[str], exps: Sequence[int]) -> Fraction:
    """Exact mu(A intersect T_1^{-e_1} ... T_m^{-e_m} A), in |A| * m steps: the
    mass of the points T^e x, x in A, that land in A (T^e x weighs what x does)."""
    if len(exps) != sys.num_maps:
        raise ArityMismatch(f"{len(exps)} exponents for {sys.num_maps} maps")
    idxs = sys.indices(A)
    hits = [y for y in _moved(sys, idxs, exps) if y in idxs]
    return Fraction(sum(map(sys.mass.__getitem__, hits)), sys.denominator)


def map_orders(sys: FiniteSystem) -> Tuple[int, ...]:
    return tuple(math.lcm(*map(len, cycles)) for cycles in sys.cycles)


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
    holds (residue, exponents, key) for every point of that grid, in
    lexicographic order; the exponents are the exact values f_i(residue),
    not reduced, and key numbers the exponent key (e_i mod order_i) in the
    order the sweep first met it.  ``values[key]`` is that key's return
    measure and ``holds[key]`` whether it clears mu(A)^2 - eps, so a
    residue is a member iff its key holds.
    """

    period: Tuple[int, ...]
    members: FrozenSet[Tuple[int, ...]]
    epsilon: Fraction
    mu_a: Fraction
    mu_a_sq: Fraction
    rows: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...] = ()
    values: Tuple[Fraction, ...] = ()
    holds: Tuple[bool, ...] = ()


def _exponent_lines(fs: Sequence[BinPoly], period: Sequence[int]):
    """The grid one line at a time, in lexicographic order: for each prefix p
    of the first n - 1 coordinates, the points (p, t), t = 0 .. N_n - 1, and
    the columns t -> f_i(p, t), one per f_i.

    t -> f_i(p, t) has binomial coordinate c_j = sum over the terms of f_i
    with last index j of coef * prod_l C(p_l, idx_l), read off f_i's own
    coordinates without evaluating it.  These are its forward differences
    at t = 0: the k-th one (k its degree in the last variable) is constant,
    and each lower one is the running sum of the one above.
    """
    *head, last = period
    depths = [intpoly.degree_in_vars(f, [len(period) - 1]) for f in fs]
    tails = [(t,) for t in range(last)]
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
        yield [prefix + t for t in tails], columns


def r_epsilon(
    sys: FiniteSystem, query: RecurrenceQuery, cap: int = SWEEP_CAP
) -> ResidueVerdict:
    """All residues whose return measure clears mu(A)^2 - eps, exactly.

    Sweeps the minimal period grid (:func:`system_period`) once.  The
    exponents come from forward differences along the last axis, and the
    keys (e_i mod order_i) of a whole line at once (:func:`_exponent_lines`).
    As T_i^{order_i} = id, each key gets its return measure and its verdict
    once, the first time it is met; a grid point records only its key's
    index.  Past ``cap`` grid points plus |A| * m steps per measure,
    :class:`SweepCapExceeded` is raised; the grid alone is checked before
    the sweep.
    """
    period = system_period(sys, query.fs)
    grid = math.prod(period)
    if grid > cap:
        raise SweepCapExceeded(f"period grid needs {grid} points, cap is {cap}")
    orders = map_orders(sys)
    A = sorted(query.A)
    mu_a = sys.measure(A)
    threshold = mu_a * mu_a - query.epsilon
    keys: Dict[Tuple[int, ...], int] = {}
    values: List[Fraction] = []
    holds: List[bool] = []
    rows, members = [], []
    for zs, columns in _exponent_lines(query.fs, period):
        line = list(zip(*[[e % o for e in column] for column, o in zip(columns, orders)]))
        for key in dict.fromkeys(line):
            if key not in keys:
                keys[key] = len(keys)
                steps = len(keys) * len(A) * len(orders)
                if grid + steps > cap:
                    raise SweepCapExceeded(f"period grid needs {grid} points and its return "
                                           f"measures {steps} steps so far, cap is {cap}")
                values.append(return_measure(sys, A, key))
                holds.append(values[-1] >= threshold)
        ks = list(map(keys.__getitem__, line))
        rows += zip(zs, zip(*columns), ks)
        members += compress(zs, map(holds.__getitem__, ks))
    return ResidueVerdict(
        period=period,
        members=frozenset(members),
        epsilon=query.epsilon,
        mu_a=mu_a,
        mu_a_sq=mu_a * mu_a,
        rows=tuple(rows),
        values=tuple(values),
        holds=tuple(holds),
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


def _width(header: str, cells: Sequence[str]) -> int:
    return max([len(header), *map(len, cells)])


def _commas(n: int):
    """Format n values separated by commas, as ",".join(map(str, values))."""
    return ",".join(["{}"] * n).format


def residue_table(verdict: ResidueVerdict) -> str:
    """Aligned text table of the rows :func:`r_epsilon` recorded: residue,
    exponents, return measure, threshold, verdict.  Nothing is evaluated.

    A row holds (residue, exponents, key), and the key indexes the per-key
    ``values`` and ``holds``.  So each key's measure, threshold and verdict
    are formatted once, into the tail its rows share, and each line is one
    format of its residue, its exponents and that tail.
    """
    rows = verdict.rows
    threshold = str(verdict.mu_a_sq - verdict.epsilon)
    residues = list(starmap(_commas(len(verdict.period)), map(operator.itemgetter(0), rows)))
    exponents = list(starmap(_commas(len(rows[0][1]) if rows else 0), map(operator.itemgetter(1), rows)))
    values = list(map(str, verdict.values))
    tail = "{:<%d}  {:<%d}  {}" % (_width("return measure", values), _width("threshold", [threshold]))
    tails = [tail.format(v, threshold, "holds" if h else "fails") for v, h in zip(values, verdict.holds)]
    row = "{:<%d}  {:<%d}  {}" % (_width("residue", residues), _width("exponents", exponents))
    header = row.format("residue", "exponents", tail.format("return measure", "threshold", "verdict"))
    lines = map(row.format, residues, exponents, map(tails.__getitem__, map(operator.itemgetter(2), rows)))
    return "\n".join([header, *lines])
