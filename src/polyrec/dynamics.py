"""Exact recurrence verification on finite measure-preserving systems.

A system is a finite weighted probability space together with commuting
weight-preserving bijections T_1, ..., T_m.  For integer-valued polynomials
f_i vanishing at the origin, the return measure

    z  |->  mu(A intersect T_1^{-f_1(z)} ... T_m^{-f_m(z)} A)

depends only on the residues f_i(z) mod order_i, the orders of the maps.
Those residues are periodic in each coordinate j of z, with a least period
N_j that divides q * lcm(1..d) (q the lcm of the orders, d the max degree):
the lcm of the least periods of each f_i modulo its own order_i, decided
from binomial coordinates (:func:`keyengine.cyclic_periods`).
The sets where the return measure clears the threshold mu(A)^2 - eps are
therefore computed *exactly* as unions of residue classes, in one pass over
the minimal period grid that sums the exponents up from forward
differences along the last axis.  Each exponent key (e_i mod order_i) is
decided once, the first time the sweep meets it: its return measure, and
whether that clears the threshold.  A grid point then carries only the
index of its key, in grid order (:func:`grid`); the residue table sums the
exponents up again with the same sweep, and formats each key's measure and
verdict once.  Each return measure moves every point of A e_i places along
its cycle of each T_i, read off the table that :func:`build_system` builds
once: |A| * m integer steps.
All measures are rationals; there is no floating point anywhere in this
module.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, compress, product, starmap
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from . import intpoly, ipstruct, keyengine
from .errors import (
    ArityMismatch,
    NotBijective,
    NotCommuting,
    NotMeasurePreserving,
    SWEEP_CAP,
    UnknownPoint,
    WeightsNotNormalized,
    charge,
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
    cap: int = SWEEP_CAP,
) -> FiniteSystem:
    """Validate and build a system; every invariant is checked eagerly.

    Each map is a list of images aligned with ``points``.  Raises with a
    concrete witness on any violation.  Commutation is charged and checked
    per pair of distinct maps (first occurrences), which holds the first
    disagreeing pair of all maps.
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
    stray = min((str(k) for k in weights if k not in pos), default=None)
    if stray is not None:
        raise UnknownPoint(f"weight given for unknown point {stray!r}")

    perms: List[Tuple[int, ...]] = []
    first: Dict[Tuple[int, ...], int] = {}
    for mi, images in enumerate(maps):
        if len(images) != len(pts):
            raise NotBijective(f"map {mi} does not assign an image to every point")
        try:
            perm = tuple(pos[str(img)] for img in images)
        except KeyError as exc:
            raise UnknownPoint(f"map {mi} sends a point to unknown {exc.args[0]!r}") from None
        if len(set(perm)) != len(perm):
            counts = Counter(perm)
            dup = next(p for p in perm if counts[p] > 1)
            raise NotBijective(f"map {mi} is not a bijection: {pts[dup]!r} hit twice")
        for x in range(len(pts)):
            if wts[perm[x]] != wts[x]:
                raise NotMeasurePreserving(
                    f"map {mi} moves mass at {pts[x]!r}: {wts[x]} -> {wts[perm[x]]}"
                )
        perms.append(perm)
        first.setdefault(perm, mi)

    pairs = len(first) * (len(first) - 1) // 2
    charge(pairs * len(pts), cap, f"{pairs} pairs of distinct maps at {len(pts)} points "
           f"charge {pairs * len(pts)}")
    for (p, i), (q, j) in combinations(first.items(), 2):
        for x in range(len(pts)):
            if p[q[x]] != q[p[x]]:
                raise NotCommuting(f"maps {i} and {j} disagree at point {pts[x]!r}")
    denominator = math.lcm(*(w.denominator for w in wts))
    mass = tuple(w.numerator * (denominator // w.denominator) for w in wts)
    cycles, place = zip(*map(_cycle_table, perms)) if perms else ((), ())
    return FiniteSystem(pts, tuple(perms), pos, mass, denominator, cycles, place)


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

    Each f_i is taken modulo its own map's order, once per distinct pair,
    and N_j is the lcm of those periods (:func:`keyengine.cyclic_periods`).
    """
    fs = intpoly.exponent_tuple(fs).components
    orders = map_orders(sys)
    if len(fs) != len(orders):
        raise ArityMismatch(f"{len(fs)} polynomials for {len(orders)} maps")
    return keyengine.cyclic_periods(fs, orders)


def grid(period: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The residues of the period grid in grid order, which is lexicographic:
    the origin is point 0, and the last coordinate runs fastest."""
    return product(*map(range, period))


class ResidueVerdict(NamedTuple):
    """Exact description of a threshold set as residue classes.

    z belongs to the set iff the key of (z_1 mod N_1, ..., z_n mod N_n)
    holds, N = ``period`` the minimal per-coordinate periods.  For the i-th
    point of that grid (:func:`grid`), ``keys[i]`` is the index of its
    exponent key (e_i mod order_i), keys numbered in the order the sweep
    first met them.  ``values[key]`` is that key's return measure and
    ``holds[key]`` whether it clears mu(A)^2 - eps.  These are the only
    record of the set; ``fs``, the query's exponent polynomials, lets the
    residue table derive each point's exponents again.
    """

    period: Tuple[int, ...]
    epsilon: Fraction
    mu_a: Fraction
    mu_a_sq: Fraction
    fs: Tuple[BinPoly, ...] = ()
    keys: Tuple[int, ...] = ()
    values: Tuple[Fraction, ...] = ()
    holds: Tuple[bool, ...] = ()

    def members_in_grid_order(self) -> Iterator[Tuple[int, ...]]:
        """The residues of the set, in grid order."""
        return compress(grid(self.period), map(self.holds.__getitem__, self.keys))

    @property
    def members(self) -> FrozenSet[Tuple[int, ...]]:
        """The residues of the set, rebuilt on every read."""
        return frozenset(self.members_in_grid_order())


def _exponent_lines(fs: Sequence[BinPoly], period: Sequence[int]):
    """The exponents of the grid one line at a time, in grid order: for each
    prefix p of the first n - 1 coordinates, the columns t -> f_i(p, t),
    t = 0 .. N_n - 1, one per f_i.

    t -> f_i(p, t) has binomial coordinate c_j = sum over the terms of f_i
    with last index j of coef * prod_l C(p_l, idx_l), read off f_i's own
    coordinates without evaluating it.  These are its forward differences
    at t = 0: the k-th one (k its degree in the last variable) is constant,
    and each lower one is the running sum of the one above.
    """
    *head, last = period
    depths = [intpoly.degree_in_vars(f, [len(period) - 1]) for f in fs]
    for prefix in grid(head):
        columns = []
        for f, k in zip(fs, depths):
            leading = [0] * (k + 1)
            for idx, coef in f.terms:
                leading[idx[-1]] += coef * math.prod(map(math.comb, prefix, idx))
            column = [leading.pop()] * last
            while leading:
                column = list(accumulate(column[: last - 1], initial=leading.pop()))
            columns.append(column)
        yield columns


def r_epsilon(
    sys: FiniteSystem, query: RecurrenceQuery, cap: int = SWEEP_CAP
) -> ResidueVerdict:
    """All residues whose return measure clears mu(A)^2 - eps, exactly.

    Sweeps the minimal period grid (:func:`system_period`) once.  The
    exponents come from forward differences along the last axis, and the
    keys (e_i mod order_i) of a whole line at once (:func:`_exponent_lines`).
    As T_i^{order_i} = id, each key gets its return measure and its verdict
    once, the first time it is met; a grid point records only its key's
    index, and no exponent is kept.  Past ``cap`` grid points plus |A| * m
    steps per measure, :class:`SweepCapExceeded` is raised; the grid alone
    is checked before the sweep.
    """
    period = system_period(sys, query.fs)
    points = math.prod(period)
    charge(points, cap, f"period grid needs {points} points")
    orders = map_orders(sys)
    A = sorted(query.A)
    mu_a = sys.measure(A)
    threshold = mu_a * mu_a - query.epsilon
    index: Dict[Tuple[int, ...], int] = {}
    values: List[Fraction] = []
    holds: List[bool] = []
    keys: List[int] = []
    for columns in _exponent_lines(query.fs, period):
        line = list(zip(*[[e % o for e in column] for column, o in zip(columns, orders)]))
        for key in dict.fromkeys(line):
            if key not in index:
                index[key] = len(index)
                steps = len(index) * len(A) * len(orders)
                charge(points + steps, cap, f"period grid needs {points} points and its "
                       f"return measures {steps} steps so far")
                values.append(return_measure(sys, A, key))
                holds.append(values[-1] >= threshold)
        keys += map(index.__getitem__, line)
    return ResidueVerdict(
        period=period,
        epsilon=query.epsilon,
        mu_a=mu_a,
        mu_a_sq=mu_a * mu_a,
        fs=query.fs,
        keys=tuple(keys),
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


def ip_star_verdict(
    verdict: ResidueVerdict, k: int, window: int, cap: int = SWEEP_CAP
) -> WindowStructure:
    """Window check of the residue set on the diagonal: meets every
    subset-sum family, gaps.

    The diagonal {t : (t mod N_1, ..., t mod N_n) in members} is periodic
    mod L = lcm(N), so it is read as R, the t in 0..L-1 whose grid index
    (the sum over j of (t mod N_j) * N_{j+1} ... N_n) holds; the sweep was
    charged at least L points, so R is not charged.  The window is searched
    in Z/L (:func:`ipstruct.is_ip_star_window`), and the gap is taken over
    1..max(window * k, 2L) (:func:`ipstruct.syndetic_gap`).
    """
    period = verdict.period
    modulus = math.lcm(*period)
    strides = [math.prod(period[j + 1:]) for j in range(len(period))]
    residues = [t for t in range(modulus)
                if verdict.holds[verdict.keys[sum(t % n * s for n, s in zip(period, strides))]]]
    horizon = max(window * k, 2 * modulus)
    ip = ipstruct.is_ip_star_window(residues, modulus, k, window, cap=cap)
    return WindowStructure(ip, ipstruct.syndetic_gap(residues, modulus, horizon), horizon)


def residue_table(verdict: ResidueVerdict) -> str:
    """Text table of the grid :func:`r_epsilon` swept, one row per point in
    grid order: residue, exponents, return measure, threshold, verdict, the
    cells joined by single spaces.  Nothing is evaluated: the exponents are
    summed up again from the forward differences of ``verdict.fs``, line by
    line, as the sweep did (:func:`_exponent_lines`).

    The rows are formatted in one pass, straight into the join: the i-th
    row is the i-th grid point, its exponents and the tail of its key, each
    key's measure, threshold and verdict formatted once into the tail its
    points share, and each line's first n - 1 residues formatted once.  No
    column is padded, so no cell outlives its row.
    """
    threshold = str(verdict.mu_a_sq - verdict.epsilon)
    *head, last = verdict.period
    ends = list(map(str, range(last)))
    residues = (lead + t for lead in starmap(("{}," * len(head)).format, grid(head)) for t in ends)
    cells = ",".join(["{}"] * len(verdict.fs)).format
    exponents = (e for columns in _exponent_lines(verdict.fs, verdict.period)
                 for e in starmap(cells, zip(*columns)))
    tails = [f"{v} {threshold} {'holds' if h else 'fails'}" for v, h in zip(verdict.values, verdict.holds)]
    rows = map(" ".join, zip(residues, exponents, map(tails.__getitem__, verdict.keys)))
    return "\n".join(["residue exponents return measure threshold verdict", *rows])
