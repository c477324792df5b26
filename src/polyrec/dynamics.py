"""Exact recurrence verification on finite measure-preserving systems.

A system is a finite weighted probability space together with commuting
weight-preserving bijections T_1, ..., T_m.  For integer-valued polynomials
f_i vanishing at the origin, the return measure

    z  |->  mu(A intersect T_1^{-f_1(z)} ... T_m^{-f_m(z)} A)

depends only on each f_i(z) modulo the lcm q of the map orders, hence is
periodic in every coordinate of z with period q * lcm(1..d); the sets where
it clears the threshold mu(A)^2 - eps are therefore computed *exactly* as
unions of residue classes.  All measures are rationals; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import intpoly, ipstruct, keyengine, lattice
from .errors import (
    ArityMismatch,
    NonzeroConstantTerm,
    NotBijective,
    NotCommuting,
    NotMeasurePreserving,
    SweepCapExceeded,
    UnknownPoint,
    VerificationFailed,
    WeightsNotNormalized,
)
from .intpoly import BinPoly
from .keyengine import SWEEP_CAP
from .numutil import lcm_upto


@dataclass(frozen=True)
class FiniteSystem:
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


def _perm_order(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        order = math.lcm(order, length)
    return order


def _perm_power(perm: Sequence[int], e: int) -> List[int]:
    e %= _perm_order(perm)
    out = list(range(len(perm)))
    for _ in range(e):
        out = [perm[x] for x in out]
    return out


def build_system(
    points: Sequence[str],
    weights: Mapping[str, Fraction | int | str],
    maps: Sequence[Mapping[str, str] | Sequence[str]],
) -> FiniteSystem:
    """Validate and build a system; every invariant is checked eagerly.

    Maps may be given as dicts (point -> image) or as image lists aligned
    with ``points``.  Raises with a concrete witness on any violation.
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
    for mi, raw in enumerate(maps):
        if isinstance(raw, Mapping):
            images = [raw.get(p) for p in pts]
        else:
            images = list(raw)
        if len(images) != len(pts) or any(img is None for img in images):
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


def system_to_json(sys: FiniteSystem) -> dict:
    return {
        "points": list(sys.points),
        "weights": {p: str(w) for p, w in zip(sys.points, sys.weights)},
        "maps": [[sys.points[perm[i]] for i in range(sys.size)] for perm in sys.maps],
    }


@dataclass(frozen=True)
class RecurrenceQuery:
    """A target set, exponent polynomials with f_i(0) = 0, and a slack eps."""

    A: FrozenSet[str]
    fs: Tuple[BinPoly, ...]
    epsilon: Fraction


def recurrence_query(
    A: Sequence[str], fs: Sequence[BinPoly], epsilon: Fraction | int | str = 0
) -> RecurrenceQuery:
    fs = tuple(fs)
    if not fs:
        raise ArityMismatch("need at least one exponent polynomial")
    n = fs[0].nvars
    for f in fs:
        if f.nvars != n:
            raise ArityMismatch(f"mixed variable counts {n} and {f.nvars}")
        if f.constant_term() != 0:
            raise NonzeroConstantTerm(
                f"exponent polynomial has value {f.constant_term()} at the origin"
            )
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
    return tuple(_perm_order(perm) for perm in sys.maps)


def system_period(sys: FiniteSystem, fs: Sequence[BinPoly]) -> Tuple[int, ...]:
    """Per-coordinate period N of z -> (f_i(z) mod q), q = lcm of map orders.

    N = q * lcm(1..d) by binomial divisibility.  The value is re-checked
    before being returned: for each coordinate j, the differences
    f_i(z + N e_j) - f_i(z) (:func:`intpoly.shift`) must land in q * Z^m,
    which :func:`keyengine.first_escape` decides from their binomial
    coordinates.  A failure names the least pair (z, j) that breaks it.
    """
    fs = tuple(fs)
    if not fs:
        raise ArityMismatch("need at least one polynomial")
    n = fs[0].nvars
    for f in fs:
        if f.constant_term() != 0:
            raise NonzeroConstantTerm(
                f"exponent polynomial has value {f.constant_term()} at the origin"
            )
    q = math.lcm(*map_orders(sys)) if sys.num_maps else 1
    d = max(f.degree for f in fs)
    period = q * lcm_upto(d)
    target = lattice.scaled(len(fs), q)
    failures = []
    for j in range(n):
        steps = [intpoly.subtract(intpoly.shift(f, j, period), f) for f in fs]
        z = keyengine.first_escape(steps, target)
        if z is not None:
            failures.append((z, j))
    if failures:
        z, j = min(failures)
        raise VerificationFailed(
            witness=z,
            message=f"periodicity failed at {z} in coordinate {j}",
        )
    return (period,) * n


@dataclass(frozen=True)
class ResidueVerdict:
    """Exact description of a threshold set as residue classes mod N.

    z belongs to the set iff (z mod period) is in ``members``.
    """

    period: Tuple[int, ...]
    members: FrozenSet[Tuple[int, ...]]
    epsilon: Fraction
    mu_a: Fraction
    mu_a_sq: Fraction


def r_epsilon(
    sys: FiniteSystem, query: RecurrenceQuery, cap: int = SWEEP_CAP
) -> ResidueVerdict:
    """All residues whose return measure clears mu(A)^2 - eps, exactly.

    Sweeps one period grid; a grid of more than ``cap`` points is refused
    with :class:`SweepCapExceeded`.
    """
    if len(query.fs) != sys.num_maps:
        raise ArityMismatch(
            f"{len(query.fs)} polynomials for {sys.num_maps} maps"
        )
    period = system_period(sys, query.fs)
    if math.prod(period) > cap:
        raise SweepCapExceeded(f"period grid needs {math.prod(period)} points, cap is {cap}")
    mu_a = sys.measure(sorted(query.A))
    threshold = mu_a * mu_a - query.epsilon
    members = set()
    for z in product(*(range(p) for p in period)):
        exps = [f.evaluate(z) for f in query.fs]
        if return_measure(sys, sorted(query.A), exps) >= threshold:
            members.add(z)
    return ResidueVerdict(
        period=period,
        members=frozenset(members),
        epsilon=query.epsilon,
        mu_a=mu_a,
        mu_a_sq=mu_a * mu_a,
    )


@dataclass(frozen=True)
class KhintchineReport:
    sup_value: Fraction
    bound: Fraction
    holds: bool
    witness_residue: Tuple[int, ...]
    period: Tuple[int, ...]


def verify_khintchine(sys: FiniteSystem, query: RecurrenceQuery) -> KhintchineReport:
    """Return measure on the vanishing sublattice, against mu(A)^2.

    The sublattice is the one on which every exponent polynomial is
    divisible by the system modulus q; that claim is decided first
    (:func:`keyengine.first_escape_point` against q * Z^m).  There every
    exponent acts as the identity, so the return measure is mu(A) >=
    mu(A)^2 at every sublattice point and is read once, at the origin; a
    failing verdict therefore signals an implementation bug, not a property
    of the system.  The period is reported alongside.
    """
    if len(query.fs) != sys.num_maps:
        raise ArityMismatch(
            f"{len(query.fs)} polynomials for {sys.num_maps} maps"
        )
    period = system_period(sys, query.fs)
    q = math.lcm(*map_orders(sys)) if sys.num_maps else 1
    sub = keyengine.vanishing_lattice(query.fs, q)
    bad = keyengine.first_escape_point(query.fs, lattice.scaled(len(query.fs), q), sub)
    if bad is not None:
        raise VerificationFailed(
            witness=bad,
            message=f"exponents are not divisible by {q} at {bad} on the vanishing sublattice",
        )
    origin = (0,) * query.fs[0].nvars
    mu_a = sys.measure(sorted(query.A))
    # recurrence_query makes every f_i vanish at the origin
    value = return_measure(sys, sorted(query.A), [0] * len(query.fs))
    return KhintchineReport(
        sup_value=value,
        bound=mu_a * mu_a,
        holds=value >= mu_a * mu_a,
        witness_residue=origin,
        period=period,
    )


@dataclass(frozen=True)
class WindowStructure:
    ip_star: ipstruct.IpStarVerdict
    gap: Optional[int]
    horizon: int


def ip_star_verdict(verdict: ResidueVerdict, k: int, window: int) -> WindowStructure:
    """Window check of the residue set: meets every subset-sum family, gaps.

    The residue classes are lifted to the explicit positive values
    {t in [1, horizon] : (t mod N_1, ..., t mod N_n) in members} (the
    diagonal embedding; for one variable this is just the set itself), with
    horizon = max(window * k, 2 * max period) so the window sweep is
    meaningful.
    """
    horizon = max(window * k, 2 * max(verdict.period))
    values = {
        t
        for t in range(1, horizon + 1)
        if tuple(t % p for p in verdict.period) in verdict.members
    }
    ip = ipstruct.is_ip_star_window(values, k, window)
    gap = ipstruct.syndetic_gap(values, 1, horizon)
    return WindowStructure(ip_star=ip, gap=gap, horizon=horizon)


def residue_table(
    sys: FiniteSystem, query: RecurrenceQuery, verdict: ResidueVerdict
) -> str:
    """Aligned text table: residue, exponents, return measure, threshold, verdict."""
    threshold = verdict.mu_a_sq - verdict.epsilon
    rows = [("residue", "exponents", "return measure", "threshold", "verdict")]
    for z in sorted(verdict.members | _full_grid(verdict.period)):
        exps = [f.evaluate(z) for f in query.fs]
        value = return_measure(sys, sorted(query.A), exps)
        rows.append(
            (
                ",".join(map(str, z)),
                ",".join(map(str, exps)),
                str(value),
                str(threshold),
                "holds" if z in verdict.members else "fails",
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)


def _full_grid(period: Tuple[int, ...]) -> FrozenSet[Tuple[int, ...]]:
    return frozenset(product(*(range(p) for p in period)))
