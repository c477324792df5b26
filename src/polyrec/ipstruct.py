"""Finite combinatorics of subset sums.

Finite generator families and their subset sums, monochromatic subset-sum
search on a bounded window, and exhaustive window verdicts for the "meets
every subset-sum family" property together with gap bounds.  Generator
values are positive integers.
"""

from __future__ import annotations

import json
from itertools import combinations, combinations_with_replacement
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import ArityMismatch, CapExceeded

MAX_GENERATORS = 20  # subset-sum expansion bound (2^k sums)
MAX_WINDOW = 12  # exhaustive window searches
MAX_TUPLE_LEN = 4  # generator-tuple length in exhaustive sweeps


def fs_expand(generators: Tuple[int, ...]) -> FrozenSet[int]:
    """All nonempty-subset sums of a finite family of positive generators,
    repetition allowed (duplicate sums collapse)."""
    if not generators:
        raise ArityMismatch("need at least one generator")
    if any(g < 1 for g in generators):
        raise ArityMismatch(f"generators must be positive: {generators}")
    k = len(generators)
    if k > MAX_GENERATORS:
        raise CapExceeded(f"{k} generators exceed the expansion cap {MAX_GENERATORS}")
    sums = {0}
    for g in generators:
        sums |= {s + g for s in sums}
    sums.discard(0)
    return frozenset(sums)


def find_monochromatic_fs(coloring: Mapping[int, object], k: int) -> Optional[Tuple[int, ...]]:
    """Least strictly increasing generators with a one-color subset-sum set.

    ``coloring`` maps 1..W to colors.  The search runs over strictly
    increasing tuples (s_1 < ... < s_k) in lexicographic order and returns
    the first whose full subset-sum set stays inside 1..W and is
    monochromatic; None when the window has no witness.
    """
    w = _coloring_window(coloring)
    check_window(k, w)
    for gens in combinations(range(1, w + 1), k):
        sums = fs_expand(gens)
        if max(sums) > w:
            continue
        colors = {coloring[s] for s in sums}
        if len(colors) == 1:
            return gens
    return None


def _coloring_window(coloring: Mapping[int, object]) -> int:
    w = len(coloring)
    if w < 1 or set(coloring) != set(range(1, w + 1)):
        raise ArityMismatch("coloring must cover exactly 1..W")
    return w


def check_window(k: int, window: int) -> None:
    """Refuse a window or tuple length beyond the exhaustive-search caps."""
    if window < 1 or window > MAX_WINDOW:
        raise CapExceeded(f"window {window} outside 1..{MAX_WINDOW}")
    if k < 1 or k > MAX_TUPLE_LEN:
        raise CapExceeded(f"tuple length {k} outside 1..{MAX_TUPLE_LEN}")


class IpStarVerdict(NamedTuple):
    holds: bool
    witness: Optional[Tuple[int, ...]]


def is_ip_star_window(s: Iterable[int], k: int, window: int) -> IpStarVerdict:
    """Does S meet the subset sums of *every* generator tuple in {1..W}^k?

    Repeated generators are allowed.  Fails with the lexicographically
    least counterexample tuple.  The verdict is a statement about the
    stated window only.  Sorting a tuple keeps its subset sums and does not
    raise it lexicographically, so the least counterexample is
    non-decreasing and only non-decreasing tuples are visited.
    """
    check_window(k, window)
    members = frozenset(int(x) for x in s)
    for tup in combinations_with_replacement(range(1, window + 1), k):
        if not (fs_expand(tup) & members):
            return IpStarVerdict(False, tup)
    return IpStarVerdict(True, None)


def syndetic_gap(s: Iterable[int], lo: int, hi: int) -> Optional[int]:
    """Largest gap of S inside [lo, hi], counting the distance in from both
    ends; None when S misses the interval entirely."""
    if lo >= hi:
        raise ArityMismatch(f"need lo < hi, got [{lo}, {hi}]")
    elems = sorted(x for x in set(s) if lo <= x <= hi)
    if not elems:
        return None
    gaps = [elems[0] - lo]
    gaps.extend(b - a for a, b in zip(elems, elems[1:]))
    gaps.append(hi - elems[-1])
    return max(gaps)


def coloring_from_json(obj: Mapping) -> Dict[int, str]:
    """{"W": int, "colors": [c_1, ..., c_W]} -> mapping 1..W -> color.

    Each color is keyed by its JSON text, so two colors match only when
    their texts are equal: true, 1 and 1.0 are three colors, although
    Python compares them equal.
    """
    w = int(obj["W"])
    colors = list(obj["colors"])
    if len(colors) != w:
        raise ArityMismatch(f"expected {w} colors, got {len(colors)}")
    return {i + 1: json.dumps(c) for i, c in enumerate(colors)}
