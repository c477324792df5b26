"""Finite combinatorics of subset sums.

Finite generator families and their subset sums, monochromatic subset-sum
search on a bounded window, and exhaustive window verdicts for the "meets
every subset-sum family" property together with gap bounds.  Generator
values are positive integers.  Both searches charge the ``--cap`` work
budget (:func:`charge_search`) before they visit a tuple.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, combinations_with_replacement
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import SWEEP_CAP, ArityMismatch, charge


def fs_expand(generators: Tuple[int, ...]) -> FrozenSet[int]:
    """All nonempty-subset sums of a finite family of positive generators,
    repetition allowed (duplicate sums collapse)."""
    if not generators:
        raise ArityMismatch("need at least one generator")
    if any(g < 1 for g in generators):
        raise ArityMismatch(f"generators must be positive: {generators}")
    sums = {0}
    for g in generators:
        sums |= {s + g for s in sums}
    sums.discard(0)
    return frozenset(sums)


def charge_search(k: int, window: int, cap: int, repeated: bool) -> None:
    """Charge a search over k-tuples from 1..W: the C(W, k) strictly increasing
    tuples, or with ``repeated`` the C(W + k - 1, k) non-decreasing ones,
    times the 2^k subset sums each expands (:func:`errors.charge`).  When
    there is a tuple and 2^k alone is over the cap, the lower bound
    2^cap.bit_length() is charged before either factor is computed."""
    if k < 1 or window < 1:
        raise ArityMismatch(f"need k >= 1 and W >= 1, got k = {k}, W = {window}")
    tuples = f"{'non-decreasing' if repeated else 'increasing'} {k}-tuples in 1..{window}"
    bits = cap.bit_length()
    if k >= bits and (repeated or k <= window):
        charge(1 << bits, cap, f"{tuples} and 2^{k} subset sums each charge at least 2^{bits}")
    count = math.comb(window + k - 1 if repeated else window, k)
    charge(count << k, cap, f"{count} {tuples} and 2^{k} subset sums each charge {count << k}")


def find_monochromatic_fs(
    coloring: Mapping[int, object], k: int, cap: int = SWEEP_CAP
) -> Optional[Tuple[int, ...]]:
    """Least strictly increasing generators with a one-color subset-sum set.

    ``coloring`` maps 1..W to colors.  The search runs over strictly
    increasing tuples (s_1 < ... < s_k) in lexicographic order and returns
    the first whose full subset-sum set stays inside 1..W and is
    monochromatic; None when the window has no witness.  A tuple's total is
    its largest subset sum, so a tuple totalling more than W is not expanded.
    """
    w = len(coloring)
    if set(coloring) != set(range(1, w + 1)):
        raise ArityMismatch("coloring must cover exactly 1..W")
    charge_search(k, w, cap, repeated=False)
    for gens in combinations(range(1, w + 1), k):
        if sum(gens) <= w and len({coloring[s] for s in fs_expand(gens)}) == 1:
            return gens
    return None


class IpStarVerdict(NamedTuple):
    holds: bool
    witness: Optional[Tuple[int, ...]]


def is_ip_star_window(s: Iterable[int], k: int, window: int, cap: int = SWEEP_CAP) -> IpStarVerdict:
    """Does S meet the subset sums of *every* generator tuple in {1..W}^k?

    Repeated generators are allowed.  Fails with the lexicographically
    least counterexample tuple.  The verdict is a statement about the
    stated window only.  Sorting a tuple keeps its subset sums and does not
    raise it lexicographically, so the least counterexample is
    non-decreasing and only non-decreasing tuples are visited.
    """
    charge_search(k, window, cap, repeated=True)
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
