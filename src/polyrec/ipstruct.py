"""Finite combinatorics of subset sums.

Subset sums of finite generator families (positive integers), and two
searches on a bounded window that are one least-tuple walk
(:func:`_least_tuple`), charged with the sums it forms: the monochromatic
subset-sum search, and the verdict and gap of a periodic set meeting every
subset-sum family.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Set, Tuple

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


def _least_tuple(k: int, top: int, repeated: bool, modulus: int, allowed, cap: int):
    """The lexicographically least k-tuple (s_1, ...) from 1..top,
    non-decreasing if ``repeated``, else strictly increasing, whose subset
    sums mod ``modulus`` all lie in the set ``allowed(s_1)``; or None.

    An iterative depth-first walk (k may be huge) that carries each
    prefix's sums and drops a prefix once they leave the set.  Extending a
    prefix by g forms g and g plus each of its sums; the sums formed so far
    are charged before each extension (:func:`errors.charge`).  An
    increasing prefix leaves at least as many values as slots after it.
    """
    if k < 1 or top < 1:
        raise ArityMismatch(f"need k >= 1 and W >= 1, got k = {k}, W = {top}")
    order = "non-decreasing" if repeated else "increasing"
    tup, stack, formed, g = [], [frozenset()], 0, 1
    while True:
        if g > top - (0 if repeated else k - 1 - len(tup)):
            if not tup:
                return None
            stack.pop()
            g = tup.pop() + 1
            continue
        formed += len(stack[-1]) + 1
        if formed > cap:  # the phrase is built for the refusal only
            charge(formed, cap, f"{order} {k}-tuples in 1..{top} form {formed} subset sums so far")
        sums = {g % modulus, *((s + g) % modulus for s in stack[-1])}
        if not sums <= allowed(tup[0] if tup else g):
            g += 1
        elif len(tup) == k - 1:
            return (*tup, g)
        else:
            tup.append(g)
            stack.append(stack[-1] | sums)
            g += not repeated


def find_monochromatic_fs(coloring: Mapping[int, object], k: int,
                          cap: int = SWEEP_CAP) -> Optional[Tuple[int, ...]]:
    """The lexicographically least s_1 < ... < s_k whose subset sums all lie
    in s_1's color class of ``coloring`` (1..W -> colors), or None
    (:func:`_least_tuple`; the sum of two values in 1..W is its own residue
    mod 2W + 1)."""
    w = len(coloring)
    if set(coloring) != set(range(1, w + 1)):
        raise ArityMismatch("coloring must cover exactly 1..W")
    classes: Dict[object, Set[int]] = {}
    for s, color in coloring.items():
        classes.setdefault(color, set()).add(s)
    return _least_tuple(k, w, False, 2 * w + 1, lambda g: classes[coloring[g]], cap)


class IpStarVerdict(NamedTuple):
    holds: bool
    witness: Optional[Tuple[int, ...]]


def is_ip_star_window(residues: Iterable[int], modulus: int, k: int, window: int,
                      cap: int = SWEEP_CAP) -> IpStarVerdict:
    """Does {t : t mod L in R} meet the subset sums of *every* tuple in
    {1..W}^k?  R = ``residues``, L = ``modulus``.  Fails with the
    lexicographically least counterexample.  Sorting a tuple, or trading an
    entry above L for the one of its residue in 1..L, keeps its sums mod L
    and does not raise it, so only non-decreasing tuples in 1..min(W, L)
    are visited (:func:`_least_tuple`); with 0 in R and k >= L none is, since
    any L integers have a nonempty subset summing to 0 mod L (pigeonhole)."""
    free = set(range(modulus)).difference(residues)
    if 0 not in free and k >= modulus >= 1 and window >= 1:
        return IpStarVerdict(True, None)
    witness = _least_tuple(k, min(window, modulus), True, modulus, lambda g: free, cap)
    return IpStarVerdict(witness is None, witness)


def syndetic_gap(residues: Iterable[int], modulus: int, horizon: int) -> Optional[int]:
    """Largest gap of {t in 1..horizon : t mod L in R} (L = ``modulus``, R =
    ``residues`` in 0..L-1), counting the distance in from both ends; None
    when R is empty.  Every cyclic gap of R lies inside 1..horizon >= 2L."""
    if horizon < 2 * modulus:
        raise ArityMismatch(f"need horizon >= 2 * {modulus}, got {horizon}")
    elems = sorted(set(residues))
    if not elems:
        return None
    first = next(filter(None, elems), modulus)
    last = max(horizon - (horizon - r) % modulus for r in elems)
    cyclic = (b - a for a, b in zip(elems, elems[1:] + [elems[0] + modulus]))
    return max(first - 1, *cyclic, horizon - last)


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
