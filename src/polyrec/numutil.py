"""Small exact-integer helpers used throughout the package."""

from __future__ import annotations

import math
from typing import Iterator, Tuple


def lcm_upto(d: int) -> int:
    """lcm(1, 2, ..., d); equals 1 for d <= 1."""
    out = 1
    for t in range(2, d + 1):
        out = math.lcm(out, t)
    return out


def ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail

