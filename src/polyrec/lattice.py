"""Exact algebra of finitely generated subgroups of Z^n.

A subgroup is stored by its column Hermite normal form: columns ordered by
strictly increasing pivot row, pivot entries positive, entries to the left
of a pivot reduced into [0, pivot), zero columns dropped.  The form is
unique per subgroup, so equality, hashing, and serialization are structural.
All arithmetic is exact; scale is desk-sized (no reduction algorithms).
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import ArityMismatch
from .numutil import ext_gcd

Vector = Tuple[int, ...]


class Lattice(NamedTuple):
    """Subgroup of Z^ambient, basis columns in canonical Hermite form;
    ``pivot_rows[j]`` is the row of column j's first nonzero entry."""

    ambient: int
    basis: Tuple[Vector, ...]
    pivot_rows: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        return contains(self, v)


def _combine_columns(a: List[int], b: List[int], row: int) -> None:
    """Unimodular column operation: after it, a[row] = gcd >= 0, b[row] = 0."""
    g, x, y = ext_gcd(a[row], b[row])
    pa, pb = a[row] // g, b[row] // g
    for i in range(len(a)):
        ai, bi = a[i], b[i]
        a[i] = x * ai + y * bi
        b[i] = -pb * ai + pa * bi


def hnf_from_generators(ambient: int, gens: Sequence[Sequence[int]]) -> Lattice:
    """Canonical lattice generated by the given integer vectors.

    An empty generator list (or all-zero generators) yields the zero
    lattice of rank 0.
    """
    if ambient < 1:
        raise ArityMismatch(f"ambient dimension must be positive, got {ambient}")
    work: List[List[int]] = []
    for g in gens:
        col = [int(e) for e in g]
        if len(col) != ambient:
            raise ArityMismatch(f"generator {tuple(g)} has length {len(col)}, expected {ambient}")
        if any(col):
            work.append(col)

    pivots: List[Tuple[int, List[int]]] = []
    for row in range(ambient):
        if not work:
            break
        carrier = None
        for col in work:
            if col[row]:
                if carrier is None:
                    carrier = col
                else:
                    _combine_columns(carrier, col, row)
        if carrier is not None:
            work.remove(carrier)
            if carrier[row] < 0:
                carrier[:] = [-e for e in carrier]
            pivots.append((row, carrier))

    cols = [col for _, col in pivots]
    for j, (r, cj) in enumerate(pivots):
        p = cj[r]
        for k in range(j):
            q = cols[k][r] // p
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cj)]
    return Lattice(ambient, tuple(tuple(c) for c in cols), tuple(r for r, _ in pivots))


def zero_lattice(ambient: int) -> Lattice:
    return hnf_from_generators(ambient, [])


def full_lattice(ambient: int) -> Lattice:
    return diagonal([1] * ambient)


def diagonal(steps: Sequence[int]) -> Lattice:
    """The lattice steps[0] * Z x ... x steps[-1] * Z."""
    if any(step < 1 for step in steps):
        raise ArityMismatch(f"diagonal steps must be positive, got {tuple(steps)}")
    n = len(steps)
    cols = tuple(tuple(s if i == j else 0 for i in range(n)) for j, s in enumerate(steps))
    return Lattice(n, cols, tuple(range(n)))


def index(lat: Lattice) -> Optional[int]:
    """Group index in Z^ambient: the pivot product, or None when infinite."""
    if lat.rank < lat.ambient:
        return None
    out = 1
    for r, col in zip(lat.pivot_rows, lat.basis):
        out *= col[r]
    return out


def _order(lat: Lattice, v: Sequence[int]) -> Optional[int]:
    """Least N >= 1 with N * v in the lattice; None if v is off its span.

    Walks the pivot rows in integers, carrying N times what is left of v.
    At a pivot p that does not divide the residual entry x, N and the rest
    of the residual are scaled by p / gcd(x, p), the least factor after
    which p divides x.  The basis is independent, so the rational
    coefficients of v on it are fixed, and N ends as the lcm of their
    denominators.  A non-integer entry raises :class:`TypeError`.
    """
    if len(v) != lat.ambient:
        raise ArityMismatch(f"vector has length {len(v)}, expected {lat.ambient}")
    residual = [operator.index(e) for e in v]
    multiple = 1
    for r, col in zip(lat.pivot_rows, lat.basis):
        x, p = residual[r], col[r]
        if x % p:
            step = p // math.gcd(x, p)
            multiple *= step
            residual[r:] = [step * e for e in residual[r:]]
            x = residual[r]
        q = x // p
        if q:
            for i in range(r, lat.ambient):
                residual[i] -= q * col[i]
    return None if any(residual) else multiple


def contains(lat: Lattice, v: Sequence[int]) -> bool:
    """Whether v is an integer combination of the basis columns."""
    return _order(lat, v) == 1


def smallest_multiple(lat: Lattice, v: Sequence[int]) -> Optional[int]:
    """Minimal N >= 1 with N * v in the lattice; None if v is off the span.
    This is the package's one test of "v lies in the rational span"."""
    return _order(lat, v)


def to_json(lat: Lattice) -> dict:
    return {"ambient": lat.ambient, "basis": [list(col) for col in lat.basis]}


def from_json(obj) -> Lattice:
    return hnf_from_generators(int(obj["ambient"]), obj["basis"])
