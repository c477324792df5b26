"""Exact calculus of integer-valued multivariate polynomials.

A polynomial in n integer variables that takes integer values on integer
points has a unique expansion over the products
``C(z_1, i_1) * ... * C(z_n, i_n)`` of binomial coefficients, with integer
coordinates.  That expansion is the canonical representation here
(:class:`BinPoly`); integrality of values is structural, and the group
operations are coefficientwise.  Conversion from monomial coordinates and
restriction along an integer matrix go through values: :func:`interpolate`
reads the coordinates off as forward differences at the origin (Polya
1915).  Ordinary monomial coordinates with exact rational coefficients
appear only as an input form (:func:`from_monomial_coeffs`).

The central operator is :func:`delta`: the inclusion-exclusion difference

    delta(f, s)(z_1, ..., z_s) =
        sum over nonempty subsets a of {1..s} of
        (-1)^(s - |a|) * f(sum of z_i for i in a),

a polynomial over ``s * nvars`` variables, symmetric in the s blocks.  It
collapses degree-d polynomials to the constant ``(-1)^d f(0)`` at s = d + 1,
and extracts d! times the top homogeneous part on the diagonal at s = d.

It is computed in closed form rather than as 2^s - 1 substitutions.  In the
Vandermonde expansion of f(z_1 + ... + z_s), a row touching the set S of
blocks also appears in f(sum of z_i for i in a) for every a containing S,
and the signs (-1)^(s - |a|) over those a cancel unless S is every block;
for S empty the row is f(0), with total sign (-1)^(s+1).  So delta keeps
the constant (-1)^(s+1) f(0) and the rows that give every block positive
degree.  :func:`delta_recursive` builds the same polynomial by the defining
recursion, as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ArityMismatch, CapExceeded, NonzeroConstantTerm, NotIntegerValued
from .numutil import compositions

MultiIndex = Tuple[int, ...]

# Ingestion bounds; exceeding them is a refusal, never silent truncation.
# Internal results (e.g. delta over s blocks) may legitimately be wider.
MAX_DEGREE = 8
MAX_NVARS = 4


@dataclass(frozen=True)
class BinPoly:
    """Polynomial stored by integer coordinates on the binomial basis.

    ``terms`` maps the multi-index (i_1, ..., i_n) to the coefficient of
    ``C(z_1, i_1) * ... * C(z_n, i_n)``; it is kept sorted and free of zero
    coefficients, so equality and hashing are structural.
    """

    nvars: int
    terms: Tuple[Tuple[MultiIndex, int], ...]

    def term_map(self) -> Dict[MultiIndex, int]:
        return dict(self.terms)

    @cached_property
    def degree(self) -> int:
        """Max total degree over stored indices; 0 for the zero polynomial."""
        return max((sum(idx) for idx, _ in self.terms), default=0)

    def constant_term(self) -> int:
        """The value at the origin (coefficient of the all-zero index)."""
        for idx, coef in self.terms:
            if not any(idx):
                return coef
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, z: Sequence[int]) -> int:
        return evaluate(self, z)


def binpoly(nvars: int, coeffs: Mapping[MultiIndex, int]) -> BinPoly:
    """Build a :class:`BinPoly` from a binomial-coefficient mapping."""
    if nvars < 1:
        raise ArityMismatch(f"nvars must be positive, got {nvars}")
    cleaned = {}
    for idx, coef in coeffs.items():
        idx = tuple(int(e) for e in idx)
        if len(idx) != nvars:
            raise ArityMismatch(f"index {idx} has length {len(idx)}, expected {nvars}")
        if any(e < 0 for e in idx):
            raise ArityMismatch(f"index {idx} has a negative entry")
        coef = int(coef)
        if coef:
            cleaned[idx] = cleaned.get(idx, 0) + coef
    items = tuple(sorted((idx, c) for idx, c in cleaned.items() if c))
    return BinPoly(nvars, items)


def constant(nvars: int, value: int) -> BinPoly:
    return binpoly(nvars, {(0,) * nvars: value})


def variable(nvars: int, j: int) -> BinPoly:
    """The coordinate polynomial z_j (0-based j)."""
    idx = [0] * nvars
    idx[j] = 1
    return binpoly(nvars, {tuple(idx): 1})


def evaluate(f: BinPoly, z: Sequence[int]) -> int:
    """Exact value of f at an integer point.

    Each coordinate's column C(z_j, 0..d) is built once, by
    C(z, k + 1) = C(z, k) (z - k) / (k + 1), an exact division.
    """
    if len(z) != f.nvars:
        raise ArityMismatch(f"point has length {len(z)}, expected {f.nvars}")
    columns = []
    for zj in z:
        zj = int(zj)
        col = [1]
        for k in range(f.degree):
            col.append(col[k] * (zj - k) // (k + 1))
        columns.append(col)
    total = 0
    for idx, coef in f.terms:
        for col, ij in zip(columns, idx):
            coef *= col[ij]
        total += coef
    return total


def interpolate(
    nvars: int, degree: int, value: Callable[[MultiIndex], int | Fraction]
) -> BinPoly:
    """The polynomial of total degree at most ``degree`` with the given values.

    Its coordinate at index a is the forward difference of the values at the
    origin, sum over b <= a of prod_j (-1)^(a_j - b_j) C(a_j, b_j) value(b),
    which reads only points of the simplex {b >= 0, |b| <= degree}.  The table
    of values there is differenced ``degree`` times along each axis in place.
    Values may be exact rationals; raises :class:`NotIntegerValued` at the
    least index whose coordinate is not an integer.
    """
    points = sorted(chain.from_iterable(compositions(t, nvars) for t in range(degree + 1)))
    table = {b: value(b) for b in points}
    # descending order visits b before b - e_j, so each pass reads old values
    descending = points[::-1]
    for j in range(nvars):
        for level in range(1, degree + 1):
            for b in descending:
                if b[j] >= level:
                    table[b] -= table[b[:j] + (b[j] - 1,) + b[j + 1 :]]
    coords = {}
    for idx in points:
        coef = table[idx]
        if coef.denominator != 1:
            raise NotIntegerValued(
                f"binomial coordinate at index {idx} is {coef}, not an integer; "
                "the input polynomial is not integer-valued"
            )
        coords[idx] = int(coef)
    return binpoly(nvars, coords)


def add(f: BinPoly, g: BinPoly) -> BinPoly:
    if f.nvars != g.nvars:
        raise ArityMismatch(f"variable counts differ: {f.nvars} vs {g.nvars}")
    acc = f.term_map()
    for idx, coef in g.terms:
        acc[idx] = acc.get(idx, 0) + coef
    return binpoly(f.nvars, acc)


def negate(f: BinPoly) -> BinPoly:
    return BinPoly(f.nvars, tuple((idx, -c) for idx, c in f.terms))


def subtract(f: BinPoly, g: BinPoly) -> BinPoly:
    return add(f, negate(g))


def degree_in_vars(f: BinPoly, var_indices: Iterable[int]) -> int:
    """Max total degree of f restricted to the given variable positions."""
    cols = tuple(var_indices)
    return max((sum(idx[v] for v in cols) for idx, _ in f.terms), default=0)


def c_number(s: int, m: int) -> int:
    """The alternating sum C(s, m) = sum_{k=1..s} (-1)^(s-k) C(s,k) k^m.

    Equals m! at s = m and vanishes for 1 <= m < s.
    """
    if s < 1:
        raise ArityMismatch(f"s must be positive, got {s}")
    if m < 0:
        raise ArityMismatch(f"m must be non-negative, got {m}")
    total = 0
    for k in range(1, s + 1):
        total += (-1) ** (s - k) * math.comb(s, k) * k**m
    return total


# ---------------------------------------------------------------------------
# Substitution by sums of fresh variables (Vandermonde convolution)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _composition_list(total: int, parts: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(compositions(total, parts))


def substitute_block_sums(
    f: BinPoly, new_nvars: int, targets: Sequence[Tuple[int, ...]]
) -> BinPoly:
    """Replace variable j of f by the sum of the fresh variables targets[j].

    The target index sets must be pairwise disjoint, so the substitution is
    carried out entirely inside the binomial basis via the Vandermonde
    identity C(x + y, k) = sum_{i+j=k} C(x, i) C(y, j); no rational
    arithmetic is involved.  An empty target pins the variable to 0.
    """
    if len(targets) != f.nvars:
        raise ArityMismatch(f"{len(targets)} targets for {f.nvars} variables")
    seen = set()
    for tgt in targets:
        for pos in tgt:
            if pos < 0 or pos >= new_nvars:
                raise ArityMismatch(f"target position {pos} outside 0..{new_nvars - 1}")
            if pos in seen:
                raise ArityMismatch(f"target position {pos} reused; sums must be disjoint")
            seen.add(pos)

    acc: Dict[MultiIndex, int] = {}
    for idx, coef in f.terms:
        partial = [[0] * new_nvars]
        dead = False
        for j, k in enumerate(idx):
            if k == 0:
                continue
            tgt = targets[j]
            if not tgt:
                dead = True  # C(0, k) = 0 for k >= 1
                break
            combos = _composition_list(k, len(tgt))
            nxt = []
            for base in partial:
                for comp in combos:
                    row = base.copy()
                    for pos, inc in zip(tgt, comp):
                        row[pos] = inc
                    nxt.append(row)
            partial = nxt
        if dead:
            continue
        for row in partial:
            key = tuple(row)
            acc[key] = acc.get(key, 0) + coef
    return binpoly(max(new_nvars, 1), acc)


def shift_difference(f: BinPoly, j: int, step: int) -> BinPoly:
    """The difference z -> f(z + step * e_j) - f(z), on the binomial basis.

    By Vandermonde, C(x + N, k) = sum_i C(N, i) C(x, k - i), so the
    coordinate at index b is sum over i >= 1 of C(step, i) times the
    coordinate of f at b + i * e_j.
    """
    if not 0 <= j < f.nvars:
        raise ArityMismatch(f"variable {j} outside 0..{f.nvars - 1}")
    column = [1]  # C(step, 0..), as in evaluate
    for i in range(max((idx[j] for idx, _ in f.terms), default=0)):
        column.append(column[i] * (step - i) // (i + 1))
    acc: Dict[MultiIndex, int] = {}
    for idx, coef in f.terms:
        for i in range(1, idx[j] + 1):
            key = idx[:j] + (idx[j] - i,) + idx[j + 1 :]
            acc[key] = acc.get(key, 0) + coef * column[i]
    return BinPoly(f.nvars, tuple(sorted((idx, c) for idx, c in acc.items() if c)))


@lru_cache(maxsize=None)
def _touched_compositions(total: int, parts: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Compositions of ``total`` into ``parts``, each with the bitmask of its
    nonzero parts."""
    return tuple(
        (comp, sum(1 << b for b, c in enumerate(comp) if c))
        for comp in compositions(total, parts)
    )


def _all_blocks_rows(idx: MultiIndex, s: int) -> List[MultiIndex]:
    """Rows of the Vandermonde expansion of C(z_1 + ... + z_s, idx) in which
    every one of the s blocks gets positive degree, laid out block-first.

    Variable j spreads its degree idx[j] over the blocks; a partial row is
    dropped as soon as the degree left over cannot reach the blocks still
    untouched.
    """
    left = sum(idx)
    if left < s:
        return []
    partial: List[Tuple[Tuple[Tuple[int, ...], ...], int]] = [((), 0)]
    for k in idx:
        left -= k
        partial = [
            (chosen + (comp,), reach)
            for chosen, mask in partial
            for comp, touched in _touched_compositions(k, s)
            if s - (reach := mask | touched).bit_count() <= left
        ]
    return [tuple(chain.from_iterable(zip(*chosen))) for chosen, _ in partial]


def delta(f: BinPoly, s: int) -> BinPoly:
    """The s-fold difference of f, over s blocks of f.nvars fresh variables.

    Output variables are laid out block-first: block i (0-based) occupies
    positions i*nvars .. i*nvars + nvars - 1.  The result is symmetric under
    permuting blocks.

    Closed form: a row of the Vandermonde expansion of f(z_1 + ... + z_s)
    that touches the set S of blocks appears, with the same coefficient, in
    f(sum of z_i for i in a) for every a containing S, so its signed total
    is the sum of (-1)^(s - |a|) over nonempty a containing S.  That sum is
    1 for S = all blocks, 0 for a nonempty proper S, and (-1)^(s+1) for
    S empty, where the row is the constant term f(0).  So delta(f, s) is
    (-1)^(s+1) f(0) plus the rows in which every block has positive degree;
    terms of total degree below s contribute nothing.
    """
    if s < 1:
        raise ArityMismatch(f"s must be positive, got {s}")
    # rows of distinct terms differ (a row sums back to its term's index),
    # every entry is non-negative and every coefficient nonzero
    rows = [(row, coef) for idx, coef in f.terms for row in _all_blocks_rows(idx, s)]
    if f.constant_term():
        rows.append(((0,) * (s * f.nvars), (-1) ** (s + 1) * f.constant_term()))
    return BinPoly(s * f.nvars, tuple(sorted(rows)))


def delta_rows(f: BinPoly, s: int) -> int:
    """An upper bound on the rows :func:`delta` expands, found before any
    expansion: the sum over terms of total degree at least s of
    prod_j C(k_j + s - 1, s - 1), the compositions of each k_j into s parts.
    """
    return sum(
        math.prod(math.comb(k + s - 1, s - 1) for k in idx)
        for idx, _ in f.terms
        if sum(idx) >= s
    )


def delta_recursive(f: BinPoly, s: int, prev: Optional[BinPoly] = None) -> BinPoly:
    """The s-fold difference built by the defining recursion.

    delta(f, s) arises from delta(f, s-1) by replacing the last block with
    the sum of two fresh blocks and subtracting both single-block versions.
    The sum goes through :func:`substitute_block_sums`; the two single-block
    versions only relabel indices.  ``prev``, when given, must be
    delta_recursive(f, s - 1), so a chain of levels costs one step each.
    Mathematically equal to :func:`delta`; computed along a different code
    path, which makes the equality a useful consistency oracle.
    """
    if s < 1:
        raise ArityMismatch(f"s must be positive, got {s}")
    if s == 1:
        return f
    n = f.nvars
    if prev is None:
        prev = delta_recursive(f, s - 1)
    wide = s * n
    merged_targets = [(pos,) for pos in range((s - 2) * n)]
    merged_targets += [((s - 2) * n + j, (s - 1) * n + j) for j in range(n)]
    acc = substitute_block_sums(prev, wide, merged_targets).term_map()
    # the last block kept in place, and moved one block up
    pad, cut = (0,) * n, (s - 2) * n
    for idx, coef in prev.terms:
        for key in (idx + pad, idx[:cut] + pad + idx[cut:]):
            acc[key] = acc.get(key, 0) - coef
    return BinPoly(wide, tuple(sorted((idx, c) for idx, c in acc.items() if c)))


# ---------------------------------------------------------------------------
# Coordinates through values: monomial input and restriction
# ---------------------------------------------------------------------------


def from_monomial_coeffs(
    nvars: int, coeffs: Mapping[MultiIndex, Fraction | int | str]
) -> BinPoly:
    """Convert monomial coordinates (exact rationals) to the binomial basis.

    The exact values on the degree simplex are interpolated
    (:func:`interpolate`).  Raises :class:`NotIntegerValued`, naming the
    least index, if any resulting coordinate is not an integer, i.e. the
    polynomial takes a non-integer value somewhere on the integer lattice.
    """
    if nvars < 1:
        raise ArityMismatch(f"nvars must be positive, got {nvars}")
    if nvars > MAX_NVARS:
        raise CapExceeded(f"nvars {nvars} exceeds the configured bound {MAX_NVARS}")
    mono: Dict[MultiIndex, Fraction] = {}
    for idx, coef in coeffs.items():
        idx = tuple(int(e) for e in idx)
        if len(idx) != nvars:
            raise ArityMismatch(f"index {idx} has length {len(idx)}, expected {nvars}")
        if any(e < 0 for e in idx):
            raise ArityMismatch(f"index {idx} has a negative entry")
        mono[idx] = mono.get(idx, Fraction(0)) + Fraction(coef)
    degree = max((sum(idx) for idx, coef in mono.items() if coef), default=0)
    if degree > MAX_DEGREE:
        raise CapExceeded(f"degree {degree} exceeds the configured bound {MAX_DEGREE}")

    def value(z: MultiIndex) -> Fraction:
        return sum(
            (coef * math.prod(x**e for x, e in zip(z, idx)) for idx, coef in mono.items()),
            Fraction(0),
        )

    return interpolate(nvars, degree, value)


def pullback(f: BinPoly, basis: Sequence[Sequence[int]]) -> BinPoly:
    """Restrict f along an integer matrix: g(w) = f(basis @ w).

    ``basis`` has f.nvars rows and s columns, dependent or not.  g has
    degree at most d = deg(f), so it is interpolated from its values on the
    simplex {w >= 0, |w| <= d} of Z^s; it is integer-valued with the same
    value at the origin.
    """
    rows = [list(map(int, row)) for row in basis]
    if len(rows) != f.nvars:
        raise ArityMismatch(f"basis has {len(rows)} rows, expected {f.nvars}")
    s = len(rows[0]) if rows else 0
    if s < 1 or any(len(r) != s for r in rows):
        raise ArityMismatch("basis columns must be non-empty and equal length")

    def value(w: MultiIndex) -> int:
        return evaluate(f, [sum(b * x for b, x in zip(row, w)) for row in rows])

    return interpolate(s, f.degree, value)


# ---------------------------------------------------------------------------
# Tuples of polynomials sharing a variable set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyTuple:
    """Non-empty tuple of :class:`BinPoly` over a shared variable set."""

    components: Tuple[BinPoly, ...]

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

    def evaluate(self, z: Sequence[int]) -> Tuple[int, ...]:
        return tuple(evaluate(c, z) for c in self.components)


def polytuple(components: Iterable[BinPoly]) -> PolyTuple:
    """The components as a tuple: at least one, all in the same variables."""
    comps = tuple(components)
    if not comps:
        raise ArityMismatch("a polynomial tuple needs at least one component")
    nv = comps[0].nvars
    for c in comps:
        if c.nvars != nv:
            raise ArityMismatch(f"mixed variable counts {nv} and {c.nvars}")
    return PolyTuple(comps)


def exponent_tuple(components: Iterable[BinPoly]) -> PolyTuple:
    """A :func:`polytuple` of exponent polynomials, each 0 at the origin."""
    v = polytuple(components)
    for c in v.components:
        if c.constant_term() != 0:
            raise NonzeroConstantTerm(
                f"exponent polynomial has value {c.constant_term()} at the origin"
            )
    return v


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def to_json(f: BinPoly) -> dict:
    """{"nvars": n, "basis": "binomial", "terms": [{"idx": [...], "coef": "..."}]}."""
    return {
        "nvars": f.nvars,
        "basis": "binomial",
        "terms": [{"idx": list(idx), "coef": str(coef)} for idx, coef in f.terms],
    }


def from_json(obj: Mapping) -> BinPoly:
    if obj.get("basis", "binomial") != "binomial":
        raise ArityMismatch(f"unsupported basis {obj.get('basis')!r}")
    nvars = int(obj["nvars"])
    if nvars > MAX_NVARS:
        raise CapExceeded(f"nvars {nvars} exceeds the configured bound {MAX_NVARS}")
    terms = {}
    for entry in obj.get("terms", []):
        idx = tuple(int(e) for e in entry["idx"])
        terms[idx] = terms.get(idx, 0) + int(str(entry["coef"]))
    f = binpoly(nvars, terms)
    if f.degree > MAX_DEGREE:
        raise CapExceeded(f"degree {f.degree} exceeds the configured bound {MAX_DEGREE}")
    return f


def polytuple_to_json(v: PolyTuple) -> list:
    return [to_json(c) for c in v.components]


def polytuple_from_json(obj: Sequence[Mapping]) -> PolyTuple:
    return polytuple(from_json(entry) for entry in obj)
