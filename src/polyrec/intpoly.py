"""Exact calculus of integer-valued multivariate polynomials.

A polynomial in n integer variables that takes integer values on integer
points has a unique expansion over the products
``C(z_1, i_1) * ... * C(z_n, i_n)`` of binomial coefficients, with integer
coordinates.  That expansion is the canonical representation here
(:class:`BinPoly`); integrality of values is structural, and the group
operations are coefficientwise.  Ordinary monomial coordinates with exact
rational coefficients (:class:`MonoPoly`) appear only transiently, inside
the change-of-basis routines and the homogeneous decomposition.

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
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ArityMismatch,
    CapExceeded,
    NotIntegerValued,
    RankDeficientBasis,
)
from .numutil import binom_int, compositions

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

    @property
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


def zero(nvars: int) -> BinPoly:
    return binpoly(nvars, {})


def constant(nvars: int, value: int) -> BinPoly:
    return binpoly(nvars, {(0,) * nvars: value})


def variable(nvars: int, j: int) -> BinPoly:
    """The coordinate polynomial z_j (0-based j)."""
    idx = [0] * nvars
    idx[j] = 1
    return binpoly(nvars, {tuple(idx): 1})


def evaluate(f: BinPoly, z: Sequence[int]) -> int:
    """Exact value of f at an integer point."""
    if len(z) != f.nvars:
        raise ArityMismatch(f"point has length {len(z)}, expected {f.nvars}")
    z = [int(v) for v in z]
    total = 0
    for idx, coef in f.terms:
        prod = coef
        for zj, ij in zip(z, idx):
            if ij:
                prod *= binom_int(zj, ij)
                if not prod:
                    break
        total += prod
    return total


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


def shift(f: BinPoly, j: int, step: int) -> BinPoly:
    """The translate z -> f(z + step * e_j), on the binomial basis.

    One Vandermonde step, C(x + N, k) = sum_i C(N, k - i) C(x, i), moves the
    shift into the coefficients.
    """
    if not 0 <= j < f.nvars:
        raise ArityMismatch(f"variable {j} outside 0..{f.nvars - 1}")
    acc: Dict[MultiIndex, int] = {}
    for idx, coef in f.terms:
        for i in range(idx[j] + 1):
            key = idx[:j] + (i,) + idx[j + 1 :]
            acc[key] = acc.get(key, 0) + coef * binom_int(step, idx[j] - i)
    return binpoly(f.nvars, acc)


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
# Monomial coordinates (exact rationals, transient)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoPoly:
    """Polynomial in ordinary monomial coordinates with Fraction coefficients."""

    nvars: int
    terms: Tuple[Tuple[MultiIndex, Fraction], ...]

    def term_map(self) -> Dict[MultiIndex, Fraction]:
        return dict(self.terms)

    @property
    def degree(self) -> int:
        return max((sum(idx) for idx, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, z: Sequence[int]) -> Fraction:
        if len(z) != self.nvars:
            raise ArityMismatch(f"point has length {len(z)}, expected {self.nvars}")
        total = Fraction(0)
        for idx, coef in self.terms:
            prod = coef
            for zj, ij in zip(z, idx):
                if ij:
                    prod *= Fraction(zj) ** ij
            total += prod
        return total


def monopoly(nvars: int, coeffs: Mapping[MultiIndex, Fraction | int]) -> MonoPoly:
    if nvars < 1:
        raise ArityMismatch(f"nvars must be positive, got {nvars}")
    cleaned: Dict[MultiIndex, Fraction] = {}
    for idx, coef in coeffs.items():
        idx = tuple(int(e) for e in idx)
        if len(idx) != nvars:
            raise ArityMismatch(f"index {idx} has length {len(idx)}, expected {nvars}")
        if any(e < 0 for e in idx):
            raise ArityMismatch(f"index {idx} has a negative entry")
        coef = Fraction(coef)
        if coef:
            cleaned[idx] = cleaned.get(idx, Fraction(0)) + coef
    items = tuple(sorted((idx, c) for idx, c in cleaned.items() if c))
    return MonoPoly(nvars, items)


def _mono_mul_maps(
    a: Mapping[MultiIndex, Fraction], b: Mapping[MultiIndex, Fraction]
) -> Dict[MultiIndex, Fraction]:
    out: Dict[MultiIndex, Fraction] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            key = tuple(x + y for x, y in zip(ia, ib))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _binomial_basis_monomial(i: int) -> Tuple[Fraction, ...]:
    """Coefficients (by power) of C(z, i) = z(z-1)...(z-i+1) / i!."""
    coeffs = [1]  # falling factorial, lowest power first
    for t in range(i):
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
            nxt[p] += -t * c
        coeffs = nxt
    fact = math.factorial(i)
    return tuple(Fraction(c, fact) for c in coeffs)


def to_monomial(f: BinPoly) -> MonoPoly:
    """Expand the binomial-basis representation into monomial coordinates."""
    acc: Dict[MultiIndex, Fraction] = {}
    for idx, coef in f.terms:
        partial: Dict[MultiIndex, Fraction] = {(0,) * f.nvars: Fraction(coef)}
        for j, ij in enumerate(idx):
            if ij == 0:
                continue
            expansion = {
                tuple(p if t == j else 0 for t in range(f.nvars)): c
                for p, c in enumerate(_binomial_basis_monomial(ij))
                if c
            }
            partial = _mono_mul_maps(partial, expansion)
        for key, val in partial.items():
            acc[key] = acc.get(key, Fraction(0)) + val
    return monopoly(f.nvars, acc)


@lru_cache(maxsize=None)
def _stirling2(m: int, k: int) -> int:
    if m == 0 and k == 0:
        return 1
    if m == 0 or k == 0 or k > m:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


def _binomial_coords(
    nvars: int, coeffs: Mapping[MultiIndex, Fraction]
) -> Dict[MultiIndex, Fraction]:
    """Monomial -> binomial change of coordinates, kept rational.

    Per variable, z^m = sum_k S(m, k) k! C(z, k), the triangular relation
    obtained by matching values at z = 0, 1, ..., m.
    """
    acc: Dict[MultiIndex, Fraction] = {}
    for idx, coef in coeffs.items():
        partial: Dict[MultiIndex, Fraction] = {(0,) * nvars: Fraction(coef)}
        for j, mj in enumerate(idx):
            if mj == 0:
                continue
            expansion = {}
            for k in range(1, mj + 1):
                s2 = _stirling2(mj, k)
                if s2:
                    key = tuple(k if t == j else 0 for t in range(nvars))
                    expansion[key] = Fraction(s2 * math.factorial(k))
            partial = _mono_mul_maps(partial, expansion)
        for key, val in partial.items():
            acc[key] = acc.get(key, Fraction(0)) + val
    return {k: v for k, v in acc.items() if v}


def _binpoly_from_rational_coords(nvars: int, coords: Mapping[MultiIndex, Fraction]) -> BinPoly:
    out = {}
    for idx, coef in coords.items():
        if coef.denominator != 1:
            raise NotIntegerValued(
                f"binomial coordinate at index {idx} is {coef}, not an integer; "
                "the input polynomial is not integer-valued"
            )
        out[idx] = int(coef)
    return binpoly(nvars, out)


def from_monomial_coeffs(
    nvars: int, coeffs: Mapping[MultiIndex, Fraction | int | str]
) -> BinPoly:
    """Convert monomial coordinates (exact rationals) to the binomial basis.

    Raises :class:`NotIntegerValued` if any resulting coordinate is not an
    integer, i.e. the polynomial takes a non-integer value somewhere on the
    integer lattice.
    """
    if nvars < 1:
        raise ArityMismatch(f"nvars must be positive, got {nvars}")
    if nvars > MAX_NVARS:
        raise CapExceeded(f"nvars {nvars} exceeds the configured bound {MAX_NVARS}")
    mono = monopoly(nvars, {tuple(idx): Fraction(c) for idx, c in coeffs.items()})
    if mono.degree > MAX_DEGREE:
        raise CapExceeded(
            f"degree {mono.degree} exceeds the configured bound {MAX_DEGREE}"
        )
    return from_monopoly(mono)


def from_monopoly(mono: MonoPoly) -> BinPoly:
    """Like :func:`from_monomial_coeffs`, for an existing :class:`MonoPoly`."""
    coords = _binomial_coords(mono.nvars, mono.term_map())
    return _binpoly_from_rational_coords(mono.nvars, coords)


def homogeneous_parts(f: BinPoly) -> Tuple[MonoPoly, ...]:
    """Split f into monomial-homogeneous parts h_0, ..., h_d with sum f.

    The parts are returned in monomial coordinates with exact rational
    coefficients: individual parts of an integer-valued polynomial need not
    be integer-valued themselves, only suitable integer multiples are.
    """
    mono = to_monomial(f)
    d = mono.degree
    buckets: list[Dict[MultiIndex, Fraction]] = [dict() for _ in range(d + 1)]
    for idx, coef in mono.terms:
        buckets[sum(idx)][idx] = coef
    return tuple(monopoly(f.nvars, b) for b in buckets)


def _rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def pullback(f: BinPoly, basis: Sequence[Sequence[int]]) -> BinPoly:
    """Restrict f along an integer matrix: g(w) = f(basis @ w).

    ``basis`` has f.nvars rows and s columns; the columns must be linearly
    independent over the rationals.  The result is integer-valued with
    degree at most deg(f) and the same value at the origin.
    """
    rows = [list(map(int, row)) for row in basis]
    if len(rows) != f.nvars:
        raise ArityMismatch(f"basis has {len(rows)} rows, expected {f.nvars}")
    s = len(rows[0]) if rows else 0
    if s < 1 or any(len(r) != s for r in rows):
        raise ArityMismatch("basis columns must be non-empty and equal length")
    if _rational_rank(rows) < s:
        raise RankDeficientBasis("basis columns are linearly dependent over Q")

    mono = to_monomial(f)
    # z_j substituted by the linear form sum_k basis[j][k] * w_k
    linear_forms = []
    for j in range(f.nvars):
        form = {}
        for k in range(s):
            if rows[j][k]:
                key = tuple(1 if t == k else 0 for t in range(s))
                form[key] = Fraction(rows[j][k])
        linear_forms.append(form)

    acc: Dict[MultiIndex, Fraction] = {}
    for idx, coef in mono.terms:
        partial: Dict[MultiIndex, Fraction] = {(0,) * s: coef}
        for j, mj in enumerate(idx):
            for _ in range(mj):
                partial = _mono_mul_maps(partial, linear_forms[j])
            if not partial:
                break
        for key, val in partial.items():
            acc[key] = acc.get(key, Fraction(0)) + val
    coords = _binomial_coords(s, {k: v for k, v in acc.items() if v})
    return _binpoly_from_rational_coords(s, coords)


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
    comps = tuple(components)
    if not comps:
        raise ArityMismatch("a polynomial tuple needs at least one component")
    nv = comps[0].nvars
    for c in comps:
        if c.nvars != nv:
            raise ArityMismatch(f"components mix variable counts {nv} and {c.nvars}")
    return PolyTuple(comps)


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
