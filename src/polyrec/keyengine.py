"""Witness lattices for polynomial tuples landing in a prescribed subgroup.

Everything here answers questions of the shape: given a tuple of
integer-valued polynomials v: Z^n -> Z^K and a subgroup V of Z^K, on which
finite-index sublattice of Z^n can we *prove* that the values of v (shifted
to vanish at the origin) lie in V?

Claims of the form "v(a) - v(0) in V for every a in L" are decided without
sampling (Polya 1915): restricted to L and written on the binomial basis,
u(k) = sum_a c_a C(k, a), every coordinate vector c_a is a forward
difference of u at the origin, hence an integer combination of values of
u.  So u(Z^r) lies in V exactly when every c_a does (:func:`first_escape`).

Every witness lattice is built by one routine, :func:`least_periods`: the
least per-coordinate periods of u modulo V, found from the same
coordinates.  Coordinate j starts from lcm(1..d) times the order modulo V
of the first difference in z_j, and only the primes up to the degree d
are divided out of that start, so no integer is factored.  The key-lemma
witness comes from it, and through :func:`cyclic_periods` (a product of
cyclic groups, one component at a time) the period grid of
:mod:`polyrec.dynamics` and the spectral-limit certificate, which its twin
:func:`cyclic_escape` checks.

Each certificate kind has one check, which its constructor ends with and
``verify-certificate`` runs: :func:`verify_key_lemma_certificate` and
:func:`verify_rank_certificate`.
"""

from __future__ import annotations

import math
from itertools import compress, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import intpoly, lattice
from .errors import (
    ArityMismatch,
    HypothesisFailed,
    RankDeficientBasis,
    SWEEP_CAP,
    SaturationFailed,
    VerificationFailed,
    charge,
)
from .intpoly import BinPoly, MultiIndex, PolyTuple
from .lattice import Lattice
from .numutil import lcm_upto


class KeyInstance(NamedTuple):
    """A polynomial tuple v: Z^n -> Z^K together with a target subgroup V."""

    v: PolyTuple
    V: Lattice


def key_instance(v: PolyTuple, V: Lattice) -> KeyInstance:
    if V.ambient != v.arity:
        raise ArityMismatch(
            f"target subgroup lives in Z^{V.ambient} but the tuple has {v.arity} components"
        )
    return KeyInstance(v, V)


class RankCertificate(NamedTuple):
    """Greedy rank witness: samples whose images span the image subgroup.

    Invariants (decided by :func:`verify_rank_certificate`): V is the
    lattice generated by the sample images, rank(V) = r, and v(z) lies in
    the rational span of V for every z in Z^n.  ``saturation_window`` is
    the box radius the samples were searched in.
    """

    r: int
    samples: Tuple[Tuple[int, ...], ...]
    V: Lattice
    saturation_window: int


# ---------------------------------------------------------------------------
# Deciding "lands in V" from binomial coordinates
# ---------------------------------------------------------------------------


def _binomial_coordinates(us: Sequence[BinPoly]) -> Dict[MultiIndex, List[int]]:
    """The coordinate vector c_a = (coefficient of C(z, a) in each u_i) per stored index a."""
    coords: Dict[MultiIndex, List[int]] = {}
    for i, u in enumerate(us):
        for idx, coef in u.terms:
            coords.setdefault(idx, [0] * len(us))[i] = coef
    return coords


def first_escape(
    us: Sequence[BinPoly], V: Lattice, span: bool = False
) -> Optional[MultiIndex]:
    """Least binomial index a whose coordinate vector (c_a of each u_i) is not in V.

    None means u(z) lies in V for every z in Z^n.  Because
    u(k) = sum over b <= k of c_b C(k, b), the returned index is also the
    lexicographically least point k >= 0 with u(k) outside V.  With
    ``span``, the target is the rational span of V instead: c_a escapes
    when no multiple N * c_a, N >= 1, lies in V
    (:func:`lattice.smallest_multiple`).
    """
    coords = _binomial_coordinates(us)
    for idx in sorted(coords):
        c = coords[idx]
        if (lattice.smallest_multiple(V, c) is None) if span else not V.contains(c):
            return idx
    return None


def restrict(us: Sequence[BinPoly], lat: Lattice) -> List[BinPoly]:
    """Each u_i on lattice coordinates: w -> u_i(B*w), B the Hermite basis of L.

    :func:`intpoly.pullback` interpolates each from its values on the
    simplex {w >= 0, |w| <= deg u_i}.  The zero lattice is spanned by one
    zero column, so u_i restricts to the constant u_i(0); on Z^n, B is the
    identity and the u_i are returned as they are.
    """
    if lat == lattice.full_lattice(lat.ambient):
        return list(us)
    columns = lat.basis or ((0,) * lat.ambient,)
    rows = [[col[i] for col in columns] for i in range(lat.ambient)]
    return [intpoly.pullback(u, rows) for u in us]


def lattice_point(lat: Lattice, a: Sequence[int]) -> Tuple[int, ...]:
    """The point B*a of L with Hermite coordinates a (the origin on the zero lattice)."""
    return tuple(sum(c * col[i] for c, col in zip(a, lat.basis)) for i in range(lat.ambient))


def first_escape_point(
    us: Sequence[BinPoly], V: Lattice, lat: Lattice, span: bool = False
) -> Optional[Tuple[int, ...]]:
    """Decide u(L) in V (in its rational span with ``span``); else the point
    B*a for the least failing lattice coordinates a, B the Hermite basis of
    L (:func:`restrict`)."""
    a = first_escape(restrict(us, lat), V, span)
    return None if a is None else lattice_point(lat, a)


def verify_value_membership(
    v: PolyTuple, offset: Sequence[int], V: Lattice, witness: Lattice
) -> Optional[Tuple[int, ...]]:
    """Decide whether v(a) - offset lies in V for *every* a in the witness.

    Returns None when the claim holds for all lattice points, or otherwise
    the counterexample whose lattice coordinates are lexicographically
    least among the non-negative ones (:func:`first_escape_point`).
    """
    if witness.ambient != v.nvars:
        raise ArityMismatch(
            f"witness lattice lives in Z^{witness.ambient}, tuple takes {v.nvars} variables"
        )
    if V.ambient != v.arity:
        raise ArityMismatch(
            f"target subgroup lives in Z^{V.ambient}, tuple has {v.arity} components"
        )
    shifted = [
        intpoly.subtract(c, intpoly.constant(v.nvars, int(off)))
        for c, off in zip(v.components, offset)
    ]
    return first_escape_point(shifted, V, witness)


# ---------------------------------------------------------------------------
# Least periods, and the transfer construction
# ---------------------------------------------------------------------------


def least_periods(us: Sequence[BinPoly], V: Lattice) -> Tuple[int, ...]:
    """Least per-coordinate periods (N_1, ..., N_n) of z -> u(z) modulo V.

    N_j is the least N >= 1 with u(z + N e_j) - u(z) in V for every z; the
    binomial coordinates of that shift difference
    (:func:`intpoly.shift_difference`) decide it (:func:`first_escape`).
    Needs u(z) - u(0) in the rational span of V for every z, else raises
    :class:`SaturationFailed` at the least index whose coordinate escapes.

    Let m_a be the least m >= 1 with m * c_a in V, M_j the lcm of the m_a
    with a_j >= 1 (the order modulo V of the first difference
    u(z + e_j) - u(z)) and d the largest degree.  Coordinate j starts from
    P_j = lcm(1..d) * M_j, a period: the shift by P_j e_j moves c_b by the
    sum over 1 <= i <= d of C(P_j, i) c_{b + i e_j}, P_j / i divides
    C(P_j, i) and is a multiple of M_j, and b + i e_j has j-th entry >= 1.
    P_j is re-checked first, and a failure names the least pair (z, j) that
    breaks it.  For a prime p > d, P_j already has the p-part of N_j: for
    i <= d, C(N, i) = (N / i) C(N - 1, i - 1) has at least the factors p of N,
    so killing the p-part of every m_a with a_j >= 1 is enough; and it is
    needed, by descending induction on a_j, since the shift difference at
    a - e_j is N c_a plus the C(N, i) c_{a + (i - 1) e_j}, i >= 2, whose
    p-components already vanish.  The periods of coordinate j form N_j * Z,
    so N_j is found by dividing P_j by the primes p <= d only, while the
    quotient still passes.  No integer is factored.
    """
    coords = _binomial_coordinates(us)
    orders: Dict[MultiIndex, int] = {}
    for a in sorted(coords):
        if any(a):
            multiple = lattice.smallest_multiple(V, coords[a])
            if multiple is None:
                raise SaturationFailed(
                    witness=a,
                    message=f"coordinate at {a} escapes the rational span of the target",
                )
            orders[a] = multiple
    d = max(u.degree for u in us)
    n = us[0].nvars
    starts = [lcm_upto(d) * math.lcm(*(m for a, m in orders.items() if a[j])) for j in range(n)]

    def escape(j: int, step: int) -> Optional[MultiIndex]:
        return first_escape([intpoly.shift_difference(u, j, step) for u in us], V)

    failures = [(z, j) for j, start in enumerate(starts) if (z := escape(j, start)) is not None]
    if failures:
        z, j = min(failures)
        raise VerificationFailed(
            witness=z,
            message=f"periodicity failed at {z} in coordinate {j}",
        )
    primes = [p for p in range(2, d + 1) if all(p % q for q in range(2, p))]
    least = []
    for j, step in enumerate(starts):
        for p in primes:
            while step % p == 0 and escape(j, step // p) is None:
                step //= p
        least.append(step)
    return tuple(least)


def _cyclic_pairs(us: Sequence[BinPoly], moduli: Sequence[int]):
    """([u_i], m_i * Z) per distinct pair (u_i, m_i), one m * Z per distinct m."""
    for m in dict.fromkeys(moduli):
        target = lattice.diagonal([m])
        for u in dict.fromkeys(compress(us, map(m.__eq__, moduli))):
            yield [u], target


def cyclic_periods(us: Sequence[BinPoly], moduli: Sequence[int]) -> Tuple[int, ...]:
    """Least per-coordinate periods of z -> (u_i(z) mod m_i)_i.

    The target is the product of the cyclic groups m_i * Z, so coordinate
    j's periods of the tuple are those its components share: N_j is the
    lcm of the :func:`least_periods` of each distinct pair (u_i, m_i)
    against m_i * Z alone.  Its twin is :func:`cyclic_escape`.
    """
    periods = [least_periods(*pair) for pair in _cyclic_pairs(us, moduli)]
    return tuple(map(math.lcm, *periods))


def cyclic_escape(us: Sequence[BinPoly], moduli: Sequence[int]) -> Optional[MultiIndex]:
    """Least binomial index at which z -> (u_i(z) mod m_i)_i is not zero, or
    None: the least :func:`first_escape` of each distinct pair (u_i, m_i)
    against m_i * Z alone, the twin of :func:`cyclic_periods`."""
    escapes = (first_escape(*pair) for pair in _cyclic_pairs(us, moduli))
    return min((a for a in escapes if a is not None), default=None)


def key_lemma_lattice(inst: KeyInstance, hypothesis: Lattice) -> Lattice:
    """Full-rank lattice L with v(a) - v(0) in V for every a in L.

    The hypothesis lattice asserts that some nonzero multiple of every
    value v(b), b on that lattice, lies in V; this is checked first (it is
    the claim that v lands in the rational span of V on that lattice,
    decided by :func:`first_escape_point` with ``span``) and reported via
    :class:`HypothesisFailed` with a counterexample if false.  A polynomial
    that lands in a subspace on a full-rank lattice lands in it everywhere,
    so :func:`least_periods` applies, and L is the diagonal lattice of v's
    least periods modulo V.  L is checked by
    :func:`verify_key_lemma_certificate` before being returned; a failure
    there signals an implementation bug, never a silent wrong answer.
    """
    v, V = inst.v, inst.V
    n = v.nvars
    if hypothesis.ambient != n:
        raise ArityMismatch(
            f"hypothesis lattice lives in Z^{hypothesis.ambient}, tuple takes {n} variables"
        )
    if hypothesis.rank != n:
        raise RankDeficientBasis(
            f"hypothesis lattice has rank {hypothesis.rank}, need full rank {n}"
        )

    point = first_escape_point(v.components, V, hypothesis, span=True)
    if point is not None:
        raise HypothesisFailed(
            witness=point,
            message=f"no nonzero multiple of v({point}) lies in the target subgroup",
        )

    result = lattice.diagonal(least_periods(v.components, V))
    verify_key_lemma_certificate(v, V, result)
    return result


def verify_key_lemma_certificate(v: PolyTuple, V: Lattice, witness: Lattice) -> None:
    """Decide the key-lemma claim: v(a) - v(0) lies in V for every a in the
    witness (:func:`verify_value_membership`), else raises
    :class:`VerificationFailed` at the counterexample."""
    point = verify_value_membership(v, v.evaluate([0] * v.nvars), V, witness)
    if point is not None:
        raise VerificationFailed(
            witness=point, message=f"certificate lattice fails membership at {point}"
        )


# ---------------------------------------------------------------------------
# Greedy image-rank stabilization
# ---------------------------------------------------------------------------


def window_points(n: int, window: int):
    """[-window, window]^n enumerated by increasing box radius, lex inside."""
    for radius in range(window + 1):
        for pt in product(range(-radius, radius + 1), repeat=n):
            if max((abs(c) for c in pt), default=0) == radius:
                yield pt


def stable_rank_subgroup(
    v: PolyTuple, window: int, cap: int = SWEEP_CAP
) -> RankCertificate:
    """Greedily grow samples until the image subgroup reaches the rank of v(Z^n).

    That rank r is the rank of the binomial coordinate vectors c_a of v
    (Polya 1915: they span the same rational space as the values).  Sample
    points are drawn from [-window, window]^n in increasing-box order; a
    point is kept only if its image strictly increases the rank of the
    generated subgroup, and the search stops at rank r, which it reaches by
    radius deg(v) because every c_a is a difference of values on [0, a].
    So ``cap`` bounds the (2 * min(window, deg(v)) + 1)^n points the search
    can visit, not the window.  A window too small to reach r raises :class:`SaturationFailed` with the
    least non-negative point whose image escapes the rational span of the
    samples.  The degenerate map (identically zero) certifies r = 0 with
    the zero subgroup.  :func:`verify_rank_certificate` checks the result.
    """
    if window < 1:
        raise ArityMismatch(f"window must be positive, got {window}")
    n = v.nvars
    points = (2 * min(window, v.degree) + 1) ** n
    charge(points, cap, f"window sweep needs {points} points")
    target = lattice.hnf_from_generators(
        v.arity, list(_binomial_coordinates(v.components).values())
    ).rank
    samples: List[Tuple[int, ...]] = []
    current = lattice.zero_lattice(v.arity)
    # one pass suffices: the rational span only grows, so a point skipped
    # once stays inside it
    for pt in window_points(n, window):
        if current.rank == target:
            break
        img = v.evaluate(pt)
        if lattice.smallest_multiple(current, img) is None:
            samples.append(pt)
            # current's Hermite basis generates the images kept so far
            current = lattice.hnf_from_generators(v.arity, [*current.basis, img])
    cert = RankCertificate(
        r=current.rank, samples=tuple(samples), V=current, saturation_window=window
    )
    verify_rank_certificate(v, cert)
    return cert


def verify_rank_certificate(v: PolyTuple, cert: RankCertificate) -> None:
    """Re-assert every :class:`RankCertificate` invariant from scratch.

    v is evaluated at the samples only; the saturation claim is decided for
    all of Z^n from binomial coordinates (:func:`first_escape` with
    ``span``), so the window size costs nothing.
    """
    regenerated = lattice.hnf_from_generators(
        v.arity, [v.evaluate(pt) for pt in cert.samples]
    )
    if regenerated != cert.V:
        raise VerificationFailed(
            witness=cert.samples,
            message="sample images do not generate the recorded subgroup",
        )
    if cert.V.rank != cert.r:
        raise VerificationFailed(
            witness=cert.r,
            message=f"recorded rank {cert.r} differs from actual {cert.V.rank}",
        )
    pt = first_escape(v.components, cert.V, span=True)
    if pt is not None:
        raise SaturationFailed(
            witness=pt,
            message=f"image of {pt} escapes the rational span of the image subgroup",
        )

