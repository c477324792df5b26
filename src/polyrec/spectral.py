"""Finite-order commuting unitary families as exact rational phase data.

A family U_1, ..., U_m of commuting unitaries that are simultaneously
diagonal with roots-of-unity eigenvalues is stored as a D x m matrix of
rational phases: eigenvector e is scaled by exp(2*pi*i*theta[e][i]) under
U_i.  For such families the long-run behaviour of products
U_1^{f_1(z)} ... U_m^{f_m(z)} along any sufficiently invariant set of z is
computable exactly: the product is the identity on the diagonal lattice of
the least periods of the phase combinations (:func:`keyengine.least_periods`),
which is returned as a certificate verified from their binomial
coordinates (:func:`keyengine.first_escape`).
Projection predicates and the quadratic averaging expansion are checked in
exact Gaussian-rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from . import intpoly, keyengine, lattice
from .errors import (
    ArityMismatch,
    CapExceeded,
    DimMismatch,
    VerificationFailed,
)
from .intpoly import BinPoly
from .lattice import Lattice

MAX_PHASE_DENOMINATOR = 720


# ---------------------------------------------------------------------------
# Exact complex scalars and matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)


def gq(re: Union[int, Fraction], im: Union[int, Fraction] = 0) -> GaussRat:
    return GaussRat(Fraction(re), Fraction(im))


GQ_ZERO = gq(0)
GQ_ONE = gq(1)


@dataclass(frozen=True)
class ComplexMatrix:
    """Square matrix with exact Gaussian-rational entries."""

    entries: Tuple[Tuple[GaussRat, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)


def matrix_exact(rows: Sequence[Sequence[Union[GaussRat, Fraction, int]]]) -> ComplexMatrix:
    dim = len(rows)
    out = []
    for row in rows:
        if len(row) != dim:
            raise DimMismatch(f"row of length {len(row)} in a {dim}x{dim} matrix")
        out.append(
            tuple(e if isinstance(e, GaussRat) else gq(Fraction(e)) for e in row)
        )
    return ComplexMatrix(tuple(out))


def mat_mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    if a.dim != b.dim:
        raise DimMismatch(f"matrix dimensions differ: {a.dim} vs {b.dim}")
    rows = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            acc = GQ_ZERO
            for t in range(a.dim):
                acc = acc + a.entries[i][t] * b.entries[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return ComplexMatrix(tuple(rows))


def mat_adjoint(a: ComplexMatrix) -> ComplexMatrix:
    rows = tuple(
        tuple(a.entries[j][i].conj() for j in range(a.dim)) for i in range(a.dim)
    )
    return ComplexMatrix(rows)


@dataclass(frozen=True)
class ProjectionCheck:
    ok: bool
    normal: bool
    idempotent: bool


def is_orthogonal_projection(m: ComplexMatrix) -> ProjectionCheck:
    """Normality (M M* = M* M) plus idempotence (M^2 = M), with diagnostics.

    A normal idempotent is exactly an orthogonal projection.  Entries are
    exact, so both identities are compared literally.
    """
    adj = mat_adjoint(m)
    normal = mat_mul(m, adj) == mat_mul(adj, m)
    idempotent = mat_mul(m, m) == m
    return ProjectionCheck(ok=normal and idempotent, normal=normal, idempotent=idempotent)


# ---------------------------------------------------------------------------
# Rational-phase unitary families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseUnitary:
    """Commuting unitaries, diagonal on a common eigenbasis of size ``dim``.

    ``phases[e][i]`` is the rational phase (in [0, 1)) of eigenvector e
    under operator i; commutativity is automatic.
    """

    dim: int
    ops: int
    phases: Tuple[Tuple[Fraction, ...], ...]


def phase_unitary(phases: Sequence[Sequence[Union[Fraction, int, str]]]) -> PhaseUnitary:
    """Normalize a D x m rational phase table into [0, 1) and validate."""
    rows = [[Fraction(p) for p in row] for row in phases]
    if not rows or not rows[0]:
        raise ArityMismatch("need at least one eigenvector and one operator")
    ops = len(rows[0])
    table = []
    for row in rows:
        if len(row) != ops:
            raise ArityMismatch("ragged phase table")
        normalized = tuple(p - math.floor(p) for p in row)
        for p in normalized:
            if p.denominator > MAX_PHASE_DENOMINATOR:
                raise CapExceeded(
                    f"phase denominator {p.denominator} exceeds {MAX_PHASE_DENOMINATOR}"
                )
        table.append(normalized)
    return PhaseUnitary(dim=len(table), ops=ops, phases=tuple(table))


def phase_lcm(u: PhaseUnitary) -> int:
    """lcm of all phase denominators (the common eigenvalue order)."""
    q = 1
    for row in u.phases:
        for p in row:
            q = math.lcm(q, p.denominator)
    return q


def _check_exponents(u: PhaseUnitary, fs: Sequence[BinPoly]) -> int:
    """One exponent polynomial per operator, all in the same variables;
    returns their number of variables."""
    if len(fs) != u.ops:
        raise ArityMismatch(f"{len(fs)} polynomials for {u.ops} operators")
    return intpoly.polytuple(fs).nvars


def power_phases(
    u: PhaseUnitary, fs: Sequence[BinPoly], z: Sequence[int]
) -> Tuple[Fraction, ...]:
    """Eigenvector phases of the product of U_i^{f_i(z)}, each in [0, 1)."""
    _check_exponents(u, fs)
    exps = [f.evaluate(z) for f in fs]
    out = []
    for row in u.phases:
        total = sum((e * p for e, p in zip(exps, row)), Fraction(0))
        out.append(total - math.floor(total))
    return tuple(out)


@dataclass(frozen=True)
class ProjectionDesc:
    """Diagonal 0/1 projection, supported on ``fixed`` eigenvector indices.

    ``certificate``, when present, is the sublattice on which the defining
    operator products equal the identity (verified by
    :func:`verify_limit_certificate`).
    """

    dim: int
    fixed: FrozenSet[int]
    certificate: Optional[Lattice] = None

    def to_matrix(self) -> ComplexMatrix:
        return matrix_exact(
            [
                [GQ_ONE if (i == j and i in self.fixed) else GQ_ZERO for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )


def _phase_polys(u: PhaseUnitary, fs: Sequence[BinPoly]) -> List[BinPoly]:
    """The D phase polynomials g_e = sum_i (q * theta[e][i]) * f_i, q = :func:`phase_lcm`.

    Eigenvector e's phase at z vanishes exactly when q divides g_e(z).
    """
    q = phase_lcm(u)
    combos = []
    for row in u.phases:
        acc = {}
        for f, p in zip(fs, row):
            weight = int(q * p)
            for idx, coef in f.terms:
                acc[idx] = acc.get(idx, 0) + weight * coef
        combos.append(BinPoly(fs[0].nvars, tuple(sorted((i, c) for i, c in acc.items() if c))))
    return combos


def limit_projection(u: PhaseUnitary, fs: Sequence[BinPoly]) -> ProjectionDesc:
    """Long-run projection of the powered family, with a lattice certificate.

    For exponent polynomials vanishing at the origin, the powered product
    is the identity on the diagonal lattice of the least periods of the
    phase polynomials modulo q * Z^D (:func:`keyengine.least_periods`), q
    the common order of the phases.  The certificate lattice is checked
    with :func:`verify_limit_certificate` before being returned, so the
    identity claim is checked, not assumed.
    """
    _check_exponents(u, fs)
    intpoly.exponent_tuple(fs)
    target = lattice.scaled(u.dim, phase_lcm(u))
    cert = lattice.diagonal(keyengine.least_periods(_phase_polys(u, fs), target))
    verify_limit_certificate(u, fs, cert)
    return ProjectionDesc(dim=u.dim, fixed=frozenset(range(u.dim)), certificate=cert)


def verify_limit_certificate(
    u: PhaseUnitary, fs: Sequence[BinPoly], cert: Lattice
) -> None:
    """Decide that all eigen-phases vanish on the whole certificate lattice.

    The claim is that the phase polynomials (:func:`_phase_polys`) land in
    q * Z^D on the lattice; :func:`keyengine.first_escape` decides it on
    the lattice's Hermite coordinates (:func:`keyengine.restrict`).  Raises
    :class:`VerificationFailed` with the bad point whose lattice
    coordinates are lexicographically least among the non-negative ones.
    """
    n = _check_exponents(u, fs)
    if cert.ambient != n:
        raise ArityMismatch(
            f"certificate lattice lives in Z^{cert.ambient}, polynomials take {n} variables"
        )
    # restriction is linear, so restrict the m polynomials f_i once and
    # combine them into the D phase polynomials after
    combos = _phase_polys(u, keyengine.restrict(fs, cert))
    a = keyengine.first_escape(combos, lattice.scaled(u.dim, phase_lcm(u)))
    if a is not None:
        point = keyengine.lattice_point(cert, a)
        raise VerificationFailed(
            witness=point,
            message=f"certificate lattice leaves a nonzero phase at {point}",
        )


def orbit_fixed_projection(
    u: PhaseUnitary, exponents: Iterable[Sequence[int]]
) -> ProjectionDesc:
    """Projection onto the joint fixed space of the given operator products.

    Eigenvector e is fixed iff sum_i e'_i * theta[e][i] is an integer for
    every exponent vector e' in the collection; an empty collection fixes
    everything (the identity).
    """
    vecs = [tuple(int(x) for x in vec) for vec in exponents]
    for vec in vecs:
        if len(vec) != u.ops:
            raise ArityMismatch(f"exponent vector {vec} has length {len(vec)}, expected {u.ops}")
    fixed = set()
    for e, row in enumerate(u.phases):
        if all(
            sum((x * p for x, p in zip(vec, row)), Fraction(0)).denominator == 1
            for vec in vecs
        ):
            fixed.add(e)
    return ProjectionDesc(dim=u.dim, fixed=frozenset(fixed))


# ---------------------------------------------------------------------------
# Quadratic averaging expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AveragingExpansion:
    lhs: Fraction
    rhs: Fraction
    diagonal: Fraction
    cross: Fraction
    equal: bool


def _coerce_vector(vec: Sequence) -> Tuple[GaussRat, ...]:
    out = []
    for e in vec:
        if isinstance(e, GaussRat):
            out.append(e)
        elif isinstance(e, tuple):
            out.append(gq(Fraction(e[0]), Fraction(e[1])))
        else:
            out.append(gq(Fraction(e)))
    return tuple(out)


def inner(x: Sequence[GaussRat], y: Sequence[GaussRat]) -> GaussRat:
    if len(x) != len(y):
        raise DimMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
    acc = GQ_ZERO
    for a, b in zip(x, y):
        acc = acc + a * b.conj()
    return acc


def vdc_expansion(xs: Sequence[Sequence]) -> AveragingExpansion:
    """Exact expansion of the squared norm of an average of N vectors.

    lhs = || (1/N) sum x_n ||^2 ; rhs = (1/N^2) sum_{m,n} <x_m, x_n>, split
    into the diagonal part (1/N^2) sum ||x_n||^2 and the cross terms.  The
    two sides must agree exactly; ``equal`` records the comparison.
    """
    vecs = [_coerce_vector(v) for v in xs]
    if not vecs:
        raise ArityMismatch("need at least one vector")
    dim = len(vecs[0])
    for v in vecs:
        if len(v) != dim:
            raise DimMismatch("vectors of mixed dimension")
    n = len(vecs)
    total = tuple(
        sum((v[i] for v in vecs), GQ_ZERO) for i in range(dim)
    )
    lhs = inner(total, total).re / (n * n)
    rhs_c = GQ_ZERO
    diag = Fraction(0)
    for a in vecs:
        diag += inner(a, a).re
        for b in vecs:
            rhs_c = rhs_c + inner(a, b)
    if rhs_c.im:
        raise VerificationFailed(
            witness=rhs_c.im,
            message=f"full double sum has imaginary part {rhs_c.im}, must be real "
            "(implementation bug)",
        )
    rhs = rhs_c.re / (n * n)
    diag = diag / (n * n)
    return AveragingExpansion(
        lhs=lhs, rhs=rhs, diagonal=diag, cross=rhs - diag, equal=lhs == rhs
    )


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def to_json(u: PhaseUnitary) -> dict:
    return {
        "dim": u.dim,
        "ops": u.ops,
        "phases": [[str(p) for p in row] for row in u.phases],
    }


def from_json(obj) -> PhaseUnitary:
    u = phase_unitary(obj["phases"])
    if u.dim != int(obj.get("dim", u.dim)) or u.ops != int(obj.get("ops", u.ops)):
        raise ArityMismatch("declared dim/ops disagree with the phase table")
    return u
