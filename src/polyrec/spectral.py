"""Finite-order commuting unitary families as exact rational phase data.

A family U_1, ..., U_m of commuting unitaries that are simultaneously
diagonal with roots-of-unity eigenvalues, eigenvector e scaled by
exp(2*pi*i*theta[e][i]) under U_i, is stored over the common order q of
its phases as the D x m integer table q * (theta mod 1).  The long-run
behaviour of products U_1^{f_1(z)} ... U_m^{f_m(z)} along any sufficiently
invariant set of z is then computable exactly, in integers: the product is
the identity on the diagonal lattice of the lcm of the least periods modulo
q * Z of the phase polynomials, one per distinct row
(:func:`keyengine.cyclic_periods`), which is returned as a certificate
verified row by row (:func:`keyengine.cyclic_escape`).  Projection
predicates and the quadratic averaging expansion are checked in exact
Gaussian-rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import intpoly, keyengine, lattice
from .errors import (
    SWEEP_CAP,
    ArityMismatch,
    CapExceeded,
    DimMismatch,
    VerificationFailed,
    charge,
)
from .intpoly import BinPoly
from .lattice import Lattice

MAX_PHASE_DENOMINATOR = 720


# ---------------------------------------------------------------------------
# Exact complex scalars and matrices
# ---------------------------------------------------------------------------


class GaussRat(NamedTuple):
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


class ComplexMatrix(NamedTuple):
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


class ProjectionCheck(NamedTuple):
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


class PhaseUnitary(NamedTuple):
    """Commuting unitaries, diagonal on a common eigenbasis of size ``dim``.

    Operator i scales eigenvector e by exp(2*pi*i * table[e][i] / order):
    ``order`` is q, the lcm of the reduced phase denominators, and
    ``table[e][i]`` is q * (theta[e][i] mod 1), an integer in 0 .. q - 1.
    Built by :func:`phase_unitary` only; commutativity is automatic.
    """

    dim: int
    ops: int
    order: int
    table: Tuple[Tuple[int, ...], ...]


def phase_unitary(phases: Sequence[Sequence[Union[Fraction, int, str]]]) -> PhaseUnitary:
    """Normalize a D x m rational phase table into [0, 1), validate it and
    put it over its common order.  Each distinct phase is parsed once."""
    values = {p: Fraction(p) % 1 for p in set(chain.from_iterable(phases))}
    if not phases or not phases[0]:
        raise ArityMismatch("need at least one eigenvector and one operator")
    ops = len(phases[0])
    q = 1
    for row in phases:
        if len(row) != ops:
            raise ArityMismatch("ragged phase table")
        for p in row:
            den = values[p].denominator
            if den > MAX_PHASE_DENOMINATOR:
                raise CapExceeded(f"phase denominator {den} exceeds {MAX_PHASE_DENOMINATOR}")
            q = math.lcm(q, den)
    scaled = {p: v.numerator * (q // v.denominator) for p, v in values.items()}
    table = tuple(tuple(map(scaled.__getitem__, row)) for row in phases)
    return PhaseUnitary(dim=len(table), ops=ops, order=q, table=table)


def _check_exponents(u: PhaseUnitary, fs: Sequence[BinPoly]) -> int:
    """One exponent polynomial per operator, all in the same variables;
    returns their number of variables."""
    if len(fs) != u.ops:
        raise ArityMismatch(f"{len(fs)} polynomials for {u.ops} operators")
    return intpoly.polytuple(fs).nvars


class ProjectionDesc(NamedTuple):
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
    """The phase polynomials g_e = sum_i table[e][i] * f_i, one per distinct
    row of the phase table, in order of first occurrence.

    Eigenvector e's phase at z vanishes exactly when q = ``u.order``
    divides g_e(z), and equal rows give equal polynomials, so the distinct
    rows decide every eigenvector.
    """
    return [intpoly.combine(fs, row) for row in dict.fromkeys(u.table)]


def _check_budget(u: PhaseUnitary, fs: Sequence[BinPoly], cap: int) -> None:
    """Refuse a family whose certificate would cost more than ``cap``.

    The charge is the number of distinct phase rows times the number of
    distinct binomial indices of ``fs``: each row is decided on its own
    against q * Z by :func:`keyengine.cyclic_periods` and
    :func:`keyengine.cyclic_escape`.  :func:`limit_projection` and
    :func:`verify_limit_certificate` charge it before any lattice is built.
    """
    rows = len(set(u.table))
    indices = len({idx for f in fs for idx, _ in f.terms})
    amount = rows * indices
    charge(amount, cap, f"{rows} distinct phase rows and {indices} binomial indices "
           f"charge {amount}")


def limit_projection(u: PhaseUnitary, fs: Sequence[BinPoly], cap: int = SWEEP_CAP) -> ProjectionDesc:
    """Long-run projection of the powered family, with a lattice certificate.

    For exponent polynomials vanishing at the origin, coordinate j's periods
    of each phase polynomial modulo q * Z, q the common order of the phases,
    are N_j(e) * Z, so the powered product is the identity on the diagonal
    lattice of the lcm over the rows of the N_j(e)
    (:func:`keyengine.cyclic_periods`).  The certificate is checked with
    :func:`verify_limit_certificate` before being returned, so the identity
    claim is checked, not assumed.
    """
    _check_budget(u, fs, cap)
    _check_exponents(u, fs)
    intpoly.exponent_tuple(fs)
    rows = _phase_polys(u, fs)
    cert = lattice.diagonal(keyengine.cyclic_periods(rows, [u.order] * len(rows)))
    del rows  # the check combines rows of its own, on the lattice
    verify_limit_certificate(u, fs, cert, cap=cap)
    return ProjectionDesc(dim=u.dim, fixed=frozenset(range(u.dim)), certificate=cert)


def verify_limit_certificate(
    u: PhaseUnitary, fs: Sequence[BinPoly], cert: Lattice, cap: int = SWEEP_CAP
) -> None:
    """Decide that all eigen-phases vanish on the whole certificate lattice.

    The claim is that each phase polynomial (:func:`_phase_polys`) lands in
    q * Z on the lattice; :func:`keyengine.cyclic_escape` decides it row by
    row on the lattice's Hermite coordinates (:func:`keyengine.restrict`).
    Raises :class:`VerificationFailed` at the least escaping index over the
    rows, which is the bad point whose lattice coordinates are
    lexicographically least among the non-negative ones.
    """
    _check_budget(u, fs, cap)
    n = _check_exponents(u, fs)
    if cert.ambient != n:
        raise ArityMismatch(
            f"certificate lattice lives in Z^{cert.ambient}, polynomials take {n} variables"
        )
    # restriction is linear, so restrict the m polynomials f_i once and
    # combine them into the phase polynomials after
    rows = _phase_polys(u, keyengine.restrict(fs, cert))
    a = keyengine.cyclic_escape(rows, [u.order] * len(rows))
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

    Eigenvector e is fixed iff q divides sum_i e'_i * table[e][i] for every
    exponent vector e' in the collection; an empty collection fixes
    everything (the identity).
    """
    vecs = [tuple(int(x) for x in vec) for vec in exponents]
    for vec in vecs:
        if len(vec) != u.ops:
            raise ArityMismatch(f"exponent vector {vec} has length {len(vec)}, expected {u.ops}")
    fixed = frozenset(
        e for e, row in enumerate(u.table)
        if all(sum(x * t for x, t in zip(vec, row)) % u.order == 0 for vec in vecs)
    )
    return ProjectionDesc(dim=u.dim, fixed=fixed)


# ---------------------------------------------------------------------------
# Quadratic averaging expansion
# ---------------------------------------------------------------------------


class AveragingExpansion(NamedTuple):
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
        "phases": [[str(Fraction(n, u.order)) for n in row] for row in u.table],
    }


def from_json(obj) -> PhaseUnitary:
    u = phase_unitary(obj["phases"])
    if u.dim != int(obj.get("dim", u.dim)) or u.ops != int(obj.get("ops", u.ops)):
        raise ArityMismatch("declared dim/ops disagree with the phase table")
    return u
