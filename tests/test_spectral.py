"""Unit tests for rational-phase unitary families and exact projections."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import fraction_phase_polys, random_binpoly, random_fullrank_lattice
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec import spectral as sp
from polyrec.errors import (
    ArityMismatch,
    CapExceeded,
    NonzeroConstantTerm,
    VerificationFailed,
)

ZSQ = ip.from_monomial_coeffs(1, {(2,): 1})
Z1Z2 = ip.binpoly(2, {(1, 1): 1})


class TestPhaseUnitary:
    def test_normalization(self):
        u = sp.phase_unitary([["3/2"], ["-1/4"]])
        assert u.order == 4 and u.table == ((2,), (3,))

    def test_denominator_cap(self):
        with pytest.raises(CapExceeded):
            sp.phase_unitary([["1/721"]])

    def test_json_round_trip(self):
        u = sp.phase_unitary([["0", "1/2"], ["1/3", "1/6"]])
        assert sp.from_json(sp.to_json(u)) == u


def random_phase_table(rng):
    """A raw phase table: 1..3 operators, denominators up to 720, phases in
    [-2, 3) given as strings or Fractions, and rows drawn from a pool of up
    to 6, so rows repeat."""
    ops = rng.randint(1, 3)
    dens = rng.sample([*range(1, 13), 360, 720, rng.randint(13, 720)], rng.randint(1, 3))
    pool = [
        [Fraction(rng.randrange(-2 * d, 3 * d), d) for d in rng.choices(dens, k=ops)]
        for _ in range(rng.randint(1, 6))
    ]
    rows = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
    return [[rng.choice([str, Fraction])(p) for p in row] for row in rows]


class TestIntegerTable:
    """The phase table over its common order against the parsed phases,
    which the tests take with Fraction."""

    def test_order_and_table_are_the_phases_mod_1(self):
        rng = random.Random(311)
        negative = large = repeated = 0
        for _ in range(400):
            phases = random_phase_table(rng)
            u = sp.phase_unitary(phases)
            parsed = [[Fraction(p) for p in row] for row in phases]
            assert u.order == math.lcm(*(p.denominator for row in parsed for p in row))
            assert [[Fraction(t, u.order) for t in row] for row in u.table] == [
                [p % 1 for p in row] for row in parsed
            ]
            assert sp.to_json(u) == {
                "dim": len(phases),
                "ops": len(phases[0]),
                "phases": [[str(p - math.floor(p)) for p in row] for row in parsed],
            }
            negative += any(p < 0 for row in parsed for p in row)
            large += any(p >= 1 for row in parsed for p in row)
            repeated += len(set(u.table)) < u.dim
        assert negative > 300 and large > 300 and repeated > 200, (negative, large, repeated)

    def test_phase_polys_are_one_combine_per_distinct_row(self, monkeypatch):
        calls = []
        combine = ip.combine
        monkeypatch.setattr(ip, "combine", lambda fs, row: calls.append(row) or combine(fs, row))
        rng = random.Random(313)
        for _ in range(300):
            phases = random_phase_table(rng)
            u = sp.phase_unitary(phases)
            n = rng.randint(1, 3)
            fs = [random_binpoly(rng, n, rng.randint(1, 3), bound=6) for _ in phases[0]]
            calls.clear()
            got = sp._phase_polys(u, fs)
            assert (u.order, got) == fraction_phase_polys(phases, fs), (phases, fs)
            assert calls == list(dict.fromkeys(u.table))

    def test_orbit_fixed_projection_is_the_fraction_test(self):
        rng = random.Random(317)
        proper = 0
        for _ in range(400):
            phases = random_phase_table(rng)
            u = sp.phase_unitary(phases)
            # multiples of small orders, so that some rows are fixed and some not
            vecs = [
                tuple(rng.randint(-3, 3) * rng.choice([1, 2, 6, 12, 60]) for _ in phases[0])
                for _ in range(rng.randint(0, 3))
            ]
            by_fractions = {
                e
                for e, row in enumerate(phases)
                if all(sum(x * Fraction(p) for x, p in zip(vec, row)).denominator == 1 for vec in vecs)
            }
            by_table = {
                e
                for e, row in enumerate(u.table)
                if all(sum(x * t for x, t in zip(vec, row)) % u.order == 0 for vec in vecs)
            }
            fixed = sp.orbit_fixed_projection(u, vecs).fixed
            assert by_fractions == by_table == fixed, (phases, vecs)
            proper += 0 < len(fixed) < u.dim
        assert proper > 40, proper


class TestLimitProjection:
    def test_square_certificate(self):
        u = sp.phase_unitary([["0"], ["1/2"]])
        desc = sp.limit_projection(u, [ZSQ])
        assert desc.fixed == frozenset({0, 1})
        assert desc.certificate.basis == ((2,),)

    def test_zero_polynomial(self):
        u = sp.phase_unitary([["1/3"], ["1/2"]])
        desc = sp.limit_projection(u, [ip.binpoly(2, {})])
        assert desc.certificate.basis == ((1, 0), (0, 1))

    def test_constant_term_rejected(self):
        u = sp.phase_unitary([["1/2"]])
        with pytest.raises(NonzeroConstantTerm):
            sp.limit_projection(u, [ip.binpoly(1, {(1,): 1, (0,): 1})])

    def test_mixed_variable_counts_rejected(self):
        from polyrec import lattice as lat

        u = sp.phase_unitary([["0", "1/2"], ["1/2", "1/3"]])
        fs = [Z1Z2, ip.binpoly(1, {(2,): 1})]
        with pytest.raises(ArityMismatch, match="mixed variable counts 2 and 1"):
            sp.limit_projection(u, fs)
        with pytest.raises(ArityMismatch, match="mixed variable counts 2 and 1"):
            sp.verify_limit_certificate(u, fs, lat.full_lattice(2))

    def test_certificate_reverification_catches_tampering(self):
        u = sp.phase_unitary([["0"], ["1/2"]])
        from polyrec import lattice as lat

        with pytest.raises(VerificationFailed):
            sp.verify_limit_certificate(u, [ZSQ], lat.diagonal([3]))

    def test_section_fixture_all_identity(self):
        # bilinear exponent, its shifted two-block version, and single shifts
        u = sp.phase_unitary([["0"], ["1/2"], ["1/3"]])
        p_desc = sp.limit_projection(u, [Z1Z2])
        assert p_desc.fixed == frozenset(range(3))
        # auxiliary exponent a1*z2 + a2*z1 over blocks (a, z)
        aux = ip.binpoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
        q_desc = sp.limit_projection(u, [aux])
        assert q_desc.fixed == frozenset(range(3))
        for a in [(1, 2), (3, 0), (2, 2)]:
            qa = ip.binpoly(2, {(0, 1): a[0], (1, 0): a[1]})  # a1*z2 + a2*z1
            qa_desc = sp.limit_projection(u, [qa])
            assert qa_desc.fixed == frozenset(range(3))


def all_rows_phase_polys(u, fs):
    """One phase polynomial per eigenvector, equal rows repeated: the path
    spectral took before it kept the distinct rows only."""
    polys = []
    for row in u.table:
        acc = {}
        for f, t in zip(fs, row):
            for idx, coef in f.terms:
                acc[idx] = acc.get(idx, 0) + t * coef
        polys.append(ip.binpoly(fs[0].nvars, acc))
    return polys


def all_rows_certificate(u, fs):
    target = lat.diagonal([u.order] * u.dim)
    return lat.diagonal(ke.least_periods(all_rows_phase_polys(u, fs), target))


def all_rows_escape(u, fs, cert):
    """The point at which cert leaves a nonzero phase, or None."""
    combos = all_rows_phase_polys(u, ke.restrict(fs, cert))
    a = ke.first_escape(combos, lat.diagonal([u.order] * u.dim))
    return None if a is None else ke.lattice_point(cert, a)


class TestDistinctRows:
    """Spectral-limit decided on the distinct phase rows against all D rows."""

    def test_matches_all_rows(self):
        rng = random.Random(211)
        repeated = several = failures = 0
        for _ in range(300):
            n, ops = rng.randint(1, 2), rng.randint(1, 2)
            dens = rng.choice([(2,), (2, 3), (3, 4), (2, 3, 4)])
            rows = [
                [Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=ops)]
                for _ in range(rng.randint(1, 3))
            ]
            u = sp.phase_unitary([rng.choice(rows) for _ in range(rng.randint(1, 8))])
            fs = [random_binpoly(rng, n, rng.randint(1, 3), bound=4) for _ in range(ops)]
            fs = [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]
            distinct = len(set(u.table))
            repeated += distinct < u.dim
            several += distinct > 1
            cert = sp.limit_projection(u, fs).certificate
            assert cert == all_rows_certificate(u, fs), (u, fs)
            tampered = rng.choice(
                [lat.full_lattice(n), random_fullrank_lattice(rng, n, pivot_max=4)]
            )
            expected = all_rows_escape(u, fs, tampered)
            try:
                sp.verify_limit_certificate(u, fs, tampered)
                got = None
            except VerificationFailed as exc:
                assert str(exc) == f"certificate lattice leaves a nonzero phase at {exc.witness}"
                got = exc.witness
            assert got == expected, (u, fs, tampered)
            failures += expected is not None
        assert repeated > 150 and several > 100 and 50 < failures < 250, (repeated, several, failures)


def joint_target(u, fs):
    """The distinct rows' phase polynomials and q * Z^k, k of them: the one
    target that spectral decided all the rows against before it took them
    one by one."""
    combos = sp._phase_polys(u, fs)
    return combos, lat.diagonal([u.order] * len(combos))


def joint_certificate(u, fs):
    return lat.diagonal(ke.least_periods(*joint_target(u, fs)))


def joint_escape(u, fs, cert):
    a = ke.first_escape(*joint_target(u, ke.restrict(fs, cert)))
    return None if a is None else ke.lattice_point(cert, a)


def random_family(rng):
    """A phase table of 1..40 distinct rows over 1..3 operators, with
    denominators in 1..12 and 720, and exponent polynomials in 1..3
    variables that vanish at the origin."""
    n, ops = rng.randint(1, 3), rng.randint(1, 3)
    dens = rng.sample([*range(1, 13), 720], rng.randint(1, 3))
    rows = [
        [Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=ops)]
        for _ in range(rng.randint(1, 40))
    ]
    fs = [random_binpoly(rng, n, rng.randint(1, 3), bound=6) for _ in range(ops)]
    return sp.phase_unitary(rows), [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]


class TestRowByRow:
    """Each distinct row decided against q * Z, against all of them at once
    against q * Z^k, kept as the oracle."""

    def test_matches_the_joint_target(self):
        rng = random.Random(283)
        wide = by_max = tampered = failures = 0
        for _ in range(150):
            u, fs = random_family(rng)
            wide += len(set(u.table)) > 10
            cert = sp.limit_projection(u, fs).certificate
            joint = joint_certificate(u, fs)
            assert cert == joint, (u, fs)
            # the oracle tells the rows' periods combined by max from their lcm
            q = lat.diagonal([u.order])
            periods = [ke.least_periods([g], q) for g in sp._phase_polys(u, fs)]
            by_max += lat.diagonal([max(s) for s in zip(*periods)]) != joint
            steps = [col[j] for j, col in enumerate(cert.basis)]
            coarse = [j for j, s in enumerate(steps) if s > 1]
            if not coarse:
                continue
            j = rng.choice(coarse)
            steps[j] = rng.choice([d for d in range(1, steps[j]) if steps[j] % d == 0])
            bad = lat.diagonal(steps)
            expected = joint_escape(u, fs, bad)
            try:
                sp.verify_limit_certificate(u, fs, bad)
                got = None
            except VerificationFailed as exc:
                got = exc.witness
            assert got == expected, (u, fs, bad)
            tampered += 1
            failures += expected is not None
        assert wide > 50 and by_max > 20, (wide, by_max)
        assert tampered > 100 and failures > 80, (tampered, failures)

    def test_no_target_is_wider_than_the_polynomials(self, monkeypatch):
        widths = []
        diagonal = lat.diagonal

        def recorded(steps):
            widths.append(len(steps))
            return diagonal(steps)

        monkeypatch.setattr(lat, "diagonal", recorded)
        rows = [[f"{e % 40}/40", f"{e // 40}/25"] for e in range(1000)]
        fs = [ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(2,): 1})]
        # the raised cap keeps this a check of the widths, whatever the charge
        desc = sp.limit_projection(sp.phase_unitary(rows), fs, cap=10**7)
        assert desc.certificate == diagonal([200])
        assert widths and max(widths) == 1, max(widths)


class TestOrbitFixed:
    def test_single_exponent(self):
        u = sp.phase_unitary([["0"], ["1/2"], ["1/3"]])
        assert sp.orbit_fixed_projection(u, [(2,)]).fixed == frozenset({0, 1})

    def test_empty_exponents_identity(self):
        u = sp.phase_unitary([["0"], ["1/2"], ["1/3"]])
        assert sp.orbit_fixed_projection(u, []).fixed == frozenset({0, 1, 2})

    def test_unit_exponent(self):
        u = sp.phase_unitary([["0"], ["1/2"], ["1/3"]])
        assert sp.orbit_fixed_projection(u, [(1,)]).fixed == frozenset({0})

    def test_multi_operator(self):
        u = sp.phase_unitary([["1/2", "1/2"], ["1/2", "1/4"]])
        # product U1*U2 fixes eigenvector 0 only (1/2+1/2 = 1)
        assert sp.orbit_fixed_projection(u, [(1, 1)]).fixed == frozenset({0})


class TestProjectionPredicates:
    def test_identity(self):
        m = sp.matrix_exact([[1, 0], [0, 1]])
        assert sp.is_orthogonal_projection(m).ok

    def test_idempotent_not_normal(self):
        check = sp.is_orthogonal_projection(sp.matrix_exact([[1, 1], [0, 0]]))
        assert not check.ok and check.idempotent and not check.normal

    def test_averaging_matrix(self):
        half = Fraction(1, 2)
        m = sp.matrix_exact([[half, half], [half, half]])
        assert sp.is_orthogonal_projection(m).ok

    def test_realized_projections_pass_and_commute(self):
        u = sp.phase_unitary([["0"], ["1/2"], ["1/3"], ["1/6"]])
        descs = [
            sp.limit_projection(u, [ZSQ]),
            sp.orbit_fixed_projection(u, [(2,)]),
            sp.orbit_fixed_projection(u, [(3,)]),
            sp.orbit_fixed_projection(u, [(1,)]),
        ]
        mats = [d.to_matrix() for d in descs]
        for m in mats:
            assert sp.is_orthogonal_projection(m).ok
        for a, b in itertools.combinations(mats, 2):
            assert sp.mat_mul(a, b) == sp.mat_mul(b, a)


class TestAveragingExpansion:
    def test_equal_unit_vectors(self):
        out = sp.vdc_expansion([[1, 0], [1, 0]])
        assert out.lhs == 1 and out.diagonal == Fraction(1, 2)
        assert out.cross == Fraction(1, 2) and out.equal

    def test_orthonormal(self):
        out = sp.vdc_expansion([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert out.lhs == Fraction(1, 3) and out.cross == 0 and out.equal

    def test_random_exact(self):
        rng = random.Random(109)
        for _ in range(100):
            n = rng.randint(1, 8)
            d = rng.randint(1, 5)
            vecs = [
                [
                    sp.gq(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    )
                    for _ in range(d)
                ]
                for _ in range(n)
            ]
            out = sp.vdc_expansion(vecs)
            assert out.equal
            assert out.rhs == out.diagonal + out.cross
