"""Unit tests for rational-phase unitary families and exact projections."""

import itertools
import random
from fractions import Fraction

import pytest

from polyrec import intpoly as ip
from polyrec import spectral as sp
from polyrec.errors import (
    ArityMismatch,
    CapExceeded,
    DimMismatch,
    NonzeroConstantTerm,
    VerificationFailed,
)

Z = ip.binpoly(1, {(1,): 1})
ZSQ = ip.from_monomial_coeffs(1, {(2,): 1})
Z1Z2 = ip.binpoly(2, {(1, 1): 1})


class TestPhaseUnitary:
    def test_normalization(self):
        u = sp.phase_unitary([["3/2"], ["-1/4"]])
        assert u.phases == ((Fraction(1, 2),), (Fraction(3, 4),))

    def test_denominator_cap(self):
        with pytest.raises(CapExceeded):
            sp.phase_unitary([["1/721"]])

    def test_json_round_trip(self):
        u = sp.phase_unitary([["0", "1/2"], ["1/3", "1/6"]])
        assert sp.from_json(sp.to_json(u)) == u


class TestPowerPhases:
    def test_square_example(self):
        u = sp.phase_unitary([["0"], ["1/2"]])
        assert sp.power_phases(u, [ZSQ], [3]) == (Fraction(0), Fraction(1, 2))

    def test_zero_point(self):
        u = sp.phase_unitary([["1/3"], ["1/7"]])
        assert sp.power_phases(u, [ZSQ], [0]) == (Fraction(0), Fraction(0))

    def test_two_operators(self):
        u = sp.phase_unitary([["1/2", "1/3"]])
        assert sp.power_phases(u, [Z, ZSQ], [6]) == (Fraction(0),)

    def test_arity(self):
        u = sp.phase_unitary([["1/2", "1/3"]])
        with pytest.raises(ArityMismatch):
            sp.power_phases(u, [Z], [1])


class TestLimitProjection:
    def test_square_certificate(self):
        u = sp.phase_unitary([["0"], ["1/2"]])
        desc = sp.limit_projection(u, [ZSQ])
        assert desc.fixed == frozenset({0, 1})
        assert desc.certificate.basis == ((2,),)

    def test_zero_polynomial(self):
        u = sp.phase_unitary([["1/3"], ["1/2"]])
        desc = sp.limit_projection(u, [ip.zero(2)])
        assert desc.certificate.basis == ((1, 0), (0, 1))

    def test_constant_term_rejected(self):
        u = sp.phase_unitary([["1/2"]])
        with pytest.raises(NonzeroConstantTerm):
            sp.limit_projection(u, [ip.binpoly(1, {(1,): 1, (0,): 1})])

    def test_certificate_reverification_catches_tampering(self):
        u = sp.phase_unitary([["0"], ["1/2"]])
        from polyrec import lattice as lat

        with pytest.raises(VerificationFailed):
            sp.verify_limit_certificate(u, [ZSQ], lat.scaled(1, 3))

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

    def test_product_check(self):
        a = sp.ProjectionDesc(dim=4, fixed=frozenset({0, 1}))
        b = sp.ProjectionDesc(dim=4, fixed=frozenset({1, 2}))
        assert sp.projection_product_check([a, b]).fixed == frozenset({1})
        ident = sp.ProjectionDesc(dim=4, fixed=frozenset(range(4)))
        assert sp.projection_product_check([a, ident]).fixed == a.fixed
        c = sp.ProjectionDesc(dim=4, fixed=frozenset({3}))
        assert sp.projection_product_check([a, c]).fixed == frozenset()
        with pytest.raises(DimMismatch):
            sp.projection_product_check([a, sp.ProjectionDesc(dim=2, fixed=frozenset())])


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
