"""Unit tests for witness-lattice constructions."""

import itertools
import random

import pytest

from conftest import random_binpoly, random_fullrank_lattice
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec.errors import (
    HypothesisFailed,
    NonzeroConstantTerm,
    SaturationFailed,
    SweepCapExceeded,
)
from polyrec.numutil import lcm_upto


class TestVanishingLattice:
    def test_linear(self):
        f = ip.binpoly(1, {(1,): 1})
        assert ke.vanishing_lattice([f], 3).basis == ((3,),)

    def test_square_mod_two(self):
        f = ip.from_monomial_coeffs(1, {(2,): 1})
        l = ke.vanishing_lattice([f], 2)
        assert l.basis == ((4,),)
        for k in range(-8, 9):
            assert f.evaluate([4 * k]) % 2 == 0

    def test_square_mod_four(self):
        f = ip.from_monomial_coeffs(1, {(2,): 1})
        l = ke.vanishing_lattice([f], 4)
        assert l.basis == ((8,),)
        for k in range(-8, 9):
            assert f.evaluate([8 * k]) % 4 == 0

    def test_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            ke.vanishing_lattice([ip.constant(1, 1)], 2)

    def test_soundness_random_exhaustive(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 2)
            q = rng.randint(1, 6)
            fs = []
            for _ in range(rng.randint(1, 2)):
                f = random_binpoly(rng, n, 4, bound=5)
                fs.append(ip.subtract(f, ip.constant(n, f.constant_term())))
            l = ke.vanishing_lattice(fs, q)
            period = l.basis[0][0]
            # every point of one fundamental domain of the returned lattice
            for ks in itertools.product(range(2), repeat=n):
                z = [period * k for k in ks]
                for f in fs:
                    assert f.evaluate(z) % q == 0


class TestMembershipVerifier:
    def test_counterexample_found(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1})])
        bad = ke.verify_value_membership(v, [0], lat.scaled(1, 2), lat.full_lattice(1))
        assert bad == (1,)

    def test_holds_on_correct_lattice(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1})])
        assert ke.verify_value_membership(v, [0], lat.scaled(1, 2), lat.scaled(1, 2)) is None

    def test_decides_beyond_old_sweep_cap(self):
        # the period grid of this claim has 194^2 points, far more than the
        # 10-point budget that used to refuse it
        v = ip.polytuple([ip.binpoly(2, {(1, 1): 1})])
        assert ke.verify_value_membership(v, [0], lat.scaled(1, 97), lat.full_lattice(2)) == (1, 1)
        assert ke.verify_value_membership(v, [0], lat.scaled(1, 97), lat.scaled(2, 97)) is None

    def test_decision_procedure_agrees_with_wide_scan(self):
        # the sweep claims to *decide* the for-all statement; cross-check it
        # against a brute-force box far larger than the sweep itself
        rng = random.Random(113)
        for _ in range(30):
            n = rng.randint(1, 2)
            K = rng.randint(1, 2)
            v = ip.polytuple([random_binpoly(rng, n, 3, bound=3) for _ in range(K)])
            target = random_fullrank_lattice(rng, K, pivot_max=2)
            offset = v.evaluate([0] * n)
            verdict = ke.verify_value_membership(v, offset, target, lat.full_lattice(n))
            box = range(-30, 31) if n == 1 else range(-12, 13)
            brute = None
            for pt in itertools.product(box, repeat=n):
                value = [a - b for a, b in zip(v.evaluate(pt), offset)]
                if not target.contains(value):
                    brute = pt
                    break
            if verdict is None:
                assert brute is None
            else:
                value = [a - b for a, b in zip(v.evaluate(verdict), offset)]
                assert not target.contains(value)
                assert brute is not None


class TestKeyLemma:
    def test_parabola_into_even_plane(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        inst = ke.key_instance(v, lat.scaled(2, 2))
        out = ke.key_lemma_lattice(inst, lat.full_lattice(1))
        assert out.rank == 1
        step = out.basis[0][0]
        assert step % 2 == 0  # witness sits inside 2Z
        for k in range(-6, 7):
            a = step * k
            assert a % 2 == 0 and (a * a) % 2 == 0

    def test_full_target_returns_everything(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        inst = ke.key_instance(v, lat.full_lattice(2))
        assert ke.key_lemma_lattice(inst, lat.full_lattice(1)) == lat.full_lattice(1)

    def test_zero_map_returns_everything(self):
        v = ip.polytuple([ip.zero(2)])
        inst = ke.key_instance(v, lat.scaled(1, 7))
        assert ke.key_lemma_lattice(inst, lat.full_lattice(2)) == lat.full_lattice(2)

    def test_hypothesis_failure_reports_witness(self):
        # v(b) = (b, 1): second coordinate never falls in the span of (1, 0)
        v = ip.polytuple([ip.binpoly(1, {(1,): 1}), ip.constant(1, 1)])
        inst = ke.key_instance(v, lat.hnf_from_generators(2, [(1, 0)]))
        with pytest.raises(HypothesisFailed) as err:
            ke.key_lemma_lattice(inst, lat.full_lattice(1))
        assert err.value.witness is not None

    def test_randomized_instances_self_verify(self):
        rng = random.Random(67)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            v = ip.polytuple(
                [random_binpoly(rng, n, 3, bound=4) for _ in range(K)]
            )
            target = random_fullrank_lattice(rng, K, pivot_max=2)
            inst = ke.key_instance(v, target)
            out = ke.key_lemma_lattice(inst, lat.full_lattice(n))
            assert out.rank == n
            checked += 1
            # independent exhaustive re-check: membership is periodic with
            # period index(V) * lcm(1..d) in the witness-lattice coordinates
            offset = v.evaluate([0] * n)
            period = lat.index(target) * lcm_upto(max(v.degree, 1))
            side = max(period, v.degree + 1)
            for ks in itertools.product(range(side), repeat=n):
                pt = [0] * n
                for c, col in zip(ks, out.basis):
                    for i in range(n):
                        pt[i] += c * col[i]
                value = [a - b for a, b in zip(v.evaluate(pt), offset)]
                assert target.contains(value)

    def test_rank_deficient_target(self):
        # v(b) = (b, 2b) always lies on the line spanned by (1, 2); landing
        # inside the sublattice generated by (2, 4) needs even b
        v = ip.polytuple([ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(1,): 2})])
        target = lat.hnf_from_generators(2, [(2, 4)])
        out = ke.key_lemma_lattice(ke.key_instance(v, target), lat.full_lattice(1))
        step = out.basis[0][0]
        assert step % 2 == 0
        for k in range(-6, 7):
            assert target.contains((step * k, 2 * step * k))

    def test_nontrivial_offset(self):
        # v(b) = (b + 5, b^2 - 2): shifting to the origin must be handled
        v = ip.polytuple(
            [
                ip.binpoly(1, {(1,): 1, (0,): 5}),
                ip.from_monomial_coeffs(1, {(2,): 1, (0,): -2}),
            ]
        )
        inst = ke.key_instance(v, lat.scaled(2, 3))
        out = ke.key_lemma_lattice(inst, lat.full_lattice(1))
        step = out.basis[0][0]
        for k in range(-5, 6):
            a = step * k
            assert a % 3 == 0 and (a * a) % 3 == 0


class TestStableRank:
    def test_collinear_images(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(1,): 2})])
        cert = ke.stable_rank_subgroup(v, 3)
        assert cert.r == 1
        assert cert.V.basis == ((1, 2),)

    def test_parabola_full_rank(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        cert = ke.stable_rank_subgroup(v, 3)
        assert cert.r == 2
        assert lat.index(cert.V) is not None

    def test_zero_map(self):
        v = ip.polytuple([ip.zero(1), ip.zero(1)])
        cert = ke.stable_rank_subgroup(v, 3)
        assert cert.r == 0 and cert.V.rank == 0 and cert.samples == ()

    def test_window_monotonicity(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(1, 2)
            v = ip.polytuple(
                [random_binpoly(rng, n, 2, bound=3) for _ in range(rng.randint(1, 3))]
            )
            ranks = [ke.stable_rank_subgroup(v, w).r for w in (2, 3, 4)]
            assert ranks == sorted(ranks)

    def test_certificate_reverification(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        cert = ke.stable_rank_subgroup(v, 3)
        ke.verify_rank_certificate(v, cert)
        tampered = ke.RankCertificate(
            r=cert.r, samples=cert.samples[:-1], V=cert.V, saturation_window=3
        )
        with pytest.raises(Exception):
            ke.verify_rank_certificate(v, tampered)

    def test_saturation_failure_unreachable_by_construction(self):
        # the greedy construction makes window saturation tautological;
        # a certificate with a foreign V must fail instead
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        bogus = ke.RankCertificate(
            r=1,
            samples=((1,),),
            V=lat.hnf_from_generators(2, [(1, 1)]),
            saturation_window=3,
        )
        with pytest.raises(SaturationFailed):
            ke.verify_rank_certificate(v, bogus)

    @staticmethod
    def repeated_greedy_passes(v, window):
        """The greedy construction as it once was: window passes until one adds nothing."""
        gens, samples = [], []
        current = lat.zero_lattice(v.arity)
        changed = True
        while changed:
            changed = False
            for pt in ke.window_points(v.nvars, window):
                img = v.evaluate(pt)
                if lat.smallest_multiple(current, img) is None:
                    gens.append(img)
                    samples.append(pt)
                    current = lat.hnf_from_generators(v.arity, gens)
                    changed = True
        return tuple(samples), current

    def test_one_pass_matches_repeated_passes(self):
        rng = random.Random(73)
        for _ in range(200):
            n = rng.randint(1, 2)
            v = ip.polytuple(
                [random_binpoly(rng, n, 3, bound=4) for _ in range(rng.randint(1, 4))]
            )
            window = rng.randint(1, 3)
            cert = ke.stable_rank_subgroup(v, window)
            assert (cert.samples, cert.V) == self.repeated_greedy_passes(v, window)

    def test_window_cap(self):
        v = ip.polytuple([ip.binpoly(2, {(1, 0): 1}), ip.binpoly(2, {(0, 1): 1})])
        window = 500  # 1001^2 points, just over the cap
        assert (2 * window + 1) ** 2 > ke.SWEEP_CAP
        with pytest.raises(SweepCapExceeded):
            ke.stable_rank_subgroup(v, window)
        cert = ke.stable_rank_subgroup(v, 3)
        oversized = ke.RankCertificate(cert.r, cert.samples, cert.V, window)
        with pytest.raises(SweepCapExceeded):
            ke.verify_rank_certificate(v, oversized)


class TestCertificateJson:
    def test_key_round_trip(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        inst = ke.key_instance(v, lat.scaled(2, 2))
        out = ke.key_lemma_lattice(inst, lat.full_lattice(1))
        doc = ke.key_certificate_json(inst, out)
        ke.verify_key_certificate_json(doc)

    def test_rank_round_trip(self):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        cert = ke.stable_rank_subgroup(v, 3)
        ke.verify_rank_certificate_json(ke.rank_certificate_json(v, cert))
