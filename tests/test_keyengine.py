"""Unit tests for witness-lattice constructions."""

import itertools
import json
import math
import random
import time
from importlib import resources

import pytest
from sympy import factorint, nextprime, primefactors

from conftest import random_binpoly, random_fullrank_lattice, sympy_saturation, verify_certificate
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec import spectral as sp
from polyrec.errors import (
    HypothesisFailed,
    NonzeroConstantTerm,
    SaturationFailed,
    SweepCapExceeded,
    VerificationFailed,
)
from polyrec.numutil import lcm_upto


def rank_certificate(v, cert):
    """The stable-rank certificate document of v and cert."""
    return {
        "certificate_kind": "stable-rank",
        "v": ip.polytuple_to_json(v),
        "r": cert.r,
        "samples": [list(pt) for pt in cert.samples],
        "V": lat.to_json(cert.V),
        "saturation_window": cert.saturation_window,
    }


def vanishing_lattice(fs, q):
    """The least diagonal lattice on which every f_i is divisible by q, the
    way the spectral-limit certificate takes it."""
    return lat.diagonal(ke.least_periods(fs, lat.diagonal([q] * len(fs))))


class TestVanishingLattice:
    def test_linear(self):
        f = ip.binpoly(1, {(1,): 1})
        assert vanishing_lattice([f], 3).basis == ((3,),)

    def test_square_mod_two(self):
        # (z + 2)^2 - z^2 = 4z + 4; q * lcm(1..d) would give 4
        f = ip.from_monomial_coeffs(1, {(2,): 1})
        l = vanishing_lattice([f], 2)
        assert l.basis == ((2,),)
        for k in range(-8, 9):
            assert f.evaluate([2 * k]) % 2 == 0

    def test_square_mod_four(self):
        # the same step of 4z + 4 keeps z^2 mod 4; q * lcm(1..d) would give 8
        f = ip.from_monomial_coeffs(1, {(2,): 1})
        l = vanishing_lattice([f], 4)
        assert l.basis == ((2,),)
        for k in range(-8, 9):
            assert f.evaluate([2 * k]) % 4 == 0

    def test_constant_term_rejected(self):
        # the spectral-limit certificate refuses exponents with f(0) != 0
        with pytest.raises(NonzeroConstantTerm):
            sp.limit_projection(sp.phase_unitary([["1/2"]]), [ip.constant(1, 1)])

    def test_soundness_random_exhaustive(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 2)
            q = rng.randint(1, 6)
            fs = []
            for _ in range(rng.randint(1, 2)):
                f = random_binpoly(rng, n, 4, bound=5)
                fs.append(ip.subtract(f, ip.constant(n, f.constant_term())))
            l = vanishing_lattice(fs, q)
            steps = [col[j] for j, col in enumerate(l.basis)]
            assert all(q * lcm_upto(max(f.degree for f in fs)) % s == 0 for s in steps)
            # every point of one fundamental domain of the returned lattice
            for ks in itertools.product(range(-2, 3), repeat=n):
                z = [s * k for s, k in zip(steps, ks)]
                for f in fs:
                    assert f.evaluate(z) % q == 0


def shifted_lands(us, V, j, step, side):
    """Brute force over [0, side]^n: u(z + step e_j) - u(z) lies in V."""
    for z in itertools.product(range(side + 1), repeat=us[0].nvars):
        moved = list(z)
        moved[j] += step
        if not V.contains([u.evaluate(moved) - u.evaluate(z) for u in us]):
            return False
    return True


def coordinate_orders(us, V):
    """m_a, the least m >= 1 with m * c_a in V, per nonzero binomial index a."""
    indices = {idx for u in us for idx, _ in u.terms if any(idx)}
    return {
        a: lat.smallest_multiple(V, [u.term_map().get(a, 0) for u in us]) for a in sorted(indices)
    }


def prime_division_periods(us, V):
    """Least periods of u on the span of V by division from one start
    P = lcm(1..d) * lcm(m_a) for every coordinate: P is divided by each of
    its prime factors (sympy's factorint) while the quotient still passes."""
    start = lcm_upto(max(u.degree for u in us)) * math.lcm(*coordinate_orders(us, V).values())

    def lands(j, step):
        return ke.first_escape([ip.shift_difference(u, j, step) for u in us], V) is None

    least = []
    for j in range(us[0].nvars):
        assert lands(j, start)
        step = start
        for p in sorted(factorint(start)):
            while step % p == 0 and lands(j, step // p):
                step //= p
        least.append(step)
    return tuple(least)


class TestLeastPeriods:
    @staticmethod
    def random_case(rng):
        """A tuple and a target: full rank, or rank deficient with the tuple
        built from the target's saturation, so it lands in its span."""
        n = rng.randint(1, 2)
        K = rng.randint(1, 3)
        degree = rng.randint(1, 3 if n == 1 else 2)
        if rng.random() < 0.5:
            V = random_fullrank_lattice(rng, K, pivot_max=3)
            return [random_binpoly(rng, n, degree, bound=6) for _ in range(K)], V
        gens = [[rng.randint(-2, 2) for _ in range(K)] for _ in range(rng.randint(1, K))]
        sat = sympy_saturation(lat.hnf_from_generators(K, gens))
        scales = [rng.randint(1, 3) for _ in sat.basis]
        V = lat.hnf_from_generators(K, [[m * e for e in col] for m, col in zip(scales, sat.basis)])
        ws = [random_binpoly(rng, n, degree, bound=4) for _ in sat.basis]
        us = [ip.binpoly(n, {})] * K
        for w, col in zip(ws, sat.basis):
            us = [ip.add(u, ip.binpoly(n, {i: c * e for i, c in w.terms})) for u, e in zip(us, col)]
        return us, V

    def test_against_brute_force(self):
        rng = random.Random(191)
        deficient = 0
        for _ in range(150):
            us, V = self.random_case(rng)
            periods = ke.least_periods(us, V)
            deficient += V.rank < len(us)
            # a shift difference has degree below d, so [0, d]^n decides it
            side = max(u.degree for u in us)
            for j, step in enumerate(periods):
                least = next(
                    N for N in range(1, step + 1) if shifted_lands(us, V, j, N, side)
                )
                assert least == step, (us, V, j)
                for p in primefactors(step):
                    assert not shifted_lands(us, V, j, step // p, side)
        assert deficient > 30

    def test_matches_division_by_every_prime_factor(self):
        # targets carry primes above 10^6, and added C(z_j, 2) and C(z_j, 3)
        # terms leave primes <= d to divide out of the per-coordinate start
        rng = random.Random(197)
        big = divided = 0
        for _ in range(240):
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            large = [1, nextprime(10**6 + rng.randrange(10**6))]
            V = lat.diagonal([rng.choice([1, 2, 3, 4, 6, 12]) * rng.choice(large) for _ in range(K)])
            us = []
            for _ in range(K):
                u = random_binpoly(rng, n, rng.randint(1, 4 - n), bound=6)
                if rng.random() < 0.5:
                    j, k = rng.randrange(n), rng.choice([2, 3])
                    u = ip.add(u, ip.binpoly(n, {tuple(k * (i == j) for i in range(n)): 1}))
                us.append(u)
            periods = ke.least_periods(us, V)
            assert periods == prime_division_periods(us, V), (us, V)
            big += any(p > 10**6 for p in primefactors(math.prod(periods)))
            orders = coordinate_orders(us, V)
            d = max(u.degree for u in us)
            divided += any(
                lcm_upto(d) * math.lcm(*(m for a, m in orders.items() if a[j])) != N
                for j, N in enumerate(periods)
            )
        assert big > 100 and divided > 100, (big, divided)

    def test_off_span_is_refused(self):
        # C(z, 2) takes odd values, which never land on the line of (1, 1)
        us = [ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(2,): 1})]
        with pytest.raises(SaturationFailed) as err:
            ke.least_periods(us, lat.hnf_from_generators(2, [(1, 1)]))
        assert err.value.witness == (1,)


class TestCyclicPeriods:
    def test_against_the_joint_periods(self):
        # the oracles are the joint least periods and the joint first escape
        # modulo the diagonal lattice of the moduli; pairs repeat, and the
        # lcm of the per-pair periods often exceeds their max.  Escapes are
        # decided on the tuple and on its shift differences in z_1 by the
        # period N_1, where every pair lands, and by N_1 over its least
        # prime factor, where only some pairs may escape
        rng = random.Random(211)
        repeated = wider = escaping = landing = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            pool = [(random_binpoly(rng, n, rng.randint(1, 4), bound=6), rng.randint(1, 12))
                    for _ in range(rng.randint(1, 3))]
            pairs = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            us, moduli = [u for u, _ in pairs], [m for _, m in pairs]
            periods = ke.cyclic_periods(us, moduli)
            assert periods == ke.least_periods(us, lat.diagonal(moduli)), pairs
            repeated += len(set(pairs)) < len(pairs)
            alone = [ke.least_periods([u], lat.diagonal([m])) for u, m in set(pairs)]
            wider += any(math.lcm(*steps) > max(steps) for steps in zip(*alone))
            step = periods[0]
            for vs in [us] + [[ip.shift_difference(u, 0, s) for u in us]
                              for s in (step, step // min(primefactors(step), default=1))]:
                escape = ke.cyclic_escape(vs, moduli)
                assert escape == ke.first_escape(vs, lat.diagonal(moduli)), pairs
                escaping += escape is not None
                landing += escape is None
        assert repeated > 100 and wider > 30, (repeated, wider)
        assert escaping > 300 and landing > 300, (escaping, landing)


class TestMembershipVerifier:
    def test_counterexample_found(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1})])
        bad = ke.verify_value_membership(v, [0], lat.diagonal([2]), lat.full_lattice(1))
        assert bad == (1,)

    def test_holds_on_correct_lattice(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1})])
        assert ke.verify_value_membership(v, [0], lat.diagonal([2]), lat.diagonal([2])) is None

    def test_decides_beyond_old_sweep_cap(self):
        # the period grid of this claim has 194^2 points, far more than the
        # 10-point budget that used to refuse it
        v = ip.polytuple([ip.binpoly(2, {(1, 1): 1})])
        assert ke.verify_value_membership(v, [0], lat.diagonal([97]), lat.full_lattice(2)) == (1, 1)
        assert ke.verify_value_membership(v, [0], lat.diagonal([97]), lat.diagonal([97] * 2)) is None

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
        inst = ke.key_instance(v, lat.diagonal([2] * 2))
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
        v = ip.polytuple([ip.binpoly(2, {})])
        inst = ke.key_instance(v, lat.diagonal([7]))
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

    def test_a_shrunk_period_fails_as_verify_certificate_words_it(self, monkeypatch, tmp_path):
        # least_periods with one period divided by its least prime factor;
        # the lattice claim is weaker than periodicity, so only the shrunk
        # lattices that leave V count.  On each, the constructor's post-check
        # fails with the witness and words of verify-certificate on a
        # certificate carrying that lattice.
        rng = random.Random(199)
        checked = 0
        for _ in range(200):
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            v = ip.polytuple([random_binpoly(rng, n, 3, bound=4) for _ in range(K)])
            target = random_fullrank_lattice(rng, K, pivot_max=3)
            periods = list(ke.least_periods(v.components, target))
            shrinkable = [j for j, p in enumerate(periods) if p > 1]
            if not shrinkable:
                continue
            j = rng.choice(shrinkable)
            periods[j] //= min(primefactors(periods[j]))
            shrunk = lat.diagonal(periods)
            point = ke.verify_value_membership(v, v.evaluate([0] * n), target, shrunk)
            if point is None:
                continue
            doc = {
                "certificate_kind": "key-lemma",
                "v": ip.polytuple_to_json(v),
                "V": lat.to_json(target),
                "witness": lat.to_json(shrunk),
            }
            code, out, err = verify_certificate(tmp_path / "kl.cert.json", doc)
            assert (code, out) == (1, "")
            with monkeypatch.context() as patch, pytest.raises(VerificationFailed) as failed:
                patch.setattr(ke, "least_periods", lambda us, V, p=tuple(periods): p)
                ke.key_lemma_lattice(ke.key_instance(v, target), lat.full_lattice(n))
            assert failed.value.witness == point
            assert err == f"verification failed: {failed.value}\n"
            checked += 1
        assert checked >= 20

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
        inst = ke.key_instance(v, lat.diagonal([3] * 2))
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
        v = ip.polytuple([ip.binpoly(1, {}), ip.binpoly(1, {})])
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
        # a certificate whose samples regenerate V but miss the global rank
        # fails at the least point escaping the span: c_2 of z^2 = C(z,1) + 2 C(z,2)
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        bogus = ke.RankCertificate(
            r=1,
            samples=((1,),),
            V=lat.hnf_from_generators(2, [(1, 1)]),
            saturation_window=3,
        )
        with pytest.raises(SaturationFailed) as err:
            ke.verify_rank_certificate(v, bogus)
        assert err.value.witness == (2,)

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
        # A window below the degree may miss the rank of v(Z^n); the claim is
        # global, so those draws fail at the least non-negative escaping point.
        rng = random.Random(73)
        failures = 0
        for _ in range(200):
            n = rng.randint(1, 2)
            v = ip.polytuple(
                [random_binpoly(rng, n, 3, bound=4) for _ in range(rng.randint(1, 4))]
            )
            window = rng.randint(1, 3)
            samples, V = self.repeated_greedy_passes(v, window)
            try:
                cert = ke.stable_rank_subgroup(v, window)
            except SaturationFailed as exc:
                assert window < v.degree
                box = itertools.product(range(v.degree + 1), repeat=n)
                escapes = (z for z in box if lat.smallest_multiple(V, v.evaluate(z)) is None)
                assert exc.witness == next(escapes)
                failures += 1
                continue
            assert (cert.samples, cert.V) == (samples, V)
        assert failures > 0

    @pytest.fixture()
    def evaluated(self, monkeypatch):
        """The points PolyTuple.evaluate is called at, in call order."""
        points = []
        evaluate = ip.PolyTuple.evaluate
        monkeypatch.setattr(
            ip.PolyTuple, "evaluate", lambda self, z: points.append(z) or evaluate(self, z)
        )
        return points

    def test_search_stops_at_the_global_rank(self, evaluated):
        # rank 4 is reached by box radius 2 = the degree: 25 of the 625 window points
        v = ip.polytuple(
            [ip.binpoly(2, {idx: 1}) for idx in [(1, 0), (0, 1), (2, 0), (1, 1)]]
        )
        cert = ke.stable_rank_subgroup(v, 12)
        assert cert.r == 4 and len(evaluated) <= 25

    def test_verification_evaluates_only_the_samples(self, evaluated, monkeypatch, tmp_path):
        payload = json.loads(
            resources.files("polyrec").joinpath("scenarios/stable-rank-parabola.json").read_text()
        )["payload"]
        v = ip.polytuple_from_json(payload["v"])
        cert = ke.stable_rank_subgroup(v, payload["window"])

        def no_sweep(n, window):
            raise AssertionError("window swept")

        monkeypatch.setattr(ke, "window_points", no_sweep)
        evaluated.clear()
        doc = rank_certificate(v, cert)
        assert verify_certificate(tmp_path / "sr.cert.json", doc) == (
            0, "certificate verified: stable-rank\n", ""
        )
        assert evaluated == list(cert.samples)

    def test_window_cap(self):
        v = ip.polytuple([ip.binpoly(2, {(1, 0): 1}), ip.binpoly(2, {(0, 1): 1})])
        window = 500  # 1001^2 points, just over the cap
        assert (2 * window + 1) ** 2 > ke.SWEEP_CAP
        # the search stops by radius deg(v) = 1, so the cap counts 3^2 points
        assert ke.stable_rank_subgroup(v, window).r == 2
        assert ke.stable_rank_subgroup(v, window, cap=9).r == 2
        with pytest.raises(SweepCapExceeded, match="needs 9 points, cap is 8"):
            ke.stable_rank_subgroup(v, window, cap=8)
        # the cap bounds the search on the run path only: verification
        # evaluates the samples and never sweeps the window
        cert = ke.stable_rank_subgroup(v, 3)
        oversized = ke.RankCertificate(cert.r, cert.samples, cert.V, window)
        start = time.perf_counter()
        ke.verify_rank_certificate(v, oversized)
        assert time.perf_counter() - start < 1.0


class TestCertificateJson:
    def test_key_round_trip(self, tmp_path):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        inst = ke.key_instance(v, lat.diagonal([2] * 2))
        out = ke.key_lemma_lattice(inst, lat.full_lattice(1))
        doc = {
            "certificate_kind": "key-lemma",
            "v": ip.polytuple_to_json(v),
            "V": lat.to_json(inst.V),
            "witness": lat.to_json(out),
        }
        assert verify_certificate(tmp_path / "kl.cert.json", doc) == (
            0, "certificate verified: key-lemma\n", ""
        )

    def test_rank_round_trip(self, tmp_path):
        v = ip.polytuple(
            [ip.binpoly(1, {(1,): 1}), ip.from_monomial_coeffs(1, {(2,): 1})]
        )
        cert = ke.stable_rank_subgroup(v, 3)
        assert verify_certificate(tmp_path / "sr.cert.json", rank_certificate(v, cert)) == (
            0, "certificate verified: stable-rank\n", ""
        )
