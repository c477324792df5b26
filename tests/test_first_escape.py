"""The binomial-coordinate decision procedure against the grid sweeps it replaced.

Each ``sweep_*`` function below is the exhaustive grid sweep that production
code used before ``keyengine.first_escape``: it enumerates lattice
coordinates over one full period of the claim, in lexicographic order, and
stops at the first point that breaks it.  Every call site must agree with
its sweep on the verdict, the witness and the message.  The stable-rank
sweep instead searches and checks a box window, so it decides less than the
global claim that replaced it: the two agree whenever the window reaches
the rank of v(Z^n), which a window at or above the degree always does.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import product_system, random_binpoly, random_fullrank_lattice, smith_form
from polyrec import dynamics as dy
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec import spectral as sp
from polyrec.errors import HypothesisFailed, PolyrecError, SaturationFailed, VerificationFailed
from polyrec.numutil import lcm_upto

INSTANCES = 1000


# ---------------------------------------------------------------------------
# Reference sweeps
# ---------------------------------------------------------------------------


def lattice_point(basis, coords, ambient):
    point = [0] * ambient
    for c, col in zip(coords, basis):
        for i in range(ambient):
            point[i] += c * col[i]
    return tuple(point)


def membership_period(V, degree):
    """Period of "u(k) in V" per lattice coordinate: index of V in its
    saturation (the product of its Smith invariants) times lcm(1..d)."""
    if V.rank == 0:
        return 1
    S, _ = smith_form(V)
    return math.prod(abs(int(S[i, i])) for i in range(V.rank)) * lcm_upto(degree)


def sweep_membership(v, offset, V, witness):
    d = max(v.degree, 1)
    period = membership_period(V, d)
    side = period * max(1, -(-(d + 1) // period))
    for ks in product(range(side), repeat=witness.rank):
        point = lattice_point(witness.basis, ks, witness.ambient)
        value = [a - b for a, b in zip(v.evaluate(point), offset)]
        if not V.contains(value):
            return point
    return None


def sweep_hypothesis(v, V, hypothesis):
    n = v.nvars
    for ks in product(range(v.degree + 1), repeat=n):
        point = lattice_point(hypothesis.basis, ks, n)
        if lat.smallest_multiple(V, v.evaluate(point)) is None:
            raise HypothesisFailed(
                witness=point,
                message=f"no nonzero multiple of v({point}) lies in the target subgroup",
            )


def sweep_limit_certificate(u, fs, cert):
    side = sp.phase_lcm(u) * lcm_upto(max(f.degree for f in fs))
    for ks in product(range(side), repeat=cert.rank):
        point = lattice_point(cert.basis, ks, cert.ambient)
        if any(sp.power_phases(u, fs, point)):
            raise VerificationFailed(
                witness=point,
                message=f"certificate lattice leaves a nonzero phase at {point}",
            )


def shift(z, j, step):
    """z moved by step along coordinate j."""
    return tuple(c + step * (i == j) for i, c in enumerate(z))


def sweep_periodicity(fs, orders, starts, degree):
    """Re-check each start P_j on its own box [0, P_j)^n, then take per
    coordinate the least P_j / s, s a product of primes <= degree, that is
    still a period."""
    n = fs[0].nvars

    def breaks(z, j, step):
        shifted = shift(z, j, step)
        return any((f.evaluate(shifted) - f.evaluate(z)) % o for f, o in zip(fs, orders))

    def smooth(s):
        for t in range(2, degree + 1):
            while s % t == 0:
                s //= t
        return s == 1

    boxes = [list(product(range(start), repeat=n)) for start in starts]
    failures = []
    for j, (start, box) in enumerate(zip(starts, boxes)):
        z = next((z for z in box if breaks(z, j, start)), None)
        if z is not None:
            failures.append((z, j))
    if failures:
        z, j = min(failures)
        raise VerificationFailed(witness=z, message=f"periodicity failed at {z} in coordinate {j}")
    return tuple(
        next(
            step
            for step in range(1, start + 1)
            if start % step == 0
            and smooth(start // step)
            and not any(breaks(z, j, step) for z in box)
        )
        for j, (start, box) in enumerate(zip(starts, boxes))
    )


def sweep_khintchine(sys_, query):
    period = dy.system_period(sys_, query.fs)
    q = math.lcm(*dy.map_orders(sys_))
    sub = lat.scaled(query.fs[0].nvars, q * lcm_upto(max(f.degree for f in query.fs)))
    mu_a = sys_.measure(sorted(query.A))
    best, witness = None, (0,) * query.fs[0].nvars
    for z in product(*(range(p) for p in period)):
        if not sub.contains(z):
            continue
        value = dy.return_measure(sys_, sorted(query.A), [f.evaluate(z) for f in query.fs])
        if best is None or value > best:
            best, witness = value, z
    return dy.KhintchineReport(
        sup_value=best,
        bound=mu_a * mu_a,
        holds=best >= mu_a * mu_a,
        witness_residue=witness,
        period=period,
    )


def sweep_stable_rank(v, window):
    """Greedy samples over the window, then every window point must lie in their span."""
    gens, samples = [], []
    current = lat.zero_lattice(v.arity)
    for pt in ke.window_points(v.nvars, window):
        img = v.evaluate(pt)
        if lat.smallest_multiple(current, img) is None:
            gens.append(img)
            samples.append(pt)
            current = lat.hnf_from_generators(v.arity, gens)
    for pt in ke.window_points(v.nvars, window):
        if lat.smallest_multiple(current, v.evaluate(pt)) is None:
            raise SaturationFailed(
                witness=pt,
                message=f"image of {pt} escapes the rational span of the image subgroup",
            )
    return ke.RankCertificate(current.rank, tuple(samples), current, window)


def outcome(fn, *args):
    """What a check did: its return value, or the error's type, witness and message."""
    try:
        return ("returned", fn(*args))
    except PolyrecError as exc:
        return (type(exc).__name__, getattr(exc, "witness", None), str(exc))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_subgroup(rng, dim):
    """Full rank, rank deficient or zero, with a small index in its saturation."""
    pick = rng.random()
    if pick < 0.5:
        return random_fullrank_lattice(rng, dim, pivot_max=2)
    if pick < 0.6:
        return lat.zero_lattice(dim)
    gens = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
    return lat.hnf_from_generators(dim, gens)


def random_lattice(rng, n, good_step):
    """Rank 0, rank deficient, full rank, or the multiples of a step that tends to work."""
    pick = rng.random()
    if pick < 0.1:
        return lat.zero_lattice(n)
    if pick < 0.35:
        return lat.scaled(n, good_step)
    if pick < 0.55:
        return lat.full_lattice(n)
    if pick < 0.75 and n > 1:
        return lat.hnf_from_generators(n, [[rng.randint(-3, 3) for _ in range(n)]])
    return random_fullrank_lattice(rng, n, pivot_max=3)


def random_tuple(rng, n, count):
    max_degree = 3 if n == 1 else 2
    return [random_binpoly(rng, n, rng.randint(1, max_degree), bound=4) for _ in range(count)]


# ---------------------------------------------------------------------------
# The procedure itself
# ---------------------------------------------------------------------------


class TestFirstEscape:
    def test_index_is_least_failing_point(self):
        # u(z) = C(z, 2): u(0) = u(1) = 0, u(2) = 1
        u = ip.binpoly(1, {(2,): 1})
        assert ke.first_escape([u], lat.scaled(1, 2)) == (2,)
        assert ke.first_escape([u], lat.full_lattice(1)) is None

    def test_zero_tuple_lands_everywhere(self):
        assert ke.first_escape([ip.binpoly(2, {}), ip.binpoly(2, {})], lat.zero_lattice(2)) is None

    def test_rank_zero_lattice_is_the_origin(self):
        v = [ip.binpoly(2, {(0, 0): 3, (1, 1): 1})]
        assert ke.first_escape_point(v, lat.scaled(1, 3), lat.zero_lattice(2)) is None
        assert ke.first_escape_point(v, lat.scaled(1, 2), lat.zero_lattice(2)) == (0, 0)

    def test_index_agrees_with_least_failing_value(self):
        rng = random.Random(151)
        failures = 0
        for _ in range(300):
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            us = random_tuple(rng, n, K)
            V = random_subgroup(rng, K)
            got = ke.first_escape(us, V)
            box = product(range(4), repeat=n)
            brute = next((z for z in box if not V.contains([u.evaluate(z) for u in us])), None)
            assert got == brute
            failures += got is not None
        assert failures > 100


# ---------------------------------------------------------------------------
# Every call site against its old sweep
# ---------------------------------------------------------------------------


class TestCallSitesAgreeWithSweeps:
    def test_value_membership_and_key_certificates(self):
        rng = random.Random(157)
        failures = 0
        for _ in range(INSTANCES):
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            v = ip.polytuple(random_tuple(rng, n, K))
            V = random_subgroup(rng, K)
            witness = random_lattice(rng, n, rng.choice([2, 4, 6, 12]))
            offset = list(v.evaluate([0] * n))
            if rng.random() < 0.3:
                offset[rng.randrange(K)] += rng.randint(-2, 2)
            expected = sweep_membership(v, offset, V, witness)
            assert ke.verify_value_membership(v, offset, V, witness) == expected
            failures += expected is not None
            if offset == list(v.evaluate([0] * n)):
                doc = {
                    "v": ip.polytuple_to_json(v),
                    "V": lat.to_json(V),
                    "witness": lat.to_json(witness),
                }
                got = outcome(ke.verify_key_certificate_json, doc)
                if expected is None:
                    assert got == ("returned", None)
                else:
                    message = f"certificate lattice fails membership at {expected}"
                    assert got == ("VerificationFailed", expected, message)
        assert INSTANCES // 5 < failures < INSTANCES * 4 // 5

    def test_key_lemma_hypothesis(self):
        rng = random.Random(163)
        failures = 0
        for _ in range(INSTANCES):
            n = rng.randint(1, 2)
            K = rng.randint(1, 3)
            v = ip.polytuple(random_tuple(rng, n, K))
            V = random_subgroup(rng, K)
            hypothesis = random_fullrank_lattice(rng, n, pivot_max=3)
            expected = outcome(sweep_hypothesis, v, V, hypothesis)
            got = outcome(ke.key_lemma_lattice, ke.key_instance(v, V), hypothesis)
            if expected[0] == "returned":
                assert got[0] == "returned" and got[1].rank == n
            else:
                assert got == expected
                failures += 1
        assert INSTANCES // 5 < failures < INSTANCES * 4 // 5

    def test_limit_certificates(self):
        rng = random.Random(167)
        failures = 0
        for _ in range(INSTANCES):
            n = rng.randint(1, 2)
            ops = rng.randint(1, 2)
            dim = rng.randint(1, 3)
            # all-zero phases give q = 1
            dens = rng.choice([(1,), (1, 2), (2, 3), (1, 2, 3)])
            u = sp.phase_unitary(
                [[Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=ops)] for _ in range(dim)]
            )
            fs = random_tuple(rng, n, ops)
            if rng.random() < 0.8:
                fs = [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]
            q = sp.phase_lcm(u)
            cert = random_lattice(rng, n, q * rng.choice([1, 2]))
            expected = outcome(sweep_limit_certificate, u, fs, cert)
            assert outcome(sp.verify_limit_certificate, u, fs, cert) == expected
            failures += expected[0] != "returned"
        assert INSTANCES // 5 < failures < INSTANCES * 4 // 5

    def test_periodicity_recheck(self, monkeypatch):
        # least_periods starts coordinate j from P_j = lcm(1..d) * M_j, M_j
        # the order of the first difference f(z + e_j) - f(z) modulo the
        # diagonal lattice of the orders (here read off its values on
        # [0, 4]^n, which generate the same group).  With lcm(1..d) replaced
        # by a shorter multiplier the re-check of P_j may fail; every P_j
        # stays at least d so each coordinate's box still holds its least
        # failure, and the least P_j / s, s a product of primes <= d, that
        # keeps every f_i mod order_i.
        rng = random.Random(173)
        multiplier = [1]
        monkeypatch.setattr(ke, "lcm_upto", lambda d: multiplier[0])
        failures = 0
        for _ in range(INSTANCES):
            n = rng.randint(1, 2)
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
            sys_ = product_system(sizes)
            fs = [random_binpoly(rng, n, 4 - n, bound=4) for _ in sizes]
            fs = [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]
            orders = lat.diagonal(sizes)
            box = list(product(range(5), repeat=n))
            diffs = [[[f.evaluate(shift(z, j, 1)) - f.evaluate(z) for f in fs] for z in box]
                     for j in range(n)]
            first = [math.lcm(*(lat.smallest_multiple(orders, v) for v in vs)) for vs in diffs]
            d = max(f.degree for f in fs)
            short = [m for m in range(1, lcm_upto(d)) if min(first) * m >= d]
            multiplier[0] = rng.choice(short or [lcm_upto(d)])
            starts = [m * multiplier[0] for m in first]
            expected = outcome(sweep_periodicity, fs, sizes, starts, d)
            assert outcome(dy.system_period, sys_, fs) == expected
            failures += expected[0] != "returned"
        assert INSTANCES // 5 < failures < INSTANCES * 4 // 5

    def test_khintchine(self):
        # The verdict always holds; what must agree is the read-out.
        rng = random.Random(179)
        for _ in range(INSTANCES):
            n = 1 if rng.random() < 0.8 else 2
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            sys_ = product_system(sizes)
            fs = random_tuple(rng, n, len(sizes))
            fs = [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]
            if rng.random() < 0.1:
                fs[0] = ip.binpoly(n, {})
            A = rng.sample(sys_.points, rng.randint(1, sys_.size))
            query = dy.recurrence_query(A, fs, 0)
            assert dy.verify_khintchine(sys_, query) == sweep_khintchine(sys_, query)

    def test_stable_rank(self):
        # A window below the degree may miss the rank of v(Z^n): the sweep
        # then passes on the window alone, and the global claim fails at the
        # least non-negative point outside the span, in the search and in
        # verification of the certificate the sweep made.
        rng = random.Random(181)
        failures = 0
        for _ in range(INSTANCES // 2):
            n = rng.randint(1, 3)
            # up to six components, more than a window of 1 spans in one variable
            v = ip.polytuple(
                [random_binpoly(rng, n, rng.randint(1, 5 - n), bound=4)
                 for _ in range(rng.randint(1, 6))]
            )
            window = rng.randint(1, 3 if n < 3 else 2)
            expected = sweep_stable_rank(v, window)
            got = outcome(ke.stable_rank_subgroup, v, window)
            if got[0] == "returned":
                assert got[1] == expected
                continue
            assert window < v.degree
            box = product(range(v.degree + 1), repeat=n)
            escapes = (z for z in box if lat.smallest_multiple(expected.V, v.evaluate(z)) is None)
            least = next(escapes)
            message = f"image of {least} escapes the rational span of the image subgroup"
            assert got == ("SaturationFailed", least, message)
            assert outcome(ke.verify_rank_certificate, v, expected) == got
            failures += 1
        assert failures > 10

    def test_khintchine_sublattice_claim_is_checked(self, monkeypatch):
        # the origin is read only on a lattice of periods: with the period
        # shrunk to 2, C(z, 2) on a 2-cycle steps by 2z + 1, which is odd,
        # so the re-check refuses it at the origin
        f = ip.binpoly(1, {(2,): 1})
        monkeypatch.setattr(ke, "lcm_upto", lambda d: 1)
        with pytest.raises(VerificationFailed) as err:
            dy.verify_khintchine(product_system([2]), dy.recurrence_query(["0"], [f], 0))
        assert err.value.witness == (0,)
        assert str(err.value) == "periodicity failed at (0,) in coordinate 0"


# ---------------------------------------------------------------------------
# Restriction shortcuts against the pullback routes they replaced
# ---------------------------------------------------------------------------


def pullback_escape_point(us, V, witness):
    """first_escape_point with every u_i pulled back along the Hermite basis,
    the identity basis of Z^n included, and the origin read on rank 0."""
    if witness.rank == 0:
        origin = (0,) * witness.ambient
        return None if V.contains([u.evaluate(origin) for u in us]) else origin
    rows = [[col[i] for col in witness.basis] for i in range(witness.ambient)]
    a = ke.first_escape([ip.pullback(u, rows) for u in us], V)
    return None if a is None else lattice_point(witness.basis, a, witness.ambient)


def combine_then_pullback(u, fs, cert):
    """The limit-certificate decision with the D phase combinations formed
    first and each of them pulled back."""
    q = sp.phase_lcm(u)
    combos = []
    for row in u.phases:
        acc = {}
        for f, p in zip(fs, row):
            for idx, coef in f.terms:
                acc[idx] = acc.get(idx, 0) + int(q * p) * coef
        combos.append(ip.binpoly(fs[0].nvars, acc))
    return pullback_escape_point(combos, lat.scaled(u.dim, q), cert)


class TestRestrictionRoutes:
    def test_whole_lattice_decides_on_the_polynomials(self, monkeypatch):
        rng = random.Random(191)
        cases = []
        for _ in range(INSTANCES // 2):
            n = rng.randint(1, 3)
            us = random_tuple(rng, n, rng.randint(1, 3))
            V = random_subgroup(rng, len(us))
            cases.append((us, V, pullback_escape_point(us, V, lat.full_lattice(n))))
        assert INSTANCES // 10 < sum(e is not None for *_, e in cases) < INSTANCES * 2 // 5

        def no_pullback(*args):
            raise AssertionError("pullback called on Z^n")

        monkeypatch.setattr(ip, "pullback", no_pullback)
        for us, V, expected in cases:
            assert ke.first_escape_point(us, V, lat.full_lattice(us[0].nvars)) == expected

    def test_identity_hypothesis_pulls_back_only_the_post_check(self, monkeypatch):
        # v = (C(z, 2), z) into 2Z x Z: the hypothesis check and the least
        # periods read v itself; only the post-check on 4Z pulls back
        v = ip.polytuple([ip.binpoly(1, {(2,): 1}), ip.binpoly(1, {(1,): 1})])
        V = lat.hnf_from_generators(2, [[2, 0], [0, 1]])
        calls = []
        pullback = ip.pullback
        monkeypatch.setattr(ip, "pullback", lambda f, rows: calls.append(rows) or pullback(f, rows))
        assert ke.key_lemma_lattice(ke.key_instance(v, V), lat.full_lattice(1)) == lat.scaled(1, 4)
        assert calls == [[[4]], [[4]]]

    def test_limit_certificate_restricts_each_polynomial_once(self, monkeypatch):
        calls = []
        pullback = ip.pullback
        monkeypatch.setattr(ip, "pullback", lambda f, rows: calls.append(f) or pullback(f, rows))
        rng = random.Random(193)
        failures = 0
        for _ in range(INSTANCES // 2):
            n = rng.randint(1, 2)
            ops = rng.randint(1, 3)
            dim = rng.randint(1, 3)
            dens = rng.choice([(1,), (1, 2), (2, 3), (1, 2, 3)])
            u = sp.phase_unitary(
                [[Fraction(rng.randrange(d), d) for d in rng.choices(dens, k=ops)] for _ in range(dim)]
            )
            fs = random_tuple(rng, n, ops)
            if rng.random() < 0.8:
                fs = [ip.subtract(f, ip.constant(n, f.constant_term())) for f in fs]
            cert = random_lattice(rng, n, sp.phase_lcm(u) * rng.choice([1, 2]))
            expected = combine_then_pullback(u, fs, cert)
            calls.clear()
            got = outcome(sp.verify_limit_certificate, u, fs, cert)
            assert calls == ([] if cert == lat.full_lattice(n) else fs)
            if expected is None:
                assert got == ("returned", None)
            else:
                message = f"certificate lattice leaves a nonzero phase at {expected}"
                assert got == ("VerificationFailed", expected, message)
                failures += 1
        assert INSTANCES // 10 < failures < INSTANCES * 2 // 5
