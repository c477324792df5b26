"""Unit tests for finite subset-sum combinatorics."""

import itertools
import math
import random

import pytest

from conftest import lift_gap, lift_ip_star, lift_monochromatic
from polyrec import ipstruct as ips
from polyrec.errors import ArityMismatch, SweepCapExceeded


def brute_subset_sums(gens):
    out = set()
    for r in range(1, len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), r):
            out.add(sum(gens[i] for i in combo))
    return out


class TestFsExpand:
    def test_distinct_sums(self):
        assert ips.fs_expand((1, 2, 4)) == frozenset(range(1, 8))

    def test_singleton(self):
        assert ips.fs_expand((9,)) == frozenset({9})

    def test_collapsing(self):
        assert ips.fs_expand((1, 1)) == frozenset({1, 2})

    def test_no_generator_cap(self):
        # the searches charge the cap; the expansion itself is not bounded
        assert ips.fs_expand((1,) * 21) == frozenset(range(1, 22))

    @pytest.mark.parametrize("gens", [(), (0, 1)])
    def test_generators_must_be_positive(self, gens):
        with pytest.raises(ArityMismatch):
            ips.fs_expand(gens)

    def test_against_brute_force(self):
        rng = random.Random(73)
        for _ in range(40):
            k = rng.randint(1, 10)
            gens = tuple(rng.randint(1, 12) for _ in range(k))
            got = ips.fs_expand(gens)
            assert got == frozenset(brute_subset_sums(gens))
            assert len(got) <= 2**k - 1
            if len(set(brute_subset_sums(gens))) == 2**k - 1:
                assert len(got) == 2**k - 1


def periodic_cases(seed, count):
    """Seeded (R, L, k, W): R a subset of 0..L-1 with L <= 14, k <= 6 (past
    L for small L) and W <= 18, kept where the lift oracle has at most
    5 000 tuples to expand."""
    rng = random.Random(seed)
    while count:
        modulus, k, w = rng.randint(1, 14), rng.randint(1, 6), rng.randint(1, 18)
        if math.comb(w + k - 1, k) > 5000:
            continue
        residues = {t for t in range(modulus) if rng.random() < rng.choice([0.2, 0.5, 0.8])}
        if rng.random() < 0.7:
            residues.add(0)
        count -= 1
        yield residues, modulus, k, w


def colorings(seed, count):
    """Seeded (coloring of 1..W, k) with W <= 16 and k <= 8, k past W for
    small W, in two or three colors, or in a single one."""
    rng = random.Random(seed)
    for _ in range(count):
        w, k = rng.randint(1, 16), rng.randint(1, 8)
        palette = rng.choice([1, 2, 3, 3])
        yield {n: rng.randrange(palette) for n in range(1, w + 1)}, k


def lift(residues, modulus, horizon):
    return {t for t in range(1, horizon + 1) if t % modulus in residues}


def formed_sums(candidates, sums, kept, answer):
    """The sums a least-tuple search forms, over ``candidates`` listed
    shorter ones first: a candidate is visited when its parent is the empty
    tuple or a visited tuple that is ``kept``, and it does not come after
    ``answer`` (a prefix comes before its extensions).  A visit forms the
    distinct subset ``sums`` of its parent, plus one for the new generator."""
    live, total = {(): True}, 0
    for tup in candidates:
        if live.get(tup[:-1]) and (answer is None or tup <= answer):
            total += len(sums(tup[:-1])) + 1
            live[tup] = kept(tup)
    return total


class TestMonochromaticSearch:
    def test_parity_example(self):
        coloring = {n: n % 2 for n in range(1, 7)}
        out = ips.find_monochromatic_fs(coloring, 2)
        assert out == (2, 4)
        assert ips.fs_expand(out) == frozenset({2, 4, 6})

    def test_constant_coloring(self):
        coloring = {n: "c" for n in range(1, 7)}
        assert ips.find_monochromatic_fs(coloring, 2) == (1, 2)

    def test_k_one(self):
        coloring = {n: n % 3 for n in range(1, 7)}
        assert ips.find_monochromatic_fs(coloring, 1) == (1,)

    def test_none_verified_by_exhaustion(self):
        rng = random.Random(89)
        for _ in range(60):
            w = rng.randint(3, 10)
            coloring = {n: rng.randint(0, 1) for n in range(1, w + 1)}
            k = rng.randint(1, 3)
            out = ips.find_monochromatic_fs(coloring, k)
            witnesses = []
            for gens in itertools.combinations(range(1, w + 1), k):
                sums = brute_subset_sums(gens)
                if max(sums) <= w and len({coloring[s] for s in sums}) == 1:
                    witnesses.append(gens)
            if out is None:
                assert not witnesses
            else:
                assert out == min(witnesses)
                sums = ips.fs_expand(out)
                assert max(sums) <= w
                assert len({coloring[s] for s in sums}) == 1

    def test_against_the_lift_oracle(self):
        for coloring, k in colorings(101, 600):
            assert ips.find_monochromatic_fs(coloring, k) == lift_monochromatic(coloring, k)

    def test_charge(self):
        # W = 13, k = 2, colored by parity: the least witness is (2, 4); the
        # walk forms 1 sum for each of 1 and 2, and 2 for each pair (1, h),
        # h = 2 .. 13, and (2, 3), (2, 4): 2 + 2 * 14 = 30
        coloring = {n: n % 2 for n in range(1, 14)}
        charge = "increasing 2-tuples in 1..13 form 30 subset sums so far, cap is 29"
        with pytest.raises(SweepCapExceeded, match=charge):
            ips.find_monochromatic_fs(coloring, 2, cap=29)
        assert ips.find_monochromatic_fs(coloring, 2, cap=30) == (2, 4)

    def test_pairs_over_the_window_are_not_extended(self):
        # one color on 1..5, k = 3: no triple fits.  The pairs (1, 2), (1, 3),
        # (1, 4), (2, 3) are kept and each extension of one forms 3 + 1 sums:
        # 3 + 2 * 6 + 4 * 8 = 47.  (2, 4) and (3, 4) total 6 > 5, so their
        # extension by 5 is never formed; it would charge 8 more.
        with pytest.raises(SweepCapExceeded, match="form 47 subset sums so far, cap is 46"):
            ips.find_monochromatic_fs({n: 0 for n in range(1, 6)}, 3, cap=46)
        assert ips.find_monochromatic_fs({n: 0 for n in range(1, 6)}, 3, cap=47) is None

    def test_more_generators_than_the_window_charge_nothing(self):
        # no increasing 30-tuple fits in 1..5, so even 2^30 sums each is free
        assert ips.find_monochromatic_fs({n: 0 for n in range(1, 6)}, 30, cap=0) is None


class TestSearchCharge:
    """The charge of each search is the number of subset sums it forms:
    one visit forms the distinct sums of its prefix, plus one."""

    def test_charge_against_brute_count(self):
        for residues, modulus, k, w in periodic_cases(103, 500):
            top = min(w, modulus)

            def sums(tup):
                return {s % modulus for s in brute_subset_sums(tup)}

            answer = ips.is_ip_star_window(residues, modulus, k, w).witness
            candidates = [t for d in range(1, k + 1)
                          for t in itertools.combinations_with_replacement(range(1, top + 1), d)]
            count = formed_sums(candidates, sums, lambda t: not (sums(t) & residues), answer)
            if k >= modulus and 0 in residues:
                # decided by pigeonhole, without a walk
                assert answer is None
                count = 0
            assert count <= math.comb(w + k - 1, k) * 2**k
            assert ips.is_ip_star_window(residues, modulus, k, w, cap=count).witness == answer
            if count:
                with pytest.raises(SweepCapExceeded, match=f"form {count} subset sums so far, cap is {count - 1}$"):
                    ips.is_ip_star_window(residues, modulus, k, w, cap=count - 1)

        for coloring, k in colorings(107, 500):
            w = len(coloring)

            def kept(tup):
                formed = brute_subset_sums(tup)
                return max(formed) <= w and len({coloring[s] for s in formed}) == 1

            answer = ips.find_monochromatic_fs(coloring, k)
            # a strictly increasing d-prefix leaves room for k - d larger values
            candidates = [t for d in range(1, k + 1) for t in itertools.combinations(range(1, w + 1), d)
                          if t[-1] <= w - k + d]
            count = formed_sums(candidates, brute_subset_sums, kept, answer)
            assert count <= math.comb(w, k) * 2**k
            assert ips.find_monochromatic_fs(coloring, k, cap=count) == answer
            if count:
                with pytest.raises(SweepCapExceeded, match=f"form {count} subset sums so far, cap is {count - 1}$"):
                    ips.find_monochromatic_fs(coloring, k, cap=count - 1)

    def test_huge_tuple_lengths_are_bounded_by_the_cap(self):
        # with L = 1 000 the walk is deep and wide, and the cap ends it
        charge = "non-decreasing 1000000000-tuples in 1..1000 form 1000498 subset sums so far, cap is 1000000$"
        with pytest.raises(SweepCapExceeded, match=charge):
            ips.is_ip_star_window({1}, 1000, 10**9, 10**9)
        assert ips.find_monochromatic_fs({n: 0 for n in range(1, 9)}, 10**9, cap=0) is None

    def test_zero_and_k_at_least_l_hold_by_pigeonhole(self):
        # any L integers have a nonempty subset summing to 0 mod L, so no
        # sum is formed; one integer fewer, all ones, misses 0 mod L
        assert ips.is_ip_star_window({0}, 2, 10**9, 10**9, cap=0) == (True, None)
        assert ips.is_ip_star_window({0}, 1000, 10**9, 10**9, cap=0) == (True, None)
        assert ips.is_ip_star_window({0}, 1000, 1000, 10**9, cap=0) == (True, None)
        assert ips.is_ip_star_window({0}, 1000, 999, 10**9) == (False, (1,) * 999)

    def test_k_at_least_l_agrees_with_the_walk(self):
        # seeded cases with k >= L, against the walk the shortcut skips and
        # the set-based lift
        rng = random.Random(109)
        held = 0
        for _ in range(300):
            modulus = rng.randint(1, 6)
            k, w = rng.randint(modulus, 7), rng.randint(1, 8)
            residues = {t for t in range(modulus) if rng.random() < 0.4}
            free = set(range(modulus)) - residues
            walked = ips._least_tuple(k, min(w, modulus), True, modulus, lambda g: free, 10**6)
            got = ips.is_ip_star_window(residues, modulus, k, w)
            assert got == (walked is None, walked)
            assert got.witness == lift_ip_star(lift(residues, modulus, k * w), k, w)
            held += 0 in residues
        assert 100 < held < 200

    @pytest.mark.parametrize("k, w", [(0, 3), (2, 0), (-1, 4)])
    def test_shape(self, k, w):
        with pytest.raises(ArityMismatch):
            ips.is_ip_star_window({0}, 4, k, w)
        with pytest.raises(ArityMismatch):
            ips.find_monochromatic_fs({n: 0 for n in range(1, w + 1)}, k)


class TestIpStarWindow:
    def test_evens_hold(self):
        assert ips.is_ip_star_window({0}, 2, 2, 8).holds

    def test_multiples_of_four_fail(self):
        verdict = ips.is_ip_star_window({0}, 4, 2, 2)
        assert not verdict.holds and verdict.witness == (1, 1)

    def test_everything_holds(self):
        assert ips.is_ip_star_window(range(8), 8, 2, 8).holds

    def test_least_witness_may_be_the_modulus(self):
        # 0 is not held, so the generator L is the counterexample
        assert ips.is_ip_star_window({1, 2}, 3, 1, 5) == (False, (3,))

    def test_against_brute_force(self):
        # the oracle expands every non-decreasing tuple in 1..W against the
        # lift; the search stops at min(W, L) and works mod L
        for residues, modulus, k, w in periodic_cases(97, 600):
            values = lift(residues, modulus, max(w * k, 2 * modulus))
            verdict = ips.is_ip_star_window(residues, modulus, k, w)
            expected = lift_ip_star(values, k, w)
            assert verdict == (expected is None, expected), (residues, modulus, k, w)

    def test_charge(self):
        # R = {0, 2} mod 3, W = 13 (evens with k = 2 >= L hold by pigeonhole
        # and form nothing): 1 forms {1}, (1, 1), (1, 2) and (1, 3) form two
        # sums each and meet R, and 2 and 3 form one each: 1 + 3 * 2 + 2 = 9
        charge = "non-decreasing 2-tuples in 1..3 form 9 subset sums so far, cap is 8"
        with pytest.raises(SweepCapExceeded, match=charge):
            ips.is_ip_star_window({0, 2}, 3, 2, 13, cap=8)
        assert ips.is_ip_star_window({0, 2}, 3, 2, 13, cap=9).holds
        assert ips.is_ip_star_window({0}, 2, 2, 13, cap=0).holds


class TestSyndeticGap:
    def test_evens(self):
        assert ips.syndetic_gap({0}, 2, 100) == 2

    def test_squares(self):
        # the squares mod 16 are 0, 1, 4 and 9, so the widest cyclic gap is 9 to 16
        assert ips.syndetic_gap({0, 1, 4, 9}, 16, 100) == 7

    def test_empty(self):
        assert ips.syndetic_gap([], 4, 100) is None

    def test_wrap_around(self):
        # 1, 2, 11, 12 in 1..20: the widest gap runs from 2 to 11, across a period
        assert ips.syndetic_gap({1, 2}, 10, 20) == 9

    def test_bad_interval(self):
        with pytest.raises(ArityMismatch):
            ips.syndetic_gap([1], 5, 9)

    def test_against_the_lift(self):
        rng = random.Random(109)
        for _ in range(3000):
            modulus = rng.randint(1, 14)
            residues = {t for t in range(modulus) if rng.random() < rng.choice([0.1, 0.5, 0.9])}
            horizon = rng.randint(2 * modulus, 5 * modulus + 3)
            values = lift(residues, modulus, horizon)
            assert ips.syndetic_gap(residues, modulus, horizon) == lift_gap(values, 1, horizon)


class TestColoringJson:
    def test_round_trip(self):
        obj = {"W": 4, "colors": ["a", "b", "a", "b"]}
        assert ips.coloring_from_json(obj) == {1: '"a"', 2: '"b"', 3: '"a"', 4: '"b"'}

    def test_length_mismatch(self):
        with pytest.raises(ArityMismatch):
            ips.coloring_from_json({"W": 3, "colors": [1]})
