"""Unit tests for finite subset-sum combinatorics."""

import itertools
import random

import pytest

from polyrec import ipstruct as ips
from polyrec.errors import ArityMismatch, CapExceeded


def brute_subset_sums(gens):
    out = set()
    for r in range(1, len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), r):
            out.add(sum(gens[i] for i in combo))
    return out


class TestFsExpand:
    def test_distinct_sums(self):
        assert ips.fs_expand(ips.FiniteIP((1, 2, 4))) == frozenset(range(1, 8))

    def test_singleton(self):
        assert ips.fs_expand(ips.FiniteIP((9,))) == frozenset({9})

    def test_collapsing(self):
        assert ips.fs_expand(ips.FiniteIP((1, 1))) == frozenset({1, 2})

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ips.fs_expand(ips.FiniteIP((1,) * 21))

    def test_against_brute_force(self):
        rng = random.Random(73)
        for _ in range(40):
            k = rng.randint(1, 10)
            gens = tuple(rng.randint(1, 12) for _ in range(k))
            got = ips.fs_expand(ips.FiniteIP(gens))
            assert got == frozenset(brute_subset_sums(gens))
            assert len(got) <= 2**k - 1
            if len(set(brute_subset_sums(gens))) == 2**k - 1:
                assert len(got) == 2**k - 1


class TestMonochromaticSearch:
    def test_parity_example(self):
        coloring = {n: n % 2 for n in range(1, 7)}
        out = ips.find_monochromatic_fs(coloring, 2)
        assert out.generators == (2, 4)
        assert ips.fs_expand(out) == frozenset({2, 4, 6})

    def test_constant_coloring(self):
        coloring = {n: "c" for n in range(1, 7)}
        assert ips.find_monochromatic_fs(coloring, 2).generators == (1, 2)

    def test_k_one(self):
        coloring = {n: n % 3 for n in range(1, 7)}
        assert ips.find_monochromatic_fs(coloring, 1).generators == (1,)

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
                assert out.generators == min(witnesses)
                sums = ips.fs_expand(out)
                assert max(sums) <= w
                assert len({coloring[s] for s in sums}) == 1


class TestIpStarWindow:
    def test_evens_hold(self):
        evens = set(range(2, 21, 2))
        assert ips.is_ip_star_window(evens, 2, 8).holds

    def test_multiples_of_four_fail(self):
        verdict = ips.is_ip_star_window({4, 8}, 2, 2)
        assert not verdict.holds and verdict.witness == (1, 1)

    def test_everything_holds(self):
        assert ips.is_ip_star_window(set(range(1, 17)), 2, 8).holds

    def test_against_brute_force(self):
        # the search visits non-decreasing tuples only; the oracle visits
        # every tuple in product order, so both must stop at the same one
        rng = random.Random(97)
        for case in range(80):
            k = rng.randint(1, 4)
            w = rng.randint(2, {1: 12, 2: 12, 3: 9, 4: 6}[k])
            if case % 2:
                s = {n for n in range(1, w * k + 1) if rng.random() < rng.choice([0.3, 0.6, 0.9])}
            else:
                s = set(range(rng.randint(2, 5), w * k + 1, rng.randint(2, 5)))
            verdict = ips.is_ip_star_window(s, k, w)
            brute = None
            for tup in itertools.product(range(1, w + 1), repeat=k):
                if not (brute_subset_sums(tup) & s):
                    brute = tup
                    break
            assert verdict.holds == (brute is None)
            assert verdict.witness == brute

    def test_caps(self):
        with pytest.raises(CapExceeded):
            ips.is_ip_star_window(set(), 2, 50)
        with pytest.raises(CapExceeded):
            ips.is_ip_star_window(set(), 9, 5)


class TestSyndeticGap:
    def test_evens(self):
        assert ips.syndetic_gap(range(2, 101, 2), 1, 100) == 2

    def test_squares(self):
        assert ips.syndetic_gap([i * i for i in range(1, 11)], 1, 100) == 19

    def test_empty(self):
        assert ips.syndetic_gap([], 1, 100) is None

    def test_bad_interval(self):
        with pytest.raises(ArityMismatch):
            ips.syndetic_gap([1], 5, 5)


class TestColoringJson:
    def test_round_trip(self):
        obj = {"W": 4, "colors": ["a", "b", "a", "b"]}
        assert ips.coloring_from_json(obj) == {1: '"a"', 2: '"b"', 3: '"a"', 4: '"b"'}

    def test_length_mismatch(self):
        with pytest.raises(ArityMismatch):
            ips.coloring_from_json({"W": 3, "colors": [1]})
