"""Unit tests for the canonical integer-lattice algebra."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_fullrank_lattice, sympy_saturation
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec.errors import ArityMismatch


def residue_oracle(gens, index):
    """All residues of the generated subgroup modulo index * Z^2.

    Independent membership oracle for full-rank planar lattices: v is a
    member iff v mod index matches one of these residues (index * Z^2 is
    always inside a full-rank lattice of that index).
    """
    residues = set()
    for a, b in itertools.product(range(-index, index + 1), repeat=2):
        vec = tuple((a * g1 + b * g2) % index for g1, g2 in zip(*gens))
        residues.add(vec)
    return residues


class TestHnf:
    def test_full_plane(self):
        l = lat.hnf_from_generators(2, [(2, 0), (0, 3), (1, 1)])
        assert l.basis == ((1, 0), (0, 1))

    def test_zero_lattice(self):
        l = lat.hnf_from_generators(2, [])
        assert l.rank == 0 and l.basis == ()

    def test_diagonal(self):
        l = lat.hnf_from_generators(2, [(2, 0), (0, 3)])
        assert l.basis == ((2, 0), (0, 3)) and l.rank == 2

    def test_canonical_under_permutation_and_combination(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            gens = [
                [rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(1, 4))
            ]
            base = lat.hnf_from_generators(n, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert lat.hnf_from_generators(n, shuffled) == base
            extra = [0] * n
            for g in gens:
                c = rng.randint(-3, 3)
                extra = [e + c * x for e, x in zip(extra, g)]
            assert lat.hnf_from_generators(n, gens + [extra]) == base

    def test_pivot_shape(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 4)
            gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(3)]
            l = lat.hnf_from_generators(n, gens)
            rows = l.pivot_rows
            # the rows are fixed by the basis, so equal lattices have equal rows,
            # hashes and JSON
            fresh = lat.hnf_from_generators(n, gens)
            assert l == fresh and hash(l) == hash(fresh)
            assert lat.to_json(l) == lat.to_json(fresh) and lat.from_json(lat.to_json(l)) == l
            assert list(rows) == sorted(rows)
            for j, (r, col) in enumerate(zip(rows, l.basis)):
                assert col[r] > 0
                assert all(col[i] == 0 for i in range(r))
                for k in range(j):
                    assert 0 <= l.basis[k][r] < col[r]

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            lat.hnf_from_generators(2, [(1, 2, 3)])


class TestRankIndexContains:
    def test_rank_examples(self):
        assert lat.full_lattice(2).rank == 2
        assert lat.zero_lattice(2).rank == 0
        assert lat.hnf_from_generators(2, [(2, 4)]).rank == 1

    def test_index_examples(self):
        assert lat.index(lat.hnf_from_generators(2, [(2, 0), (0, 3)])) == 6
        assert lat.index(lat.full_lattice(2)) == 1
        assert lat.index(lat.hnf_from_generators(2, [(2, 4)])) is None

    def test_contains_examples(self):
        l = lat.hnf_from_generators(2, [(2, 0), (0, 3)])
        assert l.contains((4, 6))
        assert not l.contains((1, 0))
        assert l.contains((0, 0))
        assert lat.zero_lattice(3).contains((0, 0, 0))

    def test_finite_index_iff_full_rank(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 3)
            gens = [
                [rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(0, 3))
            ]
            l = lat.hnf_from_generators(n, gens)
            assert (lat.index(l) is None) == (l.rank < n)

    def test_brute_force_oracle_plane(self):
        rng = random.Random(33)
        done = 0
        while done < 100:
            g1 = (rng.randint(-6, 6), rng.randint(-6, 6))
            g2 = (rng.randint(-6, 6), rng.randint(-6, 6))
            det = abs(g1[0] * g2[1] - g1[1] * g2[0])
            if det == 0 or det > 36:
                continue
            done += 1
            l = lat.hnf_from_generators(2, [g1, g2])
            assert l.rank == 2
            assert lat.index(l) == det
            residues = residue_oracle((g1, g2), det)
            for pt in itertools.product(range(-8, 9), repeat=2):
                expected = tuple(c % det for c in pt) in residues
                assert l.contains(pt) == expected

    def test_membership_by_small_combinations(self):
        rng = random.Random(35)
        for _ in range(30):
            g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            l = lat.hnf_from_generators(2, [g1, g2])
            for a, b in itertools.product(range(-6, 7), repeat=2):
                v = tuple(a * x + b * y for x, y in zip(g1, g2))
                assert l.contains(v)


class TestSmallestMultiple:
    def test_example(self):
        l = lat.hnf_from_generators(2, [(2, 0), (0, 3)])
        assert lat.smallest_multiple(l, (1, 1)) == 6

    def test_member_gives_one(self):
        l = lat.hnf_from_generators(2, [(2, 0), (0, 3)])
        assert lat.smallest_multiple(l, (4, 3)) == 1

    def test_off_span(self):
        assert lat.smallest_multiple(lat.zero_lattice(2), (1, 0)) is None
        line = lat.hnf_from_generators(2, [(1, 2)])
        assert lat.smallest_multiple(line, (1, 3)) is None

    def test_minimality_by_scan(self):
        rng = random.Random(39)
        for _ in range(40):
            l = random_fullrank_lattice(rng, 2, pivot_max=4)
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            n = lat.smallest_multiple(l, v)
            assert n is not None
            assert l.contains([n * e for e in v])
            for smaller in range(1, n):
                assert not l.contains([smaller * e for e in v])

    def test_divides_index(self):
        rng = random.Random(45)
        for _ in range(40):
            l = random_fullrank_lattice(rng, 3, pivot_max=3)
            idx = lat.index(l)
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            n = lat.smallest_multiple(l, v)
            assert n is not None and idx % n == 0

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 2.0])
    def test_non_integer_entry_raises(self, entry):
        l = lat.diagonal([3] * 2)
        for walk in (lat.smallest_multiple, lat.contains):
            with pytest.raises(TypeError):
                walk(l, [1, entry])


def fraction_walk(L, v):
    """The least N >= 1 with N * v in L, or None, by the rational solve that
    lattice.py used before its integer walk: basis @ x = v over Q down the
    pivot rows, N the lcm of the denominators of x."""
    residual = [Fraction(e) for e in v]
    multiple = 1
    for r, col in zip(L.pivot_rows, L.basis):
        c = residual[r] / col[r]
        if c:
            multiple = math.lcm(multiple, c.denominator)
            for i in range(r, L.ambient):
                residual[i] -= c * col[i]
    return None if any(residual) else multiple


def seeded_lattice(rng, shape):
    """A lattice in Z^1 to Z^5 of the given shape, from generators that are
    not in Hermite form and have negative entries."""
    k = rng.randint(1, 5)
    if shape == "zero":
        return lat.hnf_from_generators(k, [[0] * k] * rng.randint(0, 2))
    if shape == "deficient":
        k = max(k, 2)
        basis = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rng.randint(1, k - 1))]
        combos = [[sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(k)] for _ in basis]
        return lat.hnf_from_generators(k, basis + combos)
    gens = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k + rng.randint(0, 2))]
    return lat.hnf_from_generators(k, gens)


class TestIntegerWalk:
    """smallest_multiple and contains against the rational solve they replace."""

    def test_matches_fraction_walk(self):
        rng = random.Random(61)
        orders = set()
        for _ in range(400):
            shape = rng.choice(["zero", "full", "full", "deficient"])
            L = seeded_lattice(rng, shape)
            for _ in range(6):
                # now and then the origin or a lattice vector divided by a
                # small integer, otherwise any vector with negative entries
                pick = rng.random()
                if pick < 0.1:
                    v = [0] * L.ambient
                elif L.rank and pick < 0.55:
                    point = ke.lattice_point(L, [rng.randint(-4, 4) for _ in L.basis])
                    g = math.gcd(*point, rng.randint(1, 12)) or 1
                    v = [e // g for e in point]
                else:
                    v = [rng.randint(-30, 30) for _ in range(L.ambient)]
                expected = fraction_walk(L, v)
                assert lat.smallest_multiple(L, v) == expected, (L, v)
                assert lat.contains(L, v) == (expected == 1), (L, v)
                orders.add((shape, expected if expected in (None, 1) else "more"))
        assert {("zero", None), ("zero", 1), ("full", 1), ("full", "more")} <= orders
        assert {("deficient", None), ("deficient", 1), ("deficient", "more")} <= orders


def random_lattice(rng):
    """A lattice in Z^1 to Z^4 of any rank, the zero lattice included."""
    k = rng.randint(1, 4)
    gens = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(0, k))]
    return lat.hnf_from_generators(k, gens)


def random_vector(rng, V):
    """Half the time a primitive integer vector in the rational span of V,
    which V itself often misses; otherwise any small integer vector."""
    if V.rank and rng.random() < 0.5:
        coefs = [rng.randint(-3, 3) for _ in V.basis]
        v = [sum(c * col[i] for c, col in zip(coefs, V.basis)) for i in range(V.ambient)]
        g = math.gcd(*v) or 1
        return [e // g for e in v]
    return [rng.randint(-5, 5) for _ in range(V.ambient)]


class TestRationalSpan:
    """The span test of smallest_multiple against a saturation from sympy's Smith form."""

    def test_smallest_multiple_matches_saturation(self):
        rng = random.Random(57)
        outcomes = set()
        for _ in range(300):
            V = random_lattice(rng)
            sat = sympy_saturation(V)
            for _ in range(5):
                x = random_vector(rng, V)
                found = lat.smallest_multiple(V, x) is not None
                assert found == sat.contains(x), (V, x)
                outcomes.add((found, V.rank < V.ambient, V.contains(x)))
        # in V, in the span but not in V, and off the span of a deficient V
        assert {(True, False, True), (True, True, False), (False, True, False)} <= outcomes

    def test_span_escape_matches_saturation_escape(self):
        rng = random.Random(58)
        escapes = 0
        for _ in range(300):
            V = random_lattice(rng)
            n = rng.randint(1, 2)
            coords = {
                tuple(rng.randint(0, 2) for _ in range(n)): random_vector(rng, V)
                for _ in range(rng.randint(1, 4))
            }
            us = [
                ip.binpoly(n, {idx: c[i] for idx, c in coords.items()}) for i in range(V.ambient)
            ]
            expected = ke.first_escape(us, sympy_saturation(V))
            assert ke.first_escape(us, V, span=True) == expected, (us, V)
            escapes += expected is not None
        assert 30 < escapes < 270


class TestScaledAndJson:
    def test_scaled_examples(self):
        assert lat.diagonal([1] * 2) == lat.full_lattice(2)
        assert lat.diagonal([6]).basis == ((6,),)
        assert lat.index(lat.diagonal([4] * 2)) == 16

    def test_diagonal_is_canonical(self):
        steps = (4, 1, 6)
        gens = [[s if i == j else 0 for i in range(3)] for j, s in enumerate(steps)]
        assert lat.diagonal(steps) == lat.hnf_from_generators(3, gens)
        assert lat.index(lat.diagonal(steps)) == 24
        with pytest.raises(ArityMismatch):
            lat.diagonal([2, 0])

    def test_json_round_trip(self):
        rng = random.Random(55)
        for _ in range(20):
            n = rng.randint(1, 3)
            gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)]
            l = lat.hnf_from_generators(n, gens)
            assert lat.from_json(lat.to_json(l)) == l
