"""Unit tests for the binomial-basis polynomial calculus."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from conftest import random_binpoly, random_homogeneous
from polyrec import intpoly as ip
from polyrec import lattice as lat
from polyrec.errors import ArityMismatch, CapExceeded, NotIntegerValued


def newton_coords(nvars, values):
    """Independent oracle: binomial coordinates via iterated differences.

    ``values[j]`` is the polynomial value at the grid point j (a tuple).
    The coordinate at index i is sum_{j <= i} prod (-1)^(i-j) C(i,j) f(j).
    """
    degs = [max(j[t] for j in values) for t in range(nvars)]
    out = {}
    for i in itertools.product(*(range(d + 1) for d in degs)):
        acc = Fraction(0)
        for j in itertools.product(*(range(e + 1) for e in i)):
            weight = 1
            for a, b in zip(i, j):
                weight *= (-1) ** (a - b) * math.comb(a, b)
            acc += weight * values[j]
        if acc:
            out[i] = acc
    return out


def sympy_monomial(f):
    """Independent oracle: f in monomial coordinates, {exponents: Fraction},
    with each C(z_j, k) expanded by sympy."""
    zs = sympy.symbols(f"z0:{f.nvars}")
    expr = sympy.Integer(0)
    for idx, coef in f.terms:
        expr += coef * sympy.Mul(*(sympy.expand_func(sympy.binomial(z, k)) for z, k in zip(zs, idx)))
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(expr, *zs).terms() if c}


class TestFromMonomial:
    def test_square(self):
        f = ip.from_monomial_coeffs(1, {(2,): 1})
        assert f.term_map() == {(1,): 1, (2,): 2}

    def test_triangle_numbers(self):
        f = ip.from_monomial_coeffs(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
        assert f.term_map() == {(1,): 1, (2,): 1}

    def test_not_integer_valued(self):
        with pytest.raises(NotIntegerValued):
            ip.from_monomial_coeffs(1, {(2,): Fraction(1, 2)})

    def test_refusal_names_the_least_index(self):
        # (z1 z2 - z1^3) / 2 has the non-integer coordinates -1/2 at (1, 0)
        # and 1/2 at (1, 1), whichever order the monomials come in
        mono = {(3, 0): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
        for items in (mono.items(), reversed(mono.items())):
            with pytest.raises(NotIntegerValued, match=r"index \(1, 0\) is -1/2,"):
                ip.from_monomial_coeffs(2, dict(items))

    def test_against_newton_difference_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            mono = {}
            for _ in range(rng.randint(1, 5)):
                idx = tuple(rng.randint(0, 2) for _ in range(nvars))
                mono[idx] = Fraction(rng.randint(-6, 6))
            degs = [max((i[t] for i in mono), default=0) for t in range(nvars)]
            values = {}
            for pt in itertools.product(*(range(d + 1) for d in degs)):
                values[pt] = sum(
                    c * math.prod(Fraction(p) ** e for p, e in zip(pt, i))
                    for i, c in mono.items()
                )
            expected = newton_coords(nvars, values)
            if all(c.denominator == 1 for c in expected.values()):
                f = ip.from_monomial_coeffs(nvars, mono)
                assert f.term_map() == {i: int(c) for i, c in expected.items()}
            else:
                with pytest.raises(NotIntegerValued):
                    ip.from_monomial_coeffs(nvars, mono)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            ip.from_monomial_coeffs(5, {(0, 0, 0, 0, 0): 1})
        with pytest.raises(CapExceeded):
            ip.from_monomial_coeffs(1, {(9,): 1})


class TestEvaluate:
    def test_example(self):
        f = ip.binpoly(1, {(2,): 1, (1,): 1})
        assert f.evaluate([5]) == 15

    def test_zero_polynomial(self):
        assert ip.zero(2).evaluate([7, -3]) == 0

    def test_below_order(self):
        assert ip.binpoly(1, {(2,): 1}).evaluate([1]) == 0

    def test_negative_arguments_stay_integral(self):
        f = ip.binpoly(2, {(2, 1): 3, (1, 0): -2})
        for pt in itertools.product(range(-4, 5), repeat=2):
            assert isinstance(f.evaluate(pt), int)

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            ip.binpoly(1, {(1,): 1}).evaluate([1, 2])


class TestGroupOps:
    def test_inverse(self):
        f = ip.binpoly(1, {(2,): 3, (0,): -1})
        assert ip.add(f, ip.negate(f)).is_zero()

    def test_coefficient_addition(self):
        assert ip.add(
            ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(1,): 2})
        ).term_map() == {(1,): 3}

    def test_pruning(self):
        out = ip.add(
            ip.binpoly(1, {(2,): 2, (1,): 1}), ip.binpoly(1, {(2,): -2})
        )
        assert out.term_map() == {(1,): 1}

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            ip.add(ip.zero(1), ip.zero(2))


class TestDelta:
    def test_bilinear_example(self):
        f = ip.binpoly(2, {(1, 1): 1})  # z1*z2
        d = ip.delta(f, 2)
        # blocks (a1,a2,z1,z2): a1*z2 + a2*z1
        assert d.term_map() == {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}

    def test_constant_collapse_example(self):
        f = ip.from_monomial_coeffs(1, {(2,): 1, (0,): 3})
        assert ip.delta(f, 3) == ip.constant(3, 3)

    def test_linear_vanishes(self):
        f = ip.binpoly(1, {(1,): 5})
        assert ip.delta(f, 2).is_zero()

    def test_recursion_consistency(self):
        rng = random.Random(23)
        for _ in range(25):
            nvars = rng.randint(1, 2)
            f = random_binpoly(rng, nvars, 3)
            for s in range(2, 5):
                assert ip.delta(f, s) == ip.delta_recursive(f, s)

    def test_block_symmetry(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_binpoly(rng, 2, 3)
            d = ip.delta(f, 2)
            for pt in itertools.product(range(-2, 3), repeat=4):
                swapped = [pt[2], pt[3], pt[0], pt[1]]
                assert d.evaluate(pt) == d.evaluate(swapped)

    def test_degree_drop(self):
        rng = random.Random(31)
        for _ in range(30):
            nvars = rng.randint(1, 3)
            f = random_binpoly(rng, nvars, 4)
            d = ip.delta(f, 2)
            for block in (range(nvars), range(nvars, 2 * nvars)):
                assert ip.degree_in_vars(d, block) < f.degree
            # cross-check per-block degree through the monomial expansion
            mono = sympy_monomial(d)
            for block in (range(nvars), range(nvars, 2 * nvars)):
                got = max((sum(idx[v] for v in block) for idx in mono), default=0)
                assert got < f.degree

    def test_constant_collapse_random(self):
        rng = random.Random(37)
        for _ in range(30):
            nvars = rng.randint(1, 2)
            f = random_binpoly(rng, nvars, 4)
            d = f.degree
            expected = ip.constant((d + 1) * nvars, (-1) ** d * f.constant_term())
            assert ip.delta(f, d + 1) == expected

    def test_multilinearity(self):
        rng = random.Random(41)
        for _ in range(20):
            nvars = rng.randint(1, 2)
            f = random_binpoly(rng, nvars, 3)
            f = ip.subtract(f, ip.constant(nvars, f.constant_term()))
            d = f.degree
            if d < 1:
                continue
            dd = ip.delta(f, d)
            for b in range(d):
                block = range(b * nvars, (b + 1) * nvars)
                assert ip.degree_in_vars(dd, block) <= 1

    def test_homogeneous_identity(self):
        rng = random.Random(43)
        for _ in range(20):
            nvars = rng.randint(1, 2)
            d = rng.randint(1, 4)
            h = random_homogeneous(rng, nvars, d)
            dd = ip.delta(h, d)
            for pt in itertools.product(range(-3, 4), repeat=nvars):
                assert dd.evaluate(list(pt) * d) == math.factorial(d) * h.evaluate(pt)


def inclusion_exclusion_delta(f, s):
    """Reference oracle: delta(f, s) as its definition, 2^s - 1 signed
    substitutions f(sum of z_i for i in a), one per nonempty a."""
    n = f.nvars
    acc = {}
    for mask in range(1, 1 << s):
        blocks = [i for i in range(s) if mask >> i & 1]
        sign = (-1) ** (s - len(blocks))
        targets = [tuple(b * n + j for b in blocks) for j in range(n)]
        for idx, coef in ip.substitute_block_sums(f, s * n, targets).terms:
            acc[idx] = acc.get(idx, 0) + sign * coef
    return ip.binpoly(s * n, acc)


def oracle_rows(f):
    """Rows the oracle expands for s = 1..d + 2: per term and s, the sum
    over block counts m of C(s, m) prod_j C(k_j + m - 1, m - 1)."""
    return sum(
        math.comb(s, m) * math.prod(math.comb(k + m - 1, m - 1) for k in idx)
        for s in range(1, f.degree + 3)
        for idx, _ in f.terms
        for m in range(1, s + 1)
    )


class TestClosedFormDelta:
    # degrees 4 to 6 in each variable count, one wide term each: the
    # oracle's cost grows fast with the degree and with s = d + 2
    WIDE = [
        {(6,): -3, (1,): -1, (0,): 5},
        {(0, 6): 2, (1, 1): 3},
        {(5, 0, 0): -2, (0, 1, 1): 4, (0, 0, 0): -1},
        {(0, 0, 0, 6): -3, (1, 0, 1, 0): 2, (0, 0, 0, 0): 9},
        {(0, 4, 0, 0): 1, (1, 0, 0, 1): -2},
    ]

    def test_matches_inclusion_exclusion(self):
        rng = random.Random(2007)
        polys = [ip.zero(n) for n in range(1, 5)]
        polys += [ip.constant(n, c) for n in range(1, 5) for c in (-7, 1, 4)]
        polys += [ip.binpoly(len(next(iter(t))), t) for t in self.WIDE]
        # the oracle expands 2^s - 1 substitutions for s up to d + 2, so a
        # random draw is kept only if that stays under a few thousand rows
        drawn = []
        while len(drawn) < 520:
            nvars = rng.randint(1, 4)
            f = random_binpoly(rng, nvars, rng.randint(0, 6), max_terms=4, ensure_nonconstant=False)
            if oracle_rows(f) <= 2000:
                drawn.append(f)
        polys += drawn
        for f in polys:
            for s in range(1, f.degree + 3):
                got, want = ip.delta(f, s), inclusion_exclusion_delta(f, s)
                assert got.nvars == want.nvars and got.terms == want.terms, (f, s)
        assert sum(any(c < 0 for _, c in f.terms) for f in polys) > 250
        shapes = {(f.nvars, f.degree) for f in polys}
        assert {(n, d) for n in range(1, 5) for d in range(4)} <= shapes
        assert {d for _, d in shapes} == set(range(7))

    def test_no_substitution_above_the_degree(self, monkeypatch):
        calls = []
        real = ip.substitute_block_sums
        monkeypatch.setattr(
            ip, "substitute_block_sums", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        rng = random.Random(2011)
        for _ in range(40):
            nvars = rng.randint(1, 4)
            f = random_binpoly(rng, nvars, rng.randint(0, 8 if nvars == 1 else 4))
            for s in range(f.degree + 1, f.degree + 4):
                value = (-1) ** (s + 1) * f.constant_term()
                assert ip.delta(f, s) == ip.constant(s * nvars, value)
            ip.delta(f, max(f.degree, 1))
        assert calls == []

    def test_row_count(self):
        # delta_rows counts every composition of each variable's degree into
        # s blocks, before the rows that leave a block empty are dropped
        rng = random.Random(2017)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            f = random_binpoly(rng, nvars, rng.randint(0, 5))
            for s in range(1, f.degree + 2):
                want = sum(
                    sum(1 for _ in itertools.product(*(ip._composition_list(k, s) for k in idx)))
                    for idx, _ in f.terms
                    if sum(idx) >= s
                )
                assert ip.delta_rows(f, s) == want
                constant = 1 if f.constant_term() else 0
                assert len(ip.delta(f, s).terms) - constant <= want
        dense = ip.binpoly(1, {(k,): 1 for k in range(9)})
        assert [ip.delta_rows(dense, s) for s in (1, 2, 3, 4, 9)] == [8, 42, 155, 460, 0]


class TestCNumber:
    def test_paper_values(self):
        assert ip.c_number(3, 3) == 6
        assert ip.c_number(3, 2) == 0
        assert ip.c_number(2, 2) == 2  # -2 + 4

    def test_factorial_diagonal(self):
        for m in range(1, 11):
            assert ip.c_number(m, m) == math.factorial(m)

    def test_zero_above_diagonal(self):
        for m in range(1, 11):
            for s in range(m + 1, 11):
                assert ip.c_number(s, m) == 0

    def test_m_zero_alternates(self):
        # the vanishing statement needs m >= 1: at m = 0 the sum telescopes
        # to -(-1)^s instead
        for s in range(1, 8):
            assert ip.c_number(s, 0) == (-1) ** (s - 1)

    def test_direct_sum_oracle(self):
        rng = random.Random(3)
        for _ in range(30):
            s = rng.randint(1, 8)
            m = rng.randint(0, 8)
            brute = sum(
                (-1) ** (s - k) * math.comb(s, k) * k**m for k in range(1, s + 1)
            )
            assert ip.c_number(s, m) == brute


def mono_mul(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            key = tuple(x + y for x, y in zip(ia, ib))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def stirling2(m, k):
    if m == 0 or k == 0:
        return int(m == k)
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def monomial_pullback(f, basis):
    """Reference oracle: the monomial route pullback took before it
    interpolated.  f goes to monomial coordinates, z_j is replaced by the
    linear form sum_k basis[j][k] w_k, and the result comes back to the
    binomial basis by z^m = sum_k S(m, k) k! C(z, k) in each variable."""
    s = len(basis[0])
    units = [tuple(int(t == k) for t in range(s)) for k in range(s)]
    forms = [{units[k]: b for k, b in enumerate(row) if b} for row in basis]
    image = {}
    for idx, coef in sympy_monomial(f).items():
        partial = {(0,) * s: coef}
        for form, m in zip(forms, idx):
            for _ in range(m):
                partial = mono_mul(partial, form)
        for key, val in partial.items():
            image[key] = image.get(key, 0) + val
    coords = {}
    for idx, coef in image.items():
        partial = {(0,) * s: coef}
        for k, m in enumerate(idx):
            if m:
                power = {
                    tuple(i * e for e in units[k]): stirling2(m, i) * math.factorial(i)
                    for i in range(1, m + 1)
                }
                partial = mono_mul(partial, power)
        for key, val in partial.items():
            coords[key] = coords.get(key, 0) + val
    assert all(c.denominator == 1 for c in coords.values())
    return ip.binpoly(s, {k: int(c) for k, c in coords.items()})


def random_hnf_basis(rng, n):
    """Hermite basis of the lattice spanned by 1..n random generators with
    entries in -4..4, as an n-row matrix; None for the zero lattice."""
    gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
    cols = lat.hnf_from_generators(n, gens).basis
    return [[col[i] for col in cols] for i in range(n)] if cols else None


class TestPullback:
    def test_diagonal(self):
        f = ip.binpoly(2, {(1, 1): 1})
        g = ip.pullback(f, [[1], [1]])
        assert g == ip.from_monomial_coeffs(1, {(2,): 1})

    def test_identity(self):
        f = ip.binpoly(2, {(2, 1): 4, (0, 1): -2})
        assert ip.pullback(f, [[1, 0], [0, 1]]) == f

    def test_linear(self):
        f = ip.binpoly(2, {(1, 0): 1, (0, 1): 1})
        assert ip.pullback(f, [[2], [3]]).term_map() == {(1,): 5}

    def test_rank_deficient(self):
        f = ip.binpoly(2, {(1, 1): 1})
        basis = [[1, 2], [2, 4]]
        g = ip.pullback(f, basis)
        assert g.degree <= f.degree
        for w in itertools.product(range(-3, 4), repeat=2):
            z = [sum(b * x for b, x in zip(row, w)) for row in basis]
            assert g.evaluate(w) == f.evaluate(z)

    def test_matches_monomial_route(self):
        rng = random.Random(2024)
        shapes = set()
        for _ in range(300):
            n = rng.randint(1, 4)
            basis = random_hnf_basis(rng, n)
            if basis is None:
                continue
            f = random_binpoly(rng, n, rng.randint(0, 6), ensure_nonconstant=False)
            got, want = ip.pullback(f, basis), monomial_pullback(f, basis)
            assert got.nvars == want.nvars and got.terms == want.terms, (f, basis)
            off_diagonal = [e for i, row in enumerate(basis) for k, e in enumerate(row) if i != k]
            shapes.add((len(basis[0]) == n, any(off_diagonal), min(off_diagonal, default=0) < 0))
        # a full-rank Hermite basis has no negative entry; a deficient one can
        assert {(True, True, False), (False, True, True)} <= shapes

    def test_matches_monomial_route_at_the_caps(self):
        rng = random.Random(8)
        f = random_binpoly(rng, 4, 8, max_terms=4)
        while f.degree < 8:
            f = random_binpoly(rng, 4, 8, max_terms=4)
        basis = [[1, 0, 0, 0], [2, 3, 0, 0], [-1, 1, 2, 0], [0, -2, 1, 1]]
        assert ip.pullback(f, basis) == monomial_pullback(f, basis)

    def test_degree_and_origin_preserved(self):
        rng = random.Random(29)
        for _ in range(20):
            f = random_binpoly(rng, 2, 4)
            basis = [[rng.randint(-3, 3)], [rng.randint(-3, 3)]]
            if not any(basis[0] + basis[1]):
                basis[0][0] = 1
            g = ip.pullback(f, basis)
            assert g.degree <= f.degree
            assert g.constant_term() == f.constant_term()
            for w in range(-3, 4):
                z = [basis[0][0] * w, basis[1][0] * w]
                assert g.evaluate([w]) == f.evaluate(z)


class TestShift:
    def test_example(self):
        # C(z + 3, 2) - C(z, 2) = 3 z + 3
        f = ip.binpoly(1, {(2,): 1})
        assert ip.shift_difference(f, 0, 3).term_map() == {(1,): 3, (0,): 3}

    def test_against_evaluation(self):
        rng = random.Random(31)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            f = random_binpoly(rng, nvars, 4)
            j = rng.randrange(nvars)
            step = rng.randint(-6, 6)
            g = ip.shift_difference(f, j, step)
            assert g == ip.binpoly(nvars, g.term_map())
            for _ in range(10):
                z = [rng.randint(-5, 5) for _ in range(nvars)]
                moved = list(z)
                moved[j] += step
                assert g.evaluate(z) == f.evaluate(moved) - f.evaluate(z)

    def test_variable_out_of_range(self):
        with pytest.raises(ArityMismatch):
            ip.shift_difference(ip.binpoly(1, {(1,): 1}), 1, 2)


class TestRoundTrips:
    def test_monomial_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            nvars = rng.randint(1, 3)
            f = random_binpoly(rng, nvars, 4)
            assert ip.from_monomial_coeffs(nvars, sympy_monomial(f)) == f

    def test_integer_valued_on_grid(self):
        rng = random.Random(47)
        for _ in range(15):
            nvars = rng.randint(1, 2)
            f = random_binpoly(rng, nvars, 4)
            mono = sympy_monomial(f)
            for pt in itertools.product(range(-3, 4), repeat=nvars):
                v = sum(c * math.prod(x**e for x, e in zip(pt, idx)) for idx, c in mono.items())
                assert v.denominator == 1 and v == f.evaluate(pt)

    def test_json_round_trip(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_binpoly(rng, rng.randint(1, 3), 4)
            assert ip.from_json(ip.to_json(f)) == f

    def test_json_shape(self):
        f = ip.binpoly(1, {(2,): -12})
        assert ip.to_json(f) == {
            "nvars": 1,
            "basis": "binomial",
            "terms": [{"idx": [2], "coef": "-12"}],
        }


class TestPolyTuple:
    def test_shared_nvars_enforced(self):
        with pytest.raises(ArityMismatch):
            ip.polytuple([ip.zero(1), ip.zero(2)])
        with pytest.raises(ArityMismatch):
            ip.polytuple([])

    def test_evaluate(self):
        v = ip.polytuple([ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(2,): 2, (1,): 1})])
        assert v.evaluate([4]) == (4, 16)
