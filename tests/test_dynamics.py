"""Unit tests for recurrence verification on finite systems."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from sympy import primefactors

from conftest import first_disagreement, lift_gap, lift_ip_star, product_system, random_binpoly, rotations
from polyrec import dynamics as dy
from polyrec import intpoly as ip
from polyrec import keyengine as ke
from polyrec import lattice as lat
from polyrec import runners
from polyrec.errors import (
    ArityMismatch,
    NonzeroConstantTerm,
    NotBijective,
    NotCommuting,
    NotMeasurePreserving,
    SweepCapExceeded,
    UnknownPoint,
    WeightsNotNormalized,
)
from polyrec.numutil import lcm_upto


def cyclic(n):
    pts = [str(i) for i in range(n)]
    return dy.build_system(
        pts, {p: Fraction(1, n) for p in pts}, [[str((i + 1) % n) for i in range(n)]]
    )


def product_23():
    pts = [f"{a}{b}" for a in range(2) for b in range(3)]
    return dy.build_system(
        pts,
        {p: Fraction(1, 6) for p in pts},
        [
            [f"{(int(p[0]) + 1) % 2}{p[1]}" for p in pts],
            [f"{p[0]}{(int(p[1]) + 1) % 3}" for p in pts],
        ],
    )


Z = ip.binpoly(1, {(1,): 1})
ZSQ = ip.from_monomial_coeffs(1, {(2,): 1})


class TestBuildSystem:
    def test_cyclic_valid(self):
        sys_ = cyclic(4)
        assert sys_.size == 4 and dy.map_orders(sys_) == (4,)

    def test_product_valid_and_commuting(self):
        sys_ = product_23()
        assert dy.map_orders(sys_) == (2, 3)

    def test_weights_not_normalized(self):
        with pytest.raises(WeightsNotNormalized):
            dy.build_system(["a", "b"], {"a": "1/2", "b": "1/3"}, [["b", "a"]])

    def test_not_bijective(self):
        with pytest.raises(NotBijective):
            dy.build_system(
                ["a", "b"], {"a": "1/2", "b": "1/2"}, [["a", "a"]]
            )

    def test_duplicate_witness_is_the_first_repeated_image(self):
        # images 1, 2, 2, 1: "1" is the first image in map order hit twice
        with pytest.raises(NotBijective, match="map 0 is not a bijection: '1' hit twice"):
            dy.build_system(["0", "1", "2", "3"], {p: "1/4" for p in "0123"}, [["1", "2", "2", "1"]])

    def test_duplicate_is_found_in_one_pass(self):
        # images shifted by one with the last repeated; counting each image
        # per point took seconds at this size
        pts = [str(i) for i in range(20000)]
        start = time.perf_counter()
        with pytest.raises(NotBijective, match="'19999' hit twice"):
            dy.build_system(pts, {p: "1/20000" for p in pts}, [pts[1:] + [pts[-1]]])
        assert time.perf_counter() - start < 0.5

    def test_not_measure_preserving(self):
        with pytest.raises(NotMeasurePreserving):
            dy.build_system(
                ["a", "b"], {"a": "1/3", "b": "2/3"}, [["b", "a"]]
            )

    def test_not_commuting_with_witness(self):
        with pytest.raises(NotCommuting):
            dy.build_system(
                ["a", "b", "c"],
                {p: "1/3" for p in "abc"},
                [["b", "c", "a"], ["b", "a", "c"]],
            )

    def test_not_commuting_text_matches_the_full_pairwise_loop(self):
        # powers of one permutation commute; a random one mostly does not,
        # and every map may repeat, first occurrence or not
        rng = random.Random(113)
        failing = repeated = 0
        for _ in range(400):
            size = rng.randint(2, 6)
            pts = [f"p{i}" for i in range(size)]
            base = rng.sample(range(size), size)
            powers = [list(range(size))]
            for _ in range(rng.randint(1, 3)):
                powers.append([base[x] for x in powers[-1]])
            pool = powers + [rng.sample(range(size), size) for _ in range(rng.randint(0, 2))]
            maps = [[pts[y] for y in rng.choice(pool)] for _ in range(rng.randint(2, 7))]
            expected = first_disagreement(pts, maps)
            try:
                dy.build_system(pts, {p: Fraction(1, size) for p in pts}, maps)
                got = None
            except NotCommuting as exc:
                got = str(exc)
            assert got == expected, maps
            failing += expected is not None
            repeated += len(set(map(tuple, maps))) < len(maps)
        assert 100 < failing < 300 and repeated > 200, (failing, repeated)

    def test_commutation_charges_pairs_of_distinct_maps(self):
        # 1 000 rotations of a 60-cycle are its 60 rotations, repeated:
        # C(60, 2) pairs at 60 points
        sys_ = rotations(random.Random(5), 1000)
        assert len(set(sys_.maps)) == 60
        pts = list(sys_.points)
        maps = [[pts[y] for y in perm] for perm in sys_.maps]
        weights = {p: Fraction(1, 60) for p in pts}
        dy.build_system(pts, weights, maps, cap=106200)
        with pytest.raises(SweepCapExceeded, match="^1770 pairs of distinct maps at 60 points charge 106200, cap is 106199$"):
            dy.build_system(pts, weights, maps, cap=106199)

    def test_unknown_point_in_map(self):
        with pytest.raises(UnknownPoint):
            dy.build_system(["a"], {"a": "1"}, [["zz"]])

    def test_measure_preservation_reverified(self):
        rng = random.Random(101)
        sys_ = product_23()
        for _ in range(50):
            subset = [p for p in sys_.points if rng.random() < 0.5]
            mass = sys_.measure(subset)
            for perm in sys_.maps:
                preimage = [
                    sys_.points[x]
                    for x in range(sys_.size)
                    if sys_.points[perm[x]] in set(subset)
                ]
                assert sys_.measure(preimage) == mass


class TestReturnMeasure:
    def test_disjoint_translate(self):
        assert dy.return_measure(cyclic(4), ["0"], [2]) == 0

    def test_identity_exponent(self):
        assert dy.return_measure(cyclic(4), ["0"], [0]) == Fraction(1, 4)

    def test_full_period(self):
        assert dy.return_measure(cyclic(4), ["0"], [4]) == Fraction(1, 4)

    def test_negative_exponent(self):
        sys_ = cyclic(5)
        for e in range(-7, 8):
            assert dy.return_measure(sys_, ["0", "2"], [e]) == dy.return_measure(
                sys_, ["0", "2"], [e + 5]
            )

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            dy.return_measure(cyclic(3), ["9"], [1])

    def test_least_unknown_point_is_named(self):
        sys_ = cyclic(3)
        for subset in (["e", "0", "b", "d"], ["d", "b", "e"]):
            with pytest.raises(UnknownPoint, match="point 'b' is not part"):
                sys_.measure(subset)
            with pytest.raises(UnknownPoint, match="point 'b' is not part"):
                dy.return_measure(sys_, subset, [1])


class TestSystemPeriod:
    def test_square_on_cyclic4(self):
        # (z + 2)^2 = z^2 + 4(z + 1), and z^2 mod 4 tells 0 from 1
        assert dy.system_period(cyclic(4), [ZSQ]) == (2,)

    def test_linear(self):
        assert dy.system_period(cyclic(6), [Z]) == (6,)

    def test_identity_system(self):
        pts = ["x", "y"]
        sys_ = dy.build_system(pts, {"x": "1/2", "y": "1/2"}, [["x", "y"]])
        f = ip.from_monomial_coeffs(1, {(3,): 1})
        assert dy.system_period(sys_, [f]) == (1,)  # every exponent acts as the identity

    def test_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            dy.system_period(cyclic(2), [ip.constant(1, 1)])

    def test_each_map_is_taken_modulo_its_own_order(self, monkeypatch):
        # 1 000 maps: every target lattice has width 1, and the periods are
        # the joint ones modulo the diagonal lattice of all orders
        rng = random.Random(107)
        sys_ = rotations(rng, 1000)
        fs = [random_binpoly(rng, 2, 2, bound=5) for _ in range(1000)]
        fs = [ip.subtract(f, ip.constant(2, f.constant_term())) for f in fs]
        widths = []
        diagonal = lat.diagonal
        monkeypatch.setattr(lat, "diagonal", lambda steps: widths.append(len(steps)) or diagonal(steps))
        period = dy.system_period(sys_, fs)
        monkeypatch.undo()
        assert widths and max(widths) == 1
        assert period == ke.least_periods(fs, lat.diagonal(dy.map_orders(sys_)))

    def test_periodicity_soundness(self):
        rng = random.Random(103)
        for n_pts in (2, 3, 4):
            sys_ = cyclic(n_pts)
            f = ip.from_monomial_coeffs(1, {(2,): rng.randint(1, 3), (1,): rng.randint(0, 3)})
            (period,) = dy.system_period(sys_, [f])
            for z in range(period):
                assert dy.return_measure(sys_, ["0"], [f.evaluate([z])]) == dy.return_measure(
                    sys_, ["0"], [f.evaluate([z + period])]
                )


class TestREpsilon:
    def test_cyclic4_square(self):
        verdict = dy.r_epsilon(
            cyclic(4), dy.recurrence_query(["0"], [ZSQ], "1/100")
        )
        assert verdict.period == (2,)
        assert verdict.members == frozenset({(0,)})
        assert verdict.mu_a == Fraction(1, 4)

    def test_large_epsilon_gives_everything(self):
        verdict = dy.r_epsilon(
            cyclic(4), dy.recurrence_query(["0"], [ZSQ], Fraction(1, 16))
        )
        assert verdict.members == frozenset({(0,), (1,)})

    def test_full_space(self):
        sys_ = cyclic(3)
        verdict = dy.r_epsilon(
            sys_, dy.recurrence_query(["0", "1", "2"], [Z], 0)
        )
        assert len(verdict.members) == 3

    def test_zero_residue_always_present(self):
        rng = random.Random(107)
        for n_pts in (2, 3, 4, 6):
            sys_ = cyclic(n_pts)
            pick = [str(rng.randrange(n_pts))]
            verdict = dy.r_epsilon(sys_, dy.recurrence_query(pick, [ZSQ], 0))
            assert (0,) in verdict.members

    def test_brute_force_oracle(self):
        for n_pts in (2, 3, 4):
            sys_ = cyclic(n_pts)
            query = dy.recurrence_query(["0"], [ZSQ], "1/10")
            verdict = dy.r_epsilon(sys_, query)
            (period,) = verdict.period
            threshold = verdict.mu_a_sq - verdict.epsilon
            members = verdict.members
            for z in range(3 * period):
                direct = dy.return_measure(sys_, ["0"], [ZSQ.evaluate([z])])
                assert ((z % period,) in members) == (direct >= threshold)

    def test_map_count_mismatch(self):
        with pytest.raises(ArityMismatch):
            dy.r_epsilon(product_23(), dy.recurrence_query(["00"], [Z], 0))


class TestKhintchine:
    def test_cyclic4_square(self):
        rep = dy.verify_khintchine(cyclic(4), dy.recurrence_query(["0"], [ZSQ], 0))
        assert rep.sup_value == Fraction(1, 4)
        assert rep.bound == Fraction(1, 16)
        assert rep.holds and rep.witness_residue == (0,)

    def test_full_space(self):
        sys_ = cyclic(3)
        rep = dy.verify_khintchine(
            sys_, dy.recurrence_query(["0", "1", "2"], [Z], 0)
        )
        assert rep.sup_value == 1 and rep.holds

    def test_product_system(self):
        rep = dy.verify_khintchine(
            product_23(), dy.recurrence_query(["00"], [Z, ZSQ], 0)
        )
        assert rep.holds and rep.sup_value == Fraction(1, 6)


class TestWindowStructure:
    def test_even_residues(self):
        verdict = dy.r_epsilon(cyclic(4), dy.recurrence_query(["0"], [ZSQ], "1/100"))
        window = dy.ip_star_verdict(verdict, 2, 8)
        assert window.ip_star.holds and window.gap == 2

    def test_all_residues(self):
        verdict = dy.ResidueVerdict(
            period=(4,),
            epsilon=Fraction(0),
            mu_a=Fraction(1, 2),
            mu_a_sq=Fraction(1, 4),
            keys=(0, 0, 0, 0),
            holds=(True,),
        )
        window = dy.ip_star_verdict(verdict, 2, 4)
        assert window.ip_star.holds and window.gap == 1

    def test_multiples_of_four_fail(self):
        verdict = dy.ResidueVerdict(
            period=(4,),
            epsilon=Fraction(0),
            mu_a=Fraction(1, 4),
            mu_a_sq=Fraction(1, 16),
            keys=(0, 1, 1, 1),
            holds=(True, False),
        )
        window = dy.ip_star_verdict(verdict, 2, 2)
        assert not window.ip_star.holds and window.ip_star.witness == (1, 1)


class TestTwoVariableQueries:
    def test_bilinear_exponent_on_cyclic4(self):
        sys_ = cyclic(4)
        f = ip.binpoly(2, {(1, 1): 1})  # z1 * z2
        query = dy.recurrence_query(["0"], [f], 0)
        verdict = dy.r_epsilon(sys_, query)
        assert verdict.period == (4, 4)  # z1 * z2 + 2 * z2 differs mod 4 when z2 is odd
        members = verdict.members
        for z1 in range(8):
            for z2 in range(8):
                expected = (z1 * z2) % 4 == 0
                assert ((z1 % 4, z2 % 4) in members) == expected
        report = dy.verify_khintchine(sys_, query)
        assert report.holds and report.witness_residue == (0, 0)
        # diagonal lift: t belongs iff t*t is divisible by 4, i.e. t even
        window = dy.ip_star_verdict(verdict, 2, 8)
        assert window.ip_star.holds and window.gap == 2


def random_system(rng):
    """A seeded finite system with one to three commuting maps.

    Either a product of cyclic groups with one rotation per factor (orders
    coprime or not), or one permutation made of disjoint cycles of mixed
    lengths, with weights constant on each cycle.
    """
    if rng.random() < 0.5:
        return product_system([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])
    lengths = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    masses = [Fraction(rng.randint(1, 5)) for _ in lengths]
    total = sum(m * k for m, k in zip(masses, lengths))
    pts, weights, image = [], {}, []
    for c, (k, m) in enumerate(zip(lengths, masses)):
        cycle = [f"{c}.{i}" for i in range(k)]
        pts += cycle
        weights.update({p: m / total for p in cycle})
        image += [cycle[(i + 1) % k] for i in range(k)]
    return dy.build_system(pts, weights, [image])


def random_query(rng, sys_):
    n = rng.randint(1, 2)
    fs = []
    for _ in range(sys_.num_maps):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(rng.randint(0, 2) for _ in range(n))
            if 0 < sum(idx) <= 2:
                terms[idx] = rng.randint(-5, 5)  # negative exponent values too
        fs.append(ip.binpoly(n, terms))
    A = [p for p in sys_.points if rng.random() < 0.5] or [sys_.points[0]]
    mu_a = sys_.measure(A)
    return dy.recurrence_query(A, fs, mu_a * mu_a * Fraction(rng.randint(0, 4), 4))


def two_sweeps(sys_, query):
    """The members and table as once computed: one return measure per grid
    point for the members, then a second sweep that recomputes them all."""
    period = dy.system_period(sys_, query.fs)
    mu_a = sys_.measure(sorted(query.A))
    threshold = mu_a * mu_a - query.epsilon
    grid = list(product(*(range(p) for p in period)))
    members = set()
    for z in grid:
        exps = [f.evaluate(z) for f in query.fs]
        if dy.return_measure(sys_, sorted(query.A), exps) >= threshold:
            members.add(z)
    rows = [("residue", "exponents", "return measure", "threshold", "verdict")]
    for z in sorted(members | set(grid)):
        exps = [f.evaluate(z) for f in query.fs]
        value = dy.return_measure(sys_, sorted(query.A), exps)
        cells = (",".join(map(str, z)), ",".join(map(str, exps)), str(value), str(threshold))
        rows.append(cells + ("holds" if z in members else "fails",))
    return frozenset(members), "\n".join(map(" ".join, rows))


def perm_power_by_composition(perm, e):
    step = list(perm) if e >= 0 else [perm.index(x) for x in range(len(perm))]
    out = list(range(len(perm)))
    for _ in range(abs(e)):
        out = [step[x] for x in out]
    return out


def wide_case(rng):
    """A seeded r-epsilon case whose table cells may be wider than their
    headers: heavy cycle masses (long return measures), coefficients up to
    10^8 of either sign (long and negative exponents), up to five variables
    (long residues) and eps over a large denominator (a long threshold,
    negative when eps > mu(A)^2).  Drawn again until the grid has at most
    2 000 points."""
    while True:
        lengths = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
        masses = [rng.randint(10**5, 10**7) for _ in lengths]
        total = sum(m * k for m, k in zip(masses, lengths))
        pts, weights, image = [], {}, []
        for c, (k, m) in enumerate(zip(lengths, masses)):
            cycle = [f"{c}.{i}" for i in range(k)]
            pts += cycle
            weights.update({p: Fraction(m, total) for p in cycle})
            image += [cycle[(i + 1) % k] for i in range(k)]
        sys_ = dy.build_system(pts, weights, [image])
        n = rng.randint(1, 5)
        degree = 1 if n > 2 else 2
        terms = {}
        for idx in product(range(degree + 1), repeat=n):
            if 0 < sum(idx) <= degree and rng.random() < 0.6:
                terms[idx] = rng.choice([-1, 1]) * rng.choice([rng.randint(1, 9), rng.randint(1, 10**8)])
        fs = [ip.binpoly(n, terms or {(1,) + (0,) * (n - 1): 1})]
        A = rng.sample(pts, rng.randint(1, len(pts)))
        epsilon = Fraction(rng.randint(0, 10**4), rng.randint(10**4, 10**6))
        if math.prod(dy.system_period(sys_, fs)) <= 2000:
            return sys_, dy.recurrence_query(A, fs, epsilon)


class TestOnePass:
    def test_matches_two_sweeps(self):
        rng = random.Random(109)
        for _ in range(40):
            sys_ = random_system(rng)
            query = random_query(rng, sys_)
            verdict = dy.r_epsilon(sys_, query)
            members, table = two_sweeps(sys_, query)
            assert verdict.members == members
            assert dy.residue_table(verdict) == table

    def test_cells_wider_than_headers_match_two_sweeps(self):
        rng = random.Random(167)
        for _ in range(30):
            sys_, query = wide_case(rng)
            verdict = dy.r_epsilon(sys_, query)
            members, table = two_sweeps(sys_, query)
            assert verdict.members == members
            assert dy.residue_table(verdict) == table

    def test_details_list_members_lexicographically(self):
        rng = random.Random(173)
        cases = [(cyclic(4), dy.recurrence_query(["0"], [ZSQ], "1/100"))]
        for _ in range(20):
            sys_ = random_system(rng)
            cases.append((sys_, random_query(rng, sys_)))
        cases += [wide_case(rng) for _ in range(10)]
        for sys_, query in cases:
            verdict = dy.r_epsilon(sys_, query)
            members = runners._residue_details(verdict)["members"]
            assert list(map(list, members)) == sorted(list(m) for m in verdict.members)

    def test_keys_and_exponents_follow_grid_order(self):
        rng = random.Random(181)
        cases = []
        for _ in range(20):
            sys_ = random_system(rng)
            cases.append((sys_, random_query(rng, sys_)))
        cases += [wide_case(rng) for _ in range(10)]
        for sys_, query in cases:
            verdict = dy.r_epsilon(sys_, query)
            points = list(product(*(range(p) for p in verdict.period)))
            assert list(dy.grid(verdict.period)) == points
            assert points[0] == (0,) * len(verdict.period)
            assert len(verdict.keys) == math.prod(verdict.period)
            members = verdict.members
            rows = dy.residue_table(verdict).splitlines()[1:]
            for z, row, key in zip(points, rows, verdict.keys, strict=True):
                assert (z in members) == verdict.holds[key]
                cells = row.split()
                assert cells[0] == ",".join(map(str, z))
                assert cells[1] == ",".join(str(f.evaluate(z)) for f in query.fs)

    def test_ip_star_lift_matches_the_member_set_lift(self):
        def member_set_lift(verdict, k, window):
            """The lift as once built: the member set, and a residue tuple per t."""
            horizon = max(window * k, 2 * math.lcm(*verdict.period))
            members = verdict.members
            values = {t for t in range(1, horizon + 1) if tuple(t % p for p in verdict.period) in members}
            witness = lift_ip_star(values, k, window)
            ip_star = dy.ipstruct.IpStarVerdict(witness is None, witness)
            return dy.WindowStructure(ip_star, lift_gap(values, 1, horizon), horizon)

        rng = random.Random(191)
        cases = []
        for _ in range(30):
            sys_ = random_system(rng)
            cases.append((sys_, random_query(rng, sys_)))
        cases += [wide_case(rng) for _ in range(15)]
        multi = 0
        for sys_, query in cases:
            verdict = dy.r_epsilon(sys_, query)
            # periods with at least two coordinates above 1
            multi += sum(p > 1 for p in verdict.period) > 1
            k, window = rng.randint(1, 3), rng.randint(1, 12)
            assert dy.ip_star_verdict(verdict, k, window) == member_set_lift(verdict, k, window)
        assert multi >= 5

    def test_one_threshold_comparison_per_exponent_residue(self, monkeypatch):
        compares = []
        real = dy.return_measure

        class Counted(Fraction):
            def __ge__(self, other):
                compares.append(self)
                return Fraction.__ge__(self, other)

        monkeypatch.setattr(dy, "return_measure", lambda *args: Counted(real(*args)))
        rng = random.Random(179)
        for _ in range(20):
            sys_ = random_system(rng)
            query = random_query(rng, sys_)
            compares.clear()
            verdict = dy.r_epsilon(sys_, query)
            orders = dy.map_orders(sys_)
            residues = {
                tuple(f.evaluate(z) % o for f, o in zip(query.fs, orders))
                for z in product(*(range(p) for p in verdict.period))
            }
            assert len(compares) == len(residues) == len(verdict.values)

    def test_one_return_measure_per_exponent_residue(self, monkeypatch):
        calls = []
        real = dy.return_measure

        def counted(sys_, A, exps):
            calls.append(tuple(exps))
            return real(sys_, A, exps)

        monkeypatch.setattr(dy, "return_measure", counted)
        rng = random.Random(127)
        for _ in range(20):
            sys_ = random_system(rng)
            query = random_query(rng, sys_)
            calls.clear()
            verdict = dy.r_epsilon(sys_, query)
            orders = dy.map_orders(sys_)
            residues = {
                tuple(f.evaluate(z) % o for f, o in zip(query.fs, orders))
                for z in product(*(range(p) for p in verdict.period))
            }
            reduced = [tuple(e % o for e, o in zip(exps, orders)) for exps in calls]
            assert sorted(reduced) == sorted(residues)
        calls.clear()
        dy.r_epsilon(cyclic(4), dy.recurrence_query(["0"], [ZSQ], 0))
        assert len(calls) == 2  # z^2 mod 4 takes 2 values on the 2-point grid


def weighted_blocks(rng):
    """A seeded system with one to three commuting maps and non-uniform weights.

    A disjoint union of one to three blocks Z/s_1 x ... x Z/s_m, map i
    rotating coordinate i of every block, each block with a mass of its
    own, and the points in shuffled order.  Returns the system and its
    weights by point.
    """
    m = rng.randint(1, 3)
    blocks = [[rng.randint(1, (5, 4, 3)[m - 1]) for _ in range(m)] for _ in range(rng.randint(1, 3))]
    cells = [(b, c) for b, sizes in enumerate(blocks) for c in product(*map(range, sizes))]
    rng.shuffle(cells)
    mass = [Fraction(rng.randint(1, 5)) for _ in blocks]
    total = sum(mass[b] for b, _ in cells)

    def name(b, c):
        return f"{b}:" + ",".join(map(str, c))

    def rotate(b, c, i):
        return name(b, c[:i] + ((c[i] + 1) % blocks[b][i],) + c[i + 1 :])

    weights = {name(b, c): mass[b] / total for b, c in cells}
    maps = [[rotate(b, c, i) for b, c in cells] for i in range(m)]
    return dy.build_system([name(b, c) for b, c in cells], weights, maps), weights


def return_measure_by_composition(sys_, weights, A, exps):
    """mu(A intersect T^{-e} A) with every permutation power composed
    directly and each point of A found by a scan of the points."""
    idxs = {sys_.points.index(p) for p in A}
    composite = list(range(sys_.size))
    for perm, e in zip(sys_.maps, exps):
        power = perm_power_by_composition(perm, e)
        composite = [power[x] for x in composite]
    return sum((weights[sys_.points[x]] for x in idxs if composite[x] in idxs), Fraction(0))


class TestCycleTable:
    def test_steps_match_composition(self):
        # mu(A n T^{-e} A) = mu(A n T^{e} A), so measures alone cannot tell
        # a step of e from a step of -e; the steps themselves can
        rng = random.Random(113)
        for _ in range(30):
            sys_, _weights = weighted_blocks(rng)
            for i, (perm, order) in enumerate(zip(sys_.maps, dy.map_orders(sys_))):
                for e in range(-2 * order, 2 * order + 1):
                    exps = [0] * sys_.num_maps
                    exps[i] = e
                    moved = dy._moved(sys_, range(sys_.size), exps)
                    assert moved == perm_power_by_composition(perm, e)

    def test_measures_match_composition(self):
        rng = random.Random(139)
        for _ in range(30):
            sys_, weights = weighted_blocks(rng)
            orders = dy.map_orders(sys_)
            for size in range(sys_.size + 1):
                A = rng.sample(sys_.points, size)
                assert sys_.measure(A) == sum((weights[p] for p in A), Fraction(0))
                for _ in range(3):
                    exps = [rng.randint(-3 * o, 3 * o) for o in orders]
                    expected = return_measure_by_composition(sys_, weights, A, exps)
                    assert dy.return_measure(sys_, A, exps) == expected


def random_product_query(rng, n):
    """A product of one to three cyclic factors (orders coprime or not) and
    exponent polynomials in n variables with negative coefficients too; the
    degree shrinks as n grows so that the q * lcm(1..d) grid stays small."""
    sys_ = product_system([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])
    fs = [
        ip.subtract(f, ip.constant(n, f.constant_term()))
        for f in (random_binpoly(rng, n, (3, 2, 2)[n - 1], bound=5) for _ in sys_.maps)
    ]
    A = rng.sample(sys_.points, rng.randint(1, sys_.size))
    mu_a = sys_.measure(A)
    return sys_, dy.recurrence_query(A, fs, mu_a * mu_a * Fraction(rng.randint(0, 4), 4))


def full_period(sys_, fs):
    """q * lcm(1..d): the per-coordinate period of the old uniform grid."""
    return math.lcm(*dy.map_orders(sys_)) * lcm_upto(max(f.degree for f in fs))


def is_period(sys_, fs, j, step, side):
    """Brute force over [0, side)^n: shifting coordinate j by step keeps every f_i mod order_i."""
    orders = dy.map_orders(sys_)
    for z in product(range(side), repeat=fs[0].nvars):
        moved = list(z)
        moved[j] += step
        if any((f.evaluate(moved) - f.evaluate(z)) % o for f, o in zip(fs, orders)):
            return False
    return True


class TestMinimalGrid:
    def test_members_match_the_full_grid(self):
        # z is a member on the minimal grid iff z mod P clears the threshold
        # on the old P-grid, every return measure computed directly
        rng = random.Random(131)
        shrunk = 0
        for case in range(48):
            sys_, query = random_product_query(rng, case % 3 + 1)
            verdict = dy.r_epsilon(sys_, query)
            full = full_period(sys_, query.fs)
            assert all(full % p == 0 for p in verdict.period)
            shrunk += verdict.period != (full,) * len(verdict.period)
            A = sorted(query.A)
            threshold = verdict.mu_a_sq - verdict.epsilon
            members = verdict.members
            direct = {}  # by exact exponents
            for z in product(range(full), repeat=len(verdict.period)):
                exps = tuple(f.evaluate(z) for f in query.fs)
                if exps not in direct:
                    direct[exps] = dy.return_measure(sys_, A, exps) >= threshold
                residue = tuple(c % p for c, p in zip(z, verdict.period))
                assert (residue in members) == direct[exps], (case, z)
        assert shrunk > 24

    def test_no_proper_divisor_is_a_period(self):
        rng = random.Random(137)
        for case in range(40):
            sys_, query = random_product_query(rng, case % 2 + 1)
            period = dy.system_period(sys_, query.fs)
            # P >= d, so [0, P)^n holds [0, d - 1]^n, which decides a shift
            # difference of degree at most d - 1
            side = full_period(sys_, query.fs)
            for j, step in enumerate(period):
                assert is_period(sys_, query.fs, j, step, side), (case, j)
                for p in primefactors(step):
                    assert not is_period(sys_, query.fs, j, step // p, side), (case, j, p)

    def test_matches_division_from_the_full_period(self):
        # the periods found from P = q * lcm(1..d) by dividing out primes
        # while the brute-force shift test passes
        rng = random.Random(157)
        for case in range(40):
            sys_, query = random_product_query(rng, case % 2 + 1)
            side = full_period(sys_, query.fs)
            divided = []
            for j in range(query.fs[0].nvars):
                step = side
                for p in primefactors(side):
                    while step % p == 0 and is_period(sys_, query.fs, j, step // p, side):
                        step //= p
                divided.append(step)
            assert dy.system_period(sys_, query.fs) == tuple(divided), case

    def test_forward_differences_match_evaluate(self):
        rng = random.Random(139)
        for _ in range(60):
            n = rng.randint(1, 3)
            fs = [random_binpoly(rng, n, rng.randint(0, 4), bound=7) for _ in range(rng.randint(1, 3))]
            period = tuple(rng.randint(1, 6) for _ in range(n))
            want = [tuple(f.evaluate(z) for f in fs) for z in dy.grid(period)]
            got = [exps for columns in dy._exponent_lines(fs, period) for exps in zip(*columns)]
            assert got == want
        for case in range(20):
            sys_, query = random_product_query(rng, case % 3 + 1)
            period = dy.system_period(sys_, query.fs)
            lines = dy._exponent_lines(query.fs, period)
            got = [exps for columns in lines for exps in zip(*columns)]
            for z, exps in zip(dy.grid(period), got, strict=True):
                assert exps == tuple(f.evaluate(z) for f in query.fs)

    def test_evaluate_calls_per_line(self, monkeypatch):
        # the exponents are read off the binomial coordinates: no f_i is
        # evaluated anywhere on the grid
        calls = [0]
        real = ip.evaluate

        def counted(f, z):
            calls[0] += 1
            return real(f, z)

        monkeypatch.setattr(ip, "evaluate", counted)
        rng = random.Random(149)
        cases = [(cyclic(4), dy.recurrence_query(["0"], [ZSQ], 0))]
        cases += [random_product_query(rng, case % 3 + 1) for case in range(30)]
        for sys_, query in cases:
            calls[0] = 0
            verdict = dy.r_epsilon(sys_, query)
            assert calls[0] == 0, verdict.period


class TestReporting:
    def test_residue_table_alignment(self):
        sys_ = cyclic(4)
        query = dy.recurrence_query(["0"], [ZSQ], "1/100")
        verdict = dy.r_epsilon(sys_, query)
        table = dy.residue_table(verdict)
        lines = table.splitlines()
        assert lines[0].split() == [
            "residue", "exponents", "return", "measure", "threshold", "verdict",
        ]
        assert len(lines) == 3  # header + 2 residues

    def test_residue_column_is_each_point_joined_by_commas(self):
        rng = random.Random(337)
        for _ in range(60):
            period = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
            n = len(period)
            fs = (random_binpoly(rng, n, 2),)
            points = list(product(*map(range, period)))
            verdict = dy.ResidueVerdict(
                period, Fraction(0), Fraction(1, 2), Fraction(1, 4), fs=fs,
                keys=(0,) * len(points), values=(Fraction(1, 2),), holds=(True,),
            )
            rows = dy.residue_table(verdict).splitlines()[1:]
            assert [row.split(" ")[0] for row in rows] == [",".join(map(str, z)) for z in points]
            assert [row.split(" ")[1] for row in rows] == [str(fs[0].evaluate(z)) for z in points]
