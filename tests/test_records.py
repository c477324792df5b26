"""The package's records are immutable values: a field cannot be assigned,
equal fields give equal records with equal hashes, and defaults hold."""

from fractions import Fraction

import pytest

from polyrec import dynamics as dy
from polyrec import intpoly as ip
from polyrec import lattice as lat
from polyrec import spectral as sp


def residue_verdict(members):
    half = Fraction(1, 2)
    return dy.ResidueVerdict((2,), frozenset(members), Fraction(0), half, half * half)


# (build a record, build a record with other values, a field name)
RECORDS = {
    "BinPoly": (
        lambda: ip.binpoly(2, {(1, 0): 3, (0, 2): -1}),
        lambda: ip.binpoly(2, {(1, 0): 3}),
        "terms",
    ),
    "Lattice": (
        lambda: lat.hnf_from_generators(2, [[2, 4], [0, 6]]),
        lambda: lat.scaled(2, 2),
        "basis",
    ),
    "PolyTuple": (
        lambda: ip.polytuple([ip.binpoly(1, {(1,): 1}), ip.binpoly(1, {(2,): 2})]),
        lambda: ip.polytuple([ip.binpoly(1, {(1,): 1})]),
        "components",
    ),
    "ResidueVerdict": (
        lambda: residue_verdict({(0,)}),
        lambda: residue_verdict({(0,), (1,)}),
        "members",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecords:
    def test_fields_cannot_be_assigned(self, name):
        make, _other, field = RECORDS[name]
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_equal_values_are_equal_keys(self, name):
        make, other, _field = RECORDS[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        table = {a: "first", other(): "second"}
        assert table[b] == "first" and len(table) == 2
        assert make() != other()


def test_defaults():
    verdict = residue_verdict({(0,)})
    assert verdict.rows == verdict.values == verdict.holds == ()
    assert sp.ProjectionDesc(dim=2, fixed=frozenset({0})).certificate is None
