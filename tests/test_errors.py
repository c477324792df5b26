"""The one refusal of the ``--cap`` work budget."""

import pytest

from polyrec.errors import SweepCapExceeded, charge


def test_charge_refuses_only_past_the_cap():
    assert charge(1000, 1000, "grid needs 1000 points") is None
    with pytest.raises(SweepCapExceeded) as info:
        charge(1001, 1000, "grid needs 1001 points")
    assert str(info.value) == "grid needs 1001 points, cap is 1000"
