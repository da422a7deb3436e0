"""Exact dyadic coordinates: validation and rescaling."""

import pytest

from matchline.geometry import Coord


def test_coord_rejects_wide_numerator():
    with pytest.raises(OverflowError, match="does not fit 64 bits"):
        Coord(1 << 63, 0)
    with pytest.raises(OverflowError):
        Coord(-(1 << 63) - 1, 5)
    # 63 magnitude bits is the last admissible width
    assert Coord((1 << 63) - 1, 0).num == (1 << 63) - 1


def test_coord_rejects_bad_scale():
    with pytest.raises(ValueError):
        Coord(1, -1)


def test_mixed_scale_alignment():
    a = Coord(3, 1)  # 1.5
    b = Coord(1, 3)  # 0.125
    assert (a.at_scale(3), b.at_scale(3)) == (12, 1)
    # field equality compares representations; at_scale compares values
    assert Coord(2, 1) != Coord(4, 2)
    assert Coord(2, 1).at_scale(2) == Coord(4, 2).at_scale(2)
    assert hash(Coord(2, 1)) == hash(Coord(2, 1))


def test_at_scale_refuses_precision_loss():
    c = Coord(3, 2)
    assert c.at_scale(4) == 12
    with pytest.raises(ValueError):
        c.at_scale(1)
