"""Exact dyadic coordinates: validation, rescaling and the JSON form."""

import pytest

from matchline.geometry import Coord, CoordOverflowError


def test_coord_rejects_wide_numerator():
    with pytest.raises(CoordOverflowError):
        Coord(1 << 63, 0)
    with pytest.raises(CoordOverflowError):
        Coord(-(1 << 63) - 1, 5)
    # 63 magnitude bits is the last admissible width
    assert Coord((1 << 63) - 1, 0).to_json() == {"num": (1 << 63) - 1, "k": 0}


def test_coord_rejects_bad_scale():
    with pytest.raises(ValueError):
        Coord(1, -1)


def test_mixed_scale_alignment():
    a = Coord(3, 1)  # 1.5
    b = Coord(1, 3)  # 0.125
    assert (a.at_scale(3), b.at_scale(3)) == (12, 1)
    # field equality compares representations; normalized() compares values
    assert Coord(2, 1) != Coord(4, 2)
    assert Coord(2, 1).normalized() == Coord(4, 2).normalized() == Coord(1, 0)
    assert Coord(0, 9).normalized() == Coord(0, 0)
    assert Coord(-12, 3).normalized() == Coord(-3, 1)
    assert hash(Coord(2, 1)) == hash(Coord(2, 1))


def test_at_scale_refuses_precision_loss():
    c = Coord(3, 2)
    assert c.at_scale(4) == 12
    with pytest.raises(ValueError):
        c.at_scale(1)


def test_json_round_trip():
    c = Coord(-13, 7)
    assert Coord(**c.to_json()) == c
    assert c.to_json() == {"num": -13, "k": 7}
