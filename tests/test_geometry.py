"""Exact dyadic coordinate arithmetic."""

from fractions import Fraction

import pytest

from matchline.geometry import (
    Coord,
    CoordOverflowError,
    common_scale,
    coord_from_integer,
)
from matchline.rng import Stream


def test_coord_from_integer_embeds_exactly():
    assert coord_from_integer(1, 32).as_fraction() == 1
    assert coord_from_integer(0, 0) == Coord(0, 0)
    assert coord_from_integer(7, 30).num == 7 << 30


def test_coord_from_integer_overflow():
    with pytest.raises(CoordOverflowError):
        coord_from_integer(1 << 40, 30)
    # 62 bits total is the last admissible width
    coord_from_integer((1 << 22) - 1, 40)


def test_coord_rejects_bad_scale():
    with pytest.raises(ValueError):
        Coord(1, -1)


def test_arithmetic_is_exact():
    s = Stream(11, "arith")
    for _ in range(200):
        a = Coord(s.randbelow(1 << 20), 10)
        b = Coord(s.randbelow(1 << 20), 10)
        assert (a - b) + b == a


def test_mixed_scale_alignment():
    a = Coord(3, 1)  # 1.5
    b = Coord(1, 3)  # 0.125
    assert (a + b).as_fraction() == Fraction(13, 8)
    assert (a - b).as_fraction() == Fraction(11, 8)
    assert a > b
    assert Coord(2, 1) == Coord(4, 2) == coord_from_integer(1, 6)
    assert hash(Coord(2, 1)) == hash(Coord(4, 2))


def test_at_scale_refuses_precision_loss():
    c = Coord(3, 2)
    assert c.at_scale(4) == 12
    with pytest.raises(ValueError):
        c.at_scale(1)


def test_common_scale():
    assert common_scale([Coord(1, 2)], [Coord(1, 5), Coord(1, 0)]) == 5
    assert common_scale([]) == 0


def test_json_round_trip():
    c = Coord(-13, 7)
    assert Coord(**c.to_json()) == c
    assert c.to_json() == {"num": -13, "k": 7}
