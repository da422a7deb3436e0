"""Exact dyadic coordinate arithmetic."""

from fractions import Fraction

import pytest

from matchline.geometry import (
    Coord,
    CoordDomainError,
    CoordOverflowError,
    abs_distance,
    common_scale,
    coord_from_integer,
    snap_to_grid,
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


def test_snap_already_on_grid():
    assert snap_to_grid(Fraction(1), 4) == coord_from_integer(1, 4)


def test_snap_tie_rounds_down():
    # 0.40625 = 6.5/16 sits exactly between grid neighbors
    got = snap_to_grid(Fraction(65, 160), 4)
    assert got == Coord(6, 4)
    assert got.as_fraction() == Fraction(3, 8)


@pytest.mark.parametrize("num,expect", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)])
def test_snap_half_integers(num, expect):
    assert snap_to_grid(Fraction(num, 2), 0).num == expect


def test_snap_error_distance_bound():
    # |snap(x) - x| <= 2^-(k+1) over a spread of random dyadic inputs
    s = Stream(2024, "snap")
    k = 20
    half = Fraction(1, 1 << (k + 1))
    for _ in range(5000):
        x = Fraction(s.randbelow(5 << (k + 4)), 1 << (k + 4))
        got = snap_to_grid(x, k)
        assert abs(got.as_fraction() - x) <= half
        assert got.k == k


def test_snap_minimizes_over_coarse_grid():
    k = 3
    for j in range(0, 16 * 8 + 1):
        x = Fraction(j, 1 << 7)
        got = snap_to_grid(x, k).as_fraction()
        best = min(
            (abs(Fraction(g, 1 << k) - x) for g in range(0, (1 << k) * 17)),
        )
        assert abs(got - x) == best


def test_snap_domain_errors():
    with pytest.raises(CoordDomainError):
        snap_to_grid(Fraction(-1, 2), 4)
    with pytest.raises(CoordDomainError):
        snap_to_grid(Fraction(9), 3, upper=Fraction(8))
    snap_to_grid(Fraction(8), 3, upper=Fraction(8))


def test_abs_distance_cases():
    two = coord_from_integer(2, 5)
    assert abs_distance(two, two) == Coord(0, 0)
    assert abs_distance(coord_from_integer(1, 3), coord_from_integer(4, 3)).as_fraction() == 3


def test_abs_distance_properties():
    s = Stream(7, "dist")
    pts = [Coord(s.randbelow(1 << 12), s.randbelow(8)) for _ in range(60)]
    for a, b in zip(pts, pts[1:]):
        assert abs_distance(a, b) == abs_distance(b, a)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        lhs = abs_distance(a, c).as_fraction()
        assert lhs <= abs_distance(a, b).as_fraction() + abs_distance(b, c).as_fraction()


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
    assert Coord.from_json(c.to_json()) == c
    assert c.to_json() == {"num": -13, "k": 7}
