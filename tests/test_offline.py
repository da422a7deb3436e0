"""Offline optimum on the line against the brute-force oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import brute_force_cost

from matchline.geometry import Coord
from matchline.offline import sorted_cost_num, sorted_matching_cost


def c(x, k=6):
    """The value x, which must lie on the scale-k grid, as a Coord."""
    num = Fraction(x) * (1 << k)
    assert num.denominator == 1
    return Coord(int(num), k)


def ints(values, k=4):
    return [Coord(v << k, k) for v in values]


def test_identity_pair_costs_zero():
    assert sorted_matching_cost(ints([1]), ints([1])).total_cost == Coord(0, 4)
    assert sorted_cost_num([], []) == 0


def test_sorted_direct_formula():
    servers = ints([1, 2, 3])
    points = [c("0.5"), c("2.5"), c("3.5")]
    assert sorted_matching_cost(servers, points).total_cost.at_scale(6) == 3 << 5


def test_sorted_handles_unsorted_points():
    servers = ints([1, 2, 3])
    points = [c("3.5"), c("0.5"), c("2.5")]
    assert sorted_matching_cost(servers, points).total_cost.at_scale(6) == 3 << 5


def test_sorted_matching_cost_aligns_mixed_scales():
    # 1.5 = Coord(3, 1) against 0.125 = Coord(1, 3): 11/8 at the finer scale 3
    assert sorted_matching_cost([Coord(3, 1)], [Coord(1, 3)]).total_cost == Coord(11, 3)
    assert sorted_matching_cost([], []).total_cost == Coord(0, 0)


def test_size_mismatch():
    with pytest.raises(ValueError):
        sorted_matching_cost(ints([1, 2]), ints([1]))
    with pytest.raises(ValueError):
        brute_force_cost([1, 2], [1])


def test_brute_force_unique_matching():
    # 4.25 against server 5 at scale 6
    assert brute_force_cost([5 << 6], [272]) == 48


def test_brute_force_two_points():
    # points 1.5 and 1.625: sorted pairing 0.5 + 0.375 beats crossing 0.625 + 0.5
    assert brute_force_cost([16, 32], [24, 26]) == 14


def test_brute_force_crossing_pair():
    assert brute_force_cost([1, 2], [2, 1]) == 0


def test_brute_force_size_cap():
    pts = list(range(10))
    with pytest.raises(ValueError):
        brute_force_cost(pts, pts)
    assert brute_force_cost(pts[:9], pts[:9]) == 0


def test_oracle_equivalence_random():
    s = random.Random(314)
    for _ in range(120):
        size = 1 + s.randrange(6)
        servers = sorted(s.randrange(1 << 10) for _ in range(size))
        points = [s.randrange(1 << 10) for _ in range(size)]
        assert sorted_cost_num(servers, points) == brute_force_cost(servers, points)


def test_shift_changes_cost_by_at_most_n_t():
    s = random.Random(272)
    for _ in range(40):
        size = 1 + s.randrange(5)
        servers = sorted(s.randrange(1 << 8) for _ in range(size))
        points = [s.randrange(1 << 8) for _ in range(size)]
        t = 1 + s.randrange(16)
        base = sorted_cost_num(servers, points)
        moved = sorted_cost_num(servers, [p + t for p in points])
        assert abs(moved - base) <= size * t


def test_coincident_points_stable_and_cost_invariant():
    servers = ints([1, 2])
    twice = [Coord(24, 4), Coord(24, 4)]  # both at 1.5
    assert sorted_matching_cost(servers, twice).total_cost == Coord(16, 4)
    assert brute_force_cost([16, 32], [24, 24]) == 16


def test_sorted_cost_num_agrees_with_rank_pairing():
    s = random.Random(288)
    for _ in range(60):
        size = s.randrange(9)
        servers = [s.randrange(1 << 12) for _ in range(size)]
        points = [s.randrange(1 << 12) for _ in range(size)]
        want = sum(abs(a - b) for a, b in zip(sorted(servers), sorted(points)))
        got = sorted_cost_num(np.asarray(servers, dtype=np.int64), points)
        assert type(got) is int
        assert got == want
        assert sorted_matching_cost(ints(servers, 0), ints(points, 0)).total_cost == Coord(want, 0)
    with pytest.raises(ValueError):
        sorted_cost_num([1, 2], [1])


def test_sorted_cost_num_exact_at_widest_legal_scale():
    # the widest grid GenParams allows, 2 i + grid_k + 1 = 61, against Python ints
    s = random.Random(289)
    for i in (1, 5, 10, 13):
        n, k = (1 << i) - 1, 60 - 2 * i
        servers = [j << k for j in range(1, n + 1)]
        top = (n + 1) << k
        for points in ([0] * n, [top] * n, [s.randrange(top + 1) for _ in range(n)]):
            want = sum(abs(a - b) for a, b in zip(sorted(points), servers))
            assert sorted_cost_num(np.asarray(servers, dtype=np.int64), points) == want


def test_sorted_cost_is_exact_or_refuses_at_the_int64_edge():
    # len * (max - min) just below 2**63 is summed exactly; at 2**63 it is refused
    top = (1 << 61) - 1
    assert sorted_cost_num([0] * 4, [top] * 4) == 4 * top
    assert sorted_matching_cost([Coord(0, 0)] * 4, [Coord(top, 0)] * 4).total_cost == Coord(
        4 * top, 0
    )
    with pytest.raises(ValueError):
        sorted_cost_num([0] * 4, [top + 1] * 4)
    with pytest.raises(ValueError):
        sorted_matching_cost([Coord(0, 0)] * 4, [Coord(top + 1, 0)] * 4)
    # a numerator outside int64, before or after aligning scales
    assert sorted_cost_num([(1 << 63) - 1], [0]) == (1 << 63) - 1
    with pytest.raises(ValueError):
        sorted_cost_num([1 << 63], [0])
    assert sorted_matching_cost([Coord(1 << 61, 0)], [Coord(0, 1)]).total_cost == Coord(1 << 62, 1)
    with pytest.raises(ValueError):
        sorted_matching_cost([Coord(1 << 62, 0)], [Coord(0, 1)])


def test_row_wise_cost_matches_each_row_alone():
    # a (T, len) array of point rows is paired row by row, as the 1-D form
    # pairs each row alone, and an overflowing row is refused with the same
    # ValueError as that row alone
    s = random.Random(290)
    for _ in range(200):
        size, rows = 1 + s.randrange(9), 1 + s.randrange(6)
        bits = s.choice((12, 40, 59))
        servers = np.asarray([s.randrange(1 << bits) for _ in range(size)], dtype=np.int64)
        points = np.asarray(
            [[s.randrange(1 << bits) for _ in range(size)] for _ in range(rows)], dtype=np.int64
        )
        got = sorted_cost_num(servers, points)
        assert got.dtype == np.int64 and got.shape == (rows,)
        assert got.tolist() == [sorted_cost_num(servers, row) for row in points]
    top = (1 << 61) - 1
    servers = np.zeros(4, dtype=np.int64)
    points = np.array([[top] * 4, [0, 1, 2, 3], [top + 1] * 4, [top + 2] * 4], dtype=np.int64)
    with pytest.raises(ValueError) as alone:
        sorted_cost_num(servers, points[2])
    with pytest.raises(ValueError) as rows:
        sorted_cost_num(servers, points)
    want = f"4 pairs over a span of {top + 1} may overflow int64"
    assert str(rows.value) == str(alone.value) == want
    assert sorted_cost_num(servers, points[:2]).tolist() == [4 * top, 6]
    with pytest.raises(ValueError, match="size mismatch"):
        sorted_cost_num(servers, points[:, :3])
