"""Offline optimum on the line and its brute-force oracle."""

from fractions import Fraction

import numpy as np
import pytest

from matchline.geometry import Coord, coord_from_integer
from matchline.offline import (
    brute_force_min_cost,
    sorted_cost_num,
    sorted_matching_cost,
)
from matchline.rng import Stream


def c(x, k=6):
    """The value x, which must lie on the scale-k grid, as a Coord."""
    num = Fraction(x) * (1 << k)
    assert num.denominator == 1
    return Coord(int(num), k)


def ints(values, k=4):
    return [coord_from_integer(v, k) for v in values]


def test_identity_pair_costs_zero():
    asn = sorted_matching_cost(ints([1]), ints([1]))
    assert asn.total_cost == Coord(0, 0)
    assert asn.pairs == ((0, 0),)


def test_sorted_direct_formula():
    servers = ints([1, 2, 3])
    points = [c("0.5"), c("2.5"), c("3.5")]
    asn = sorted_matching_cost(servers, points)
    assert asn.total_cost.as_fraction() == Fraction(3, 2)
    assert [p.as_fraction() for p in asn.per_pair_cost] == [
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
    ]


def test_sorted_handles_unsorted_points():
    servers = ints([1, 2, 3])
    points = [c("3.5"), c("0.5"), c("2.5")]
    asn = sorted_matching_cost(servers, points)
    assert asn.total_cost.as_fraction() == Fraction(3, 2)
    # pairs refer to original indices: point 1 (value 0.5) gets server 0
    assert (1, 0) in asn.pairs


def test_size_mismatch():
    with pytest.raises(ValueError):
        sorted_matching_cost(ints([1, 2]), ints([1]))


def test_brute_force_unique_matching():
    asn = brute_force_min_cost(ints([5]), [c("4.25")])
    assert asn.total_cost.as_fraction() == Fraction(3, 4)


def test_brute_force_two_points():
    # points 1.5 and 1.625: sorted pairing 0.5 + 0.375 beats crossing 0.625 + 0.5
    asn = brute_force_min_cost(ints([1, 2], k=4), [Coord(24, 4), Coord(26, 4)])
    assert asn.total_cost.as_fraction() == Fraction(7, 8)
    assert asn.pairs == ((0, 0), (1, 1))


def test_brute_force_crossing_pair():
    asn = brute_force_min_cost(ints([1, 2]), ints([2, 1]))
    assert asn.total_cost == Coord(0, 0)
    assert set(asn.pairs) == {(0, 1), (1, 0)}


def test_brute_force_size_cap():
    pts = ints(list(range(10)))
    with pytest.raises(ValueError):
        brute_force_min_cost(pts, pts)


def test_assignment_total_is_sum_of_pairs():
    servers = ints([1, 3, 6])
    points = [c("1.25"), c("2.5"), c("7")]
    for asn in (sorted_matching_cost(servers, points), brute_force_min_cost(servers, points)):
        total = Fraction(0)
        for pc in asn.per_pair_cost:
            total += pc.as_fraction()
        assert asn.total_cost.as_fraction() == total
        assert sorted(p for p, _ in asn.pairs) == [0, 1, 2]
        assert sorted(s for _, s in asn.pairs) == [0, 1, 2]


def test_oracle_equivalence_random():
    s = Stream(314, "offline-oracle")
    for _ in range(120):
        size = 1 + s.randbelow(6)
        servers = sorted(
            (Coord(s.randbelow(1 << 10), 6) for _ in range(size)),
            key=lambda co: co.num,
        )
        points = [Coord(s.randbelow(1 << 10), 6) for _ in range(size)]
        fast = sorted_matching_cost(servers, points)
        slow = brute_force_min_cost(servers, points)
        assert fast.total_cost == slow.total_cost


def test_shift_changes_cost_by_at_most_n_t():
    s = Stream(272, "shift")
    for _ in range(40):
        size = 1 + s.randbelow(5)
        servers = sorted(
            (Coord(s.randbelow(1 << 8), 5) for _ in range(size)), key=lambda co: co.num
        )
        points = [Coord(s.randbelow(1 << 8), 5) for _ in range(size)]
        t = Coord(1 + s.randbelow(16), 5)
        shifted = [p + t for p in points]
        base = sorted_matching_cost(servers, points).total_cost.as_fraction()
        moved = sorted_matching_cost(servers, shifted).total_cost.as_fraction()
        assert abs(moved - base) <= size * t.as_fraction()


def test_coincident_points_stable_and_cost_invariant():
    servers = ints([1, 2])
    twice = [Coord(24, 4), Coord(24, 4)]  # both at 1.5
    asn = sorted_matching_cost(servers, twice)
    # stable order: first point keeps the left server
    assert asn.pairs == ((0, 0), (1, 1))
    assert asn.total_cost.as_fraction() == 1
    assert brute_force_min_cost(servers, twice).total_cost.as_fraction() == 1


def test_sorted_cost_num_agrees_with_rank_pairing():
    s = Stream(288, "cost-num")
    for _ in range(60):
        size = s.randbelow(9)
        servers = [s.randbelow(1 << 12) for _ in range(size)]
        points = [s.randbelow(1 << 12) for _ in range(size)]
        want = sorted_matching_cost(ints(servers, 0), ints(points, 0)).total_cost
        got = sorted_cost_num(np.asarray(servers, dtype=np.int64), points)
        assert type(got) is int
        assert got == want.at_scale(0)
    with pytest.raises(ValueError):
        sorted_cost_num([1, 2], [1])


def test_sorted_cost_num_exact_at_widest_legal_scale():
    # the widest grid GenParams allows, 2 i + grid_k + 1 = 61, against Python ints
    s = Stream(289, "cost-num-wide")
    for i in (1, 5, 10, 13):
        n, k = (1 << i) - 1, 60 - 2 * i
        servers = [j << k for j in range(1, n + 1)]
        top = (n + 1) << k
        for points in ([0] * n, [top] * n, [s.randbelow(top + 1) for _ in range(n)]):
            want = sum(abs(a - b) for a, b in zip(sorted(points), servers))
            assert sorted_cost_num(np.asarray(servers, dtype=np.int64), points) == want
