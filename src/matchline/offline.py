"""Exact offline optimum for matching points to servers on a line.

On a line the minimum-cost perfect matching of two equal-size point sets
pairs the ell-th leftmost point with the ell-th leftmost server (uncrossing
any crossing pair never increases cost).  sorted_matching_cost implements
that directly; brute_force_min_cost enumerates permutations and exists as a
transparently-correct oracle for small sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from matchline.geometry import Coord, common_scale

BRUTE_FORCE_CAP = 9


@dataclass(frozen=True)
class Assignment:
    """A matching: pairs of (point_index, server_index) with exact costs.

    Indices refer to the argument lists as given (before sorting); pairs are
    listed in ascending point order.  total_cost is the exact sum.
    """

    pairs: tuple[tuple[int, int], ...]
    per_pair_cost: tuple[Coord, ...]
    total_cost: Coord


def _sorted_order(nums: Sequence[int]) -> list[int]:
    # stable: ties keep original index order
    return sorted(range(len(nums)), key=lambda idx: (nums[idx], idx))


def sorted_matching_cost(servers: Sequence[Coord], points: Sequence[Coord]) -> Assignment:
    """Minimum-cost perfect matching by rank pairing; exact."""
    if len(servers) != len(points):
        raise ValueError(f"size mismatch: {len(servers)} servers, {len(points)} points")
    k = common_scale(servers, points)
    s_nums = [c.at_scale(k) for c in servers]
    p_nums = [c.at_scale(k) for c in points]
    s_order = _sorted_order(s_nums)
    p_order = _sorted_order(p_nums)
    pairs = []
    costs = []
    total = 0
    for p_idx, s_idx in zip(p_order, s_order):
        d = abs(p_nums[p_idx] - s_nums[s_idx])
        pairs.append((p_idx, s_idx))
        costs.append(Coord(d, k))
        total += d
    return Assignment(tuple(pairs), tuple(costs), Coord(total, k))


def brute_force_min_cost(servers: Sequence[Coord], points: Sequence[Coord]) -> Assignment:
    """Minimum over all point->server bijections, by full enumeration.

    Deliberately naive so it can serve as an oracle; sizes are capped at
    BRUTE_FORCE_CAP.  Ties resolve to the lexicographically first permutation.
    """
    if len(servers) != len(points):
        raise ValueError(f"size mismatch: {len(servers)} servers, {len(points)} points")
    size = len(points)
    if size > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_CAP} points, got {size}")
    k = common_scale(servers, points)
    s_nums = [c.at_scale(k) for c in servers]
    p_nums = [c.at_scale(k) for c in points]
    best_total = None
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(range(size)):
        total = 0
        for p_idx, s_idx in enumerate(perm):
            total += abs(p_nums[p_idx] - s_nums[s_idx])
        if best_total is None or total < best_total:
            best_total = total
            best_perm = perm
    if best_total is None:
        return Assignment((), (), Coord(0, 0))
    pairs = tuple((p_idx, best_perm[p_idx]) for p_idx in range(size))
    costs = tuple(Coord(abs(p_nums[p] - s_nums[s]), k) for p, s in pairs)
    return Assignment(pairs, costs, Coord(best_total, k))


def sorted_cost_num(server_nums: Sequence[int], point_nums: Sequence[int]) -> int:
    """Rank-pairing cost on same-scale non-negative numerators; exact while
    the sum fits int64, which GenParams' width rule guarantees on the run
    path."""
    if len(server_nums) != len(point_nums):
        raise ValueError("size mismatch")
    s = np.sort(np.asarray(server_nums, dtype=np.int64))
    p = np.sort(np.asarray(point_nums, dtype=np.int64))
    return int(np.abs(p - s).sum())
