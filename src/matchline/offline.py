"""Exact offline optimum for matching points to servers on a line.

On a line the minimum-cost perfect matching of two equal-size point sets
pairs the ell-th leftmost point with the ell-th leftmost server (uncrossing
any crossing pair never increases cost).  sorted_cost_num is that rank
pairing on int64 numerators at one scale, and every offline total comes from
it; the test suite checks it against full enumeration on small sizes.
sorted_matching_cost is its Coord edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from matchline.geometry import Coord


@dataclass(frozen=True)
class Assignment:
    """The cost of an optimal matching, exact."""

    total_cost: Coord


def sorted_cost_num(server_nums: Sequence[int], point_nums: Sequence[int]) -> int:
    """Rank-pairing cost on same-scale numerators; exact or refusing.

    Raises ValueError when a numerator does not fit int64, or when the sum
    might not: the cost is at most len * (max - min) over both sets, and that
    bound must stay below 2**63.  GenParams' width rule keeps every run-path
    instance well inside it.
    """
    if len(server_nums) != len(point_nums):
        raise ValueError("size mismatch")
    try:
        s = np.sort(np.asarray(server_nums, dtype=np.int64))
        p = np.sort(np.asarray(point_nums, dtype=np.int64))
    except OverflowError as exc:
        raise ValueError(f"numerator does not fit int64: {exc}") from exc
    if len(s) == 0:
        return 0
    span = max(int(s[-1]), int(p[-1])) - min(int(s[0]), int(p[0]))
    if len(s) * span >= 1 << 63:
        raise ValueError(f"{len(s)} pairs over a span of {span} may overflow int64")
    return int(np.abs(p - s).sum())


def sorted_matching_cost(servers: Sequence[Coord], points: Sequence[Coord]) -> Assignment:
    """sorted_cost_num on Coords aligned to their finest scale."""
    k = max((c.k for c in (*servers, *points)), default=0)
    total = sorted_cost_num([c.at_scale(k) for c in servers], [c.at_scale(k) for c in points])
    return Assignment(total_cost=Coord(total, k))
