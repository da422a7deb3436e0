"""Test-only oracles: transparently correct, deliberately naive."""

import itertools

BRUTE_FORCE_CAP = 9


def brute_force_cost(server_nums, point_nums):
    """Minimum total |point - server| over all point->server bijections, by
    full enumeration on same-scale integer numerators; at most
    BRUTE_FORCE_CAP points."""
    if len(server_nums) != len(point_nums):
        raise ValueError(f"size mismatch: {len(server_nums)} servers, {len(point_nums)} points")
    if len(point_nums) > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_CAP} points, got {len(point_nums)}")
    return min(
        sum(abs(p - s) for p, s in zip(point_nums, perm))
        for perm in itertools.permutations(server_nums)
    )
