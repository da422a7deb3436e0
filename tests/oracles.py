"""Test-only oracles: transparently correct, deliberately naive."""

import itertools
import math

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


# Two-sided margin of the sampler calibration tests: a correct sampler puts
# one comparison past it with probability about 6.8e-6.
CALIBRATION_Z = 4.5


def binomial_z(count, trials, p):
    """Standard score of count successes in trials Bernoulli(p) draws."""
    return (count - trials * p) / math.sqrt(trials * p * (1 - p))
