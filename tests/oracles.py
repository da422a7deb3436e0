"""Test-only oracles: transparently correct, deliberately naive."""

import itertools
import math
from fractions import Fraction

import numpy as np

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


def subset_game_value(config, grid_k):
    """Exact game value of one round by enumerating server subsets: each
    sorted choice of q free servers gives the rank pairing's cost on every
    request tuple, and the elementwise minimum over choices is averaged."""
    q = (config.n + 1) >> config.r
    pts = 1 << (config.r + grid_k)
    best = None
    for combo in itertools.combinations(config.free_servers, q):
        grid = 0
        for t, server in enumerate(combo):
            shape = [1] * q
            shape[t] = pts
            cell = np.arange(t * pts, (t + 1) * pts, dtype=np.int64)
            grid = grid + np.abs(cell - (server << grid_k)).reshape(shape)
        best = grid if best is None else np.minimum(best, grid)
    return Fraction(int(best.sum()), pts**q << grid_k)


# Two-sided margin of the sampler calibration tests: a correct sampler puts
# one comparison past it with probability about 6.8e-6.
CALIBRATION_Z = 4.5


def binomial_z(count, trials, p):
    """Standard score of count successes in trials Bernoulli(p) draws."""
    return (count - trials * p) / math.sqrt(trials * p * (1 - p))
