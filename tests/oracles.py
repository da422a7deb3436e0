"""Test-only oracles: transparently correct, deliberately naive."""

import itertools
import math
from fractions import Fraction

import numpy as np

from matchline.adversary import g_moment_nums, reachable_free_count, rounds_for
from matchline.lemma_checks import segment_square_sums

BRUTE_FORCE_CAP = 9

MASK64 = (1 << 64) - 1


def mix64(z):
    """SplitMix64 finalizer on one 64-bit word, in Python integers: the
    reference for rng.mix64_array."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


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


def grid_game_value(config, grid_k):
    """Exact game value of one round by the band DP over the full outcome
    grid: pts^q request tuples, one pass over them per unit of slack, each
    tuple's cost kept whole until the final average."""
    q = (config.n + 1) >> config.r
    slack = len(config.free_servers) - q
    pts = 1 << (config.r + grid_k)
    # best[s]: cheapest sorted pairing of cells 0..t, last server rank <= t + s
    best = [np.zeros((), dtype=np.int64)] * (slack + 1)
    for t in range(q):
        cell = np.arange(t * pts, (t + 1) * pts, dtype=np.int64)
        for s in range(slack + 1):
            through = best[s][..., None] + np.abs(cell - (config.free_servers[t + s] << grid_k))
            best[s] = through if s == 0 else np.minimum(best[s - 1], through)
    return Fraction(int(best[slack].sum()), pts**q << grid_k)


def segment_square_sum(n, r, free):
    """Sum of squared segment lengths of one configuration of round r, by
    sorting its free servers among the cell bounds."""
    width = 1 << r
    bounds = np.arange(0, n + 1 + width, width, dtype=np.int64)
    free = np.asarray(free, dtype=np.int64)
    pts = np.sort(np.concatenate((bounds, free[free % width != 0])))
    d = np.diff(pts)
    return int((d * d).sum())


def config_lower_bounds(n, r, configs):
    """The segment bound sum d^2/(4*2^r) of each configuration as a
    Fraction, read from lemma_checks.segment_square_sums."""
    return [Fraction(s, 4 << r) for s in segment_square_sums(n, r, configs).tolist()]


def min_segment_sum_by_enumeration(n, r):
    """The least segment_square_sum over every configuration of round r's
    reachable size, one configuration at a time."""
    f = reachable_free_count(n, r)
    return min(
        segment_square_sum(n, r, conf) for conf in itertools.combinations(range(1, n + 1), f)
    )


def lemma1_exact_details_by_rank(n):
    """lemma1_exact's four details, one scalar g_moment_nums call per rank,
    with both gates in unbounded Python integers."""
    i = rounds_for(n)
    max_var_num, argmax_ell = 0, 0
    identity_ok = variance_ok = True
    for ell in range(1, n + 1):
        mean_num, var_num = g_moment_nums(ell, i)
        identity_ok &= mean_num * (n + 1) == (ell * n) << i
        variance_ok &= 4 * var_num <= i << (2 * i)
        if var_num > max_var_num:
            max_var_num, argmax_ell = var_num, ell
    max_var = Fraction(max_var_num, 1 << (2 * i))
    return {
        "mean_identity": identity_ok,
        "variance_bound": variance_ok,
        "max_variance": f"{max_var.numerator}/{max_var.denominator}",
        "argmax_ell": argmax_ell,
    }


# Two-sided margin of the sampler calibration tests: a correct sampler puts
# one comparison past it with probability about 6.8e-6.
CALIBRATION_Z = 4.5


def binomial_z(count, trials, p):
    """Standard score of count successes in trials Bernoulli(p) draws."""
    return (count - trials * p) / math.sqrt(trials * p * (1 - p))
