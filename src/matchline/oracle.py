"""Exact round oracle: expected optimal cost at tiny sizes, by enumeration.

One round of the construction is a game: a request lands uniformly on the
grid inside each live cell and the policy matches each to a free server.
The cheapest any policy can do, even seeing the whole round up front, is
the minimum-cost matching of the request tuple to the free servers.  This
module enumerates every request tuple and averages that optimum exactly,
giving an independent reference for the per-round floor: the game value
must dominate the segment bound sum d^2/(4*2^r) and exceed (n+1)/12.

The optimum is a band DP over cells: a sorted pairing sends cell t to the
server of rank t + s, slack s in 0..f-q, and the cheapest pairing of cells
0..t ending at rank <= t + s is the cheaper of ending at rank <= t + s - 1
and going through rank t + s.  That is f-q+1 passes over pts^q outcomes for
q cells of pts grid points, so this is for desk sizes only (the cap is
MAX_OUTCOMES outcomes, keeping every outcome's cost exact in int32).  The
segment bound's exact minimum at any n, and a configuration attaining it,
are lemma2_config_property's min_lower_bound and min_config.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from matchline.adversary import reachable_free_count, rounds_for
from matchline.lemma_checks import LemmaReport, RoundConfig, config_lower_bound, round_floor

MAX_OUTCOMES = 1 << 18


def auto_grid_k(n: int, r: int) -> int:
    """Finest grid whose outcome count stays under MAX_OUTCOMES, capped at 10.

    Kept at least 1: on the integer grid a length-d segment with d odd has
    mean endpoint distance (d^2-1)/(4d) < d/4, so the segment bound needs a
    strictly finer grid to hold exactly.
    """
    i = rounds_for(n)
    if not 1 <= r <= i:
        raise ValueError(f"round must be in 1..{i}, got {r}")
    q = (n + 1) >> r
    k = 18 // q - r
    if k < 1:
        raise ValueError(f"n={n}, r={r} too large for exact enumeration")
    return min(k, 10)


def exact_round_game_value(
    config: RoundConfig, grid_k: int | None = None, out: np.ndarray | None = None
) -> Fraction:
    """Exact E[min-cost matching of one round's requests to the free servers].

    Requests are one per cell, uniform over the half-open grid of spacing
    2^-grid_k.  Cells are disjoint and ordered, so any request tuple is
    already sorted and the optimum over server subsets is the cheapest sorted
    pairing, found by the band DP of the module docstring.  The outcome grid
    is int32: an outcome sums q distances below (n+1) 2^k = q pts, DP partial
    sums are bounded by full outcome sums (grid - d by minus one distance),
    and q^2 pts <= 2^18 whenever pts^q <= MAX_OUTCOMES.  out, if given, is a
    flat int32 scratch array of at least pts^q entries; every entry used is
    overwritten.
    """
    n, r = config.n, config.r
    k = auto_grid_k(n, r) if grid_k is None else grid_k
    if k < 1:
        raise ValueError("grid_k must be at least 1 for the exact oracle")
    q = (n + 1) >> r
    f = len(config.free_servers)
    if f < q:
        raise ValueError(f"{f} free servers cannot serve {q} requests")
    pts = 1 << (r + k)
    outcomes = pts**q
    if outcomes > MAX_OUTCOMES:
        raise ValueError(
            f"{outcomes} request tuples at n={n}, r={r}, grid_k={k} exceeds the cap"
        )
    if out is None:
        out = np.empty(outcomes, dtype=np.int32)
    grid = out[:outcomes].reshape((pts,) * q)
    # best[s]: cheapest sorted pairing of cells 0..t, last server rank <= t + s
    best = [np.zeros((), dtype=np.int32)] * (f - q + 1)
    for t in range(q):
        x = np.arange(t * pts, (t + 1) * pts, dtype=np.int32)
        for s in range(f - q + 1):
            d = np.abs(x - (config.free_servers[t + s] << k))
            prev = best[s][..., None]
            if t < q - 1:
                best[s] = prev + d if s == 0 else np.minimum(best[s - 1], prev + d)
            elif s == 0:
                np.add(prev, d, out=grid)
            else:  # grid = min(grid, prev + d), with no pts^q temporary
                np.subtract(grid, d, out=grid)
                np.minimum(grid, prev, out=grid)
                np.add(grid, d, out=grid)
    total = int(grid.sum(dtype=np.int64))
    return Fraction(total, outcomes << k)


def oracle_report(n: int, r: int, grid_k: int | None = None) -> LemmaReport:
    """Exact check over every configuration of the reachable size for round r.

    Verifies, with zero tolerance, game value >= segment bound > (n+1)/12
    for each configuration.  observed is the smallest game value found.
    """
    f = reachable_free_count(n, r)
    count = math.comb(n, f)
    k = auto_grid_k(n, r) if grid_k is None else grid_k
    floor = round_floor(n)
    dominates_ok = True
    strict_ok = True
    min_game: Fraction | None = None
    min_conf: tuple[int, ...] = ()
    grid = np.empty(MAX_OUTCOMES, dtype=np.int32)  # one scratch grid per round
    for conf in itertools.combinations(range(1, n + 1), f):
        cfg = RoundConfig(n, r, conf)
        lb = config_lower_bound(cfg)
        game = exact_round_game_value(cfg, k, out=grid)
        if game < lb:
            dominates_ok = False
        if game <= floor:
            strict_ok = False
        if min_game is None or game < min_game:
            min_game, min_conf = game, conf
    assert min_game is not None
    return LemmaReport(
        lemma_id="oracle_round_game",
        n=n,
        trials=0,
        observed=float(min_game),
        bound=float(floor),
        standard_error=0.0,
        passed=dominates_ok and strict_ok,
        details={
            "r": r,
            "grid_k": k,
            "configurations": count,
            "dominates_segment_bound": dominates_ok,
            "exceeds_round_floor": strict_ok,
            "min_game_value": f"{min_game.numerator}/{min_game.denominator}",
            "min_config": list(min_conf),
        },
    )
