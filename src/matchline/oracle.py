"""Brute-force round oracle: exact expected optimal cost at tiny sizes.

One round of the construction is a game: a request lands uniformly on the
grid inside each live cell and the policy matches each to a free server.
The cheapest any policy can do, even seeing the whole round up front, is
the minimum-cost matching of the request tuple to the free servers.  This
module enumerates every request tuple and averages that optimum exactly,
giving an independent reference for the per-round floor: the game value
must dominate the segment bound sum d^2/(4*2^r) and exceed (n+1)/12.

Enumeration cost is pts^q for q cells of pts grid points each, so this is
for desk sizes only (the cap is MAX_OUTCOMES outcomes, which keeps every
outcome's cost exact in an int32 grid).  The minimizer of the segment
bound alone is lemma2_config_property's min_config.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from matchline.adversary import reachable_free_count, rounds_for
from matchline.lemma_checks import LemmaReport, RoundConfig, config_lower_bound

MAX_OUTCOMES = 1 << 18


def auto_grid_k(n: int, r: int) -> int:
    """Finest grid whose outcome count stays under MAX_OUTCOMES, capped at 10.

    Kept at least 1: on the integer grid a length-d segment with d odd has
    mean endpoint distance (d^2-1)/(4d) < d/4, so the segment bound needs a
    strictly finer grid to hold exactly.
    """
    q = (n + 1) >> r
    k = 18 // q - r
    if k < 1:
        raise ValueError(f"n={n}, r={r} too large for exact enumeration")
    return min(k, 10)


def exact_round_game_value(config: RoundConfig, grid_k: int | None = None) -> Fraction:
    """Exact E[min-cost matching of one round's requests to the free servers].

    Requests are one per cell, uniform over the half-open grid of spacing
    2^-grid_k.  Cells are disjoint and ordered, so any request tuple is
    already sorted and the optimum over server subsets is the rank pairing;
    the minimum runs over sorted subsets only.  The outcome grid is int32: an
    outcome sums q distances below (n+1) 2^k = q pts, and q^2 pts <= 2^18
    whenever pts^q <= MAX_OUTCOMES.
    """
    n, r = config.n, config.r
    rounds_for(n)
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
    cells = [
        np.arange(m << (r + k), (m + 1) << (r + k), dtype=np.int32) for m in range(q)
    ]
    best: np.ndarray | None = None
    for combo in itertools.combinations(config.free_servers, q):
        grid: np.ndarray | None = None
        for t in range(q):
            d = np.abs(cells[t] - (combo[t] << k))
            shape = [1] * q
            shape[t] = pts
            d = d.reshape(shape)
            grid = d if grid is None else grid + d
        best = grid if best is None else np.minimum(best, grid, out=best)
    assert best is not None
    total = int(best.sum(dtype=np.int64))
    return Fraction(total, outcomes << k)


def oracle_report(n: int, r: int, grid_k: int | None = None) -> LemmaReport:
    """Exact check over every configuration of the reachable size for round r.

    Verifies, with zero tolerance, game value >= segment bound > (n+1)/12
    for each configuration.  observed is the smallest game value found.
    """
    f = reachable_free_count(n, r)
    count = math.comb(n, f)
    k = auto_grid_k(n, r) if grid_k is None else grid_k
    floor = Fraction(n + 1, 12)
    dominates_ok = True
    strict_ok = True
    min_game: Fraction | None = None
    min_conf: tuple[int, ...] = ()
    for conf in itertools.combinations(range(1, n + 1), f):
        cfg = RoundConfig(n, r, conf)
        lb = config_lower_bound(cfg)
        game = exact_round_game_value(cfg, k)
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
