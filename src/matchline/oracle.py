"""Exact round oracle: expected optimal cost at tiny sizes, by enumeration.

One round of the construction is a game: a request lands uniformly on the
grid inside each live cell and the policy matches each to a free server.
The cheapest any policy can do, even seeing the whole round up front, is
the minimum-cost matching of the request tuple to the free servers.  This
module averages that optimum exactly over every request tuple, giving an
independent reference for the per-round floor: the game value must
dominate the segment bound sum d^2/(4*2^r) and exceed (n+1)/12.

The optimum is a band DP over cells: a sorted pairing sends cell t to the
server of rank t + s, slack s in 0..f-q, and the cheapest pairing of cells
0..t ending at rank <= t + s is the cheaper of ending at rank <= t + s - 1
and going through rank t + s.  The DP runs over the request tuples of the
first q-1 cells only.  For each such prefix the last cell's cost is
min_s(best[s] + |x - c_s|), a piecewise-linear function of its request x
whose sum over the cell is closed form (_last_cell_sum), so the work is
about pts^(q-1) (f-q+2) for q cells of pts grid points, and no array holds
all pts^q tuples.  MAX_OUTCOMES still caps the tuple count pts^q, though
the work no longer needs it: auto_grid_k picks each round's grid from it,
and every report carries that grid and the exact value on it, so a larger
cap would change the reports.  The segment bound's exact minimum at
any n, and a configuration attaining it, are lemma2_config_property's
min_lower_bound and min_config.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from matchline.adversary import reachable_free_count, round_cells
from matchline.lemma_checks import LemmaReport, RoundConfig, config_lower_bounds, round_floor

MAX_OUTCOMES = 1 << 18


def auto_grid_k(n: int, r: int) -> int:
    """Finest grid whose outcome count stays under MAX_OUTCOMES, capped at 10.

    Kept at least 1: on the integer grid a length-d segment with d odd has
    mean endpoint distance (d^2-1)/(4d) < d/4, so the segment bound needs a
    strictly finer grid to hold exactly.
    """
    k = 18 // round_cells(n, r) - r
    if k < 1:
        raise ValueError(f"n={n}, r={r} too large for exact enumeration")
    return min(k, 10)


def _span(u: int | np.ndarray, v: int | np.ndarray) -> int | np.ndarray:
    """Sum of the integers in [u, v), exact: (v - u)(u + v - 1) is even."""
    return (v - u) * (u + v - 1) // 2


def _last_cell_sum(best: list[np.ndarray], servers: list[int], lo: int, hi: int) -> int:
    """Sum over every prefix and every x in [lo, hi) of min_s(best[s] + |x - servers[s]|).

    Cut [lo, hi) at each server strictly inside it.  On a piece [a, b) every
    server lies at or left of a, or at or right of b, so the minimum is
    min(L + x, R - x) with L = min(best[s] - c_s) over the left servers and
    R = min(best[s] + c_s) over the right ones; L + x wins up to
    x = floor((R - L) / 2), and each side sums as an arithmetic series.
    """
    # right[j] = min over s >= j of best[s] + c_s, None past the last server
    right: list[np.ndarray | None] = [None] * (len(servers) + 1)
    for j in range(len(servers) - 1, -1, -1):
        here = best[j] + servers[j]
        right[j] = here if right[j + 1] is None else np.minimum(right[j + 1], here)
    edges = [lo, *(c for c in servers if lo < c < hi), hi]
    left: np.ndarray | None = None  # min of best[s] - c_s over servers s < j
    j = total = 0
    for a, b in zip(edges, edges[1:]):
        while j < len(servers) and servers[j] <= a:
            here = best[j] - servers[j]
            left = here if left is None else np.minimum(left, here)
            j += 1
        if left is None:
            piece = (b - a) * right[j] - _span(a, b)
        elif right[j] is None:
            piece = (b - a) * left + _span(a, b)
        else:
            e = np.clip((right[j] - left) // 2 + 1, a, b)
            piece = (e - a) * left + _span(a, e) + (b - e) * right[j] - _span(e, b)
        total += int(piece.sum())
    return total


def exact_round_game_value(config: RoundConfig, grid_k: int | None = None) -> Fraction:
    """Exact E[min-cost matching of one round's requests to the free servers].

    Requests are one per cell, uniform over the half-open grid of spacing
    2^-grid_k.  Cells are disjoint and ordered, so any request tuple is
    already sorted and the optimum over server subsets is the cheapest sorted
    pairing, found by the band DP of the module docstring over cells
    0..q-2, in int64, with the last cell summed in closed form.
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
    servers = [c << k for c in config.free_servers]
    # best[s]: cheapest sorted pairing of cells 0..t, last server rank <= t + s
    best = [np.zeros((), dtype=np.int64)] * (f - q + 1)
    for t in range(q - 1):
        x = np.arange(t * pts, (t + 1) * pts, dtype=np.int64)
        for s in range(f - q + 1):
            through = best[s][..., None] + np.abs(x - servers[t + s])
            best[s] = through if s == 0 else np.minimum(best[s - 1], through)
    total = _last_cell_sum(best, servers[q - 1 :], (q - 1) * pts, q * pts)
    return Fraction(total, outcomes << k)


def oracle_report(n: int, r: int, grid_k: int | None = None) -> LemmaReport:
    """Exact check over every configuration of the reachable size for round r.

    Verifies, with zero tolerance, game value >= segment bound > (n+1)/12
    for each configuration; the segment bounds of all configurations come
    from one config_lower_bounds pass.  observed is the smallest game value
    found.  The grid is auto_grid_k(n, r), capped by grid_k when given.
    """
    f = reachable_free_count(n, r)
    k = auto_grid_k(n, r) if grid_k is None else min(auto_grid_k(n, r), grid_k)
    floor = round_floor(n)
    dominates_ok = True
    strict_ok = True
    min_game: Fraction | None = None
    min_conf: tuple[int, ...] = ()
    configs = list(itertools.combinations(range(1, n + 1), f))
    for conf, lb in zip(configs, config_lower_bounds(n, r, configs)):
        game = exact_round_game_value(RoundConfig(n, r, conf), k)
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
            "configurations": len(configs),
            "dominates_segment_bound": dominates_ok,
            "exceeds_round_floor": strict_ok,
            "min_game_value": f"{min_game.numerator}/{min_game.denominator}",
            "min_config": list(min_conf),
        },
    )
