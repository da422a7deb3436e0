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
and going through rank t + s; cells are disjoint and ordered, so any
request tuple is already sorted.  The DP runs over the prefixes, the request
tuples of the first q-1 cells, and the last cell is summed in closed form
(_last_cell_sums), so no array holds all pts^q tuples.  One numpy pass
values a stack of configurations of one size; oracle_report feeds it slices
of at most PASS_PREFIXES (configuration, prefix) rows, or one configuration
when one has more.  MAX_OUTCOMES caps pts^q: auto_grid_k picks each round's
grid from it, and the reports carry that grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from matchline.adversary import reachable_free_count, round_cells
from matchline.lemma_checks import LemmaReport, RoundConfig, round_floor, segment_square_sums

MAX_OUTCOMES = 1 << 18
PASS_PREFIXES = 1 << 12


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


def _checked_grid(n: int, r: int, grid_k: int, free_count: int) -> tuple[int, int]:
    """Points per cell and cells of round r, refusing grid_k < 1, fewer free
    servers than cells, or more than MAX_OUTCOMES request tuples."""
    q = round_cells(n, r)
    if grid_k < 1:
        raise ValueError("grid_k must be at least 1 for the exact oracle")
    if free_count < q:
        raise ValueError(f"{free_count} free servers cannot serve {q} requests")
    if (pts := 1 << (r + grid_k)) ** q > MAX_OUTCOMES:
        raise ValueError(f"{pts**q} request tuples at n={n}, r={r}, grid_k={grid_k} exceeds the cap")
    return pts, q


def _span(u: int | np.ndarray, v: int | np.ndarray) -> int | np.ndarray:
    """Sum of the integers in [u, v), exact: (v - u)(u + v - 1) is even."""
    return (v - u) * (u + v - 1) // 2


def _last_cell_sums(best: list[np.ndarray], servers: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row c, the sum over every prefix p and x in [lo, hi) of
    min_s(best[s][c, p] + |x - servers[c, s]|), for (C, P) int64 costs
    best[s] and a (C, len(best)) stack of ascending servers.

    Cut [lo, hi) at each server clipped to it: piece j runs from server j-1
    (or lo) to server j (or hi), so in every row servers s < j lie at or left
    of it and the others at or right; a piece empty in every row is skipped.  On a piece
    [a, b) the minimum is min(L + x, R - x), L = min(best[s] - c_s) over the
    left servers and R = min(best[s] + c_s) over the right ones; L + x wins
    up to x = floor((R - L) / 2), and each side sums as an arithmetic series.
    """
    (rows, prefixes), m = best[0].shape, len(best)
    edges = np.empty((rows, m + 2), dtype=np.int64)  # piece j is [edges[j], edges[j + 1])
    edges[:, 0], edges[:, -1] = lo, hi
    np.minimum(np.maximum(servers, lo), hi, out=edges[:, 1:-1])
    live = np.flatnonzero((edges[:, :-1] < edges[:, 1:]).any(axis=0)).tolist()
    # left[j] = min over s < j of best[s] - c_s, right[j] over s >= j of best[s] + c_s
    left, right = [None] * (m + 1), [None] * (m + 1)
    for j in range(1, live[-1] + 1):
        here = best[j - 1] - servers[:, j - 1, None]
        left[j] = here if j == 1 else np.minimum(left[j - 1], here, out=here)
    for j in range(m - 1, live[0] - 1, -1):
        here = best[j] + servers[:, j, None]
        right[j] = here if j == m - 1 else np.minimum(right[j + 1], here, out=here)
    total = np.zeros(rows, dtype=np.int64)
    for j in live:
        a, b, low, high = edges[:, j], edges[:, j + 1], left[j], right[j]
        if low is None:
            total += (b - a) * high.sum(axis=1) - prefixes * _span(a, b)
        elif high is None:
            total += (b - a) * low.sum(axis=1) + prefixes * _span(a, b)
        else:
            # (e - a) L + span(a, e) + (b - e) R - span(e, b), split at e, is
            # e (e - 1 - gap) + b R - a L - span(0, a) - span(0, b)
            gap = high - low
            e = np.minimum(np.maximum((gap >> 1) + 1, a[:, None]), b[:, None])
            gap = (gap - e + 1) * e
            total += b * high.sum(axis=1) - a * low.sum(axis=1) - gap.sum(axis=1)
            total -= prefixes * (_span(0, a) + _span(0, b))
    return total


def _round_game_totals(servers: np.ndarray, q: int, pts: int) -> np.ndarray:
    """Per row of a (C, f) int64 stack of free servers at grid scale, f >= q:
    the optimal matching cost summed over every request tuple of q cells of
    pts points, by the band DP and the closed-form last cell."""
    rows, f = servers.shape
    # best[s]: cheapest sorted pairing of cells 0..t, last server rank <= t + s
    best = [np.zeros((rows, 1), dtype=np.int64)] * (f - q + 1)
    for t in range(q - 1):
        x = np.arange(t * pts, (t + 1) * pts, dtype=np.int64)
        for s in range(f - q + 1):
            step = np.abs(x - servers[:, t + s, None])[:, None, :]
            through = (best[s][:, :, None] + step).reshape(rows, -1)
            best[s] = through if s == 0 else np.minimum(best[s - 1], through, out=through)
    return _last_cell_sums(best, servers[:, q - 1 :], (q - 1) * pts, q * pts)


def exact_round_game_value(config: RoundConfig, grid_k: int) -> Fraction:
    """Exact E[min-cost matching of one round's requests to the free servers],
    with one request per cell, uniform over the half-open grid of spacing
    2^-grid_k: a one-row pass of the band DP."""
    n, r, free = config.n, config.r, config.free_servers
    pts, q = _checked_grid(n, r, grid_k, len(free))
    total = _round_game_totals(np.array([free], dtype=np.int64) << grid_k, q, pts)
    return Fraction(int(total[0]), pts**q << grid_k)


def oracle_report(n: int, r: int, grid_k: int | None = None) -> LemmaReport:
    """Exact check over every configuration of the reachable size for round r.

    Verifies, with zero tolerance, game value >= segment bound > (n+1)/12
    for each configuration, comparing integer numerators; observed is the
    smallest game value, first in combinations order.  The grid is
    auto_grid_k(n, r), capped by grid_k when given.
    """
    k = auto_grid_k(n, r) if grid_k is None else min(auto_grid_k(n, r), grid_k)
    f = reachable_free_count(n, r)
    pts, q = _checked_grid(n, r, k, f)
    configs = list(itertools.combinations(range(1, n + 1), f))
    servers = np.array(configs, dtype=np.int64) << k
    step = max(1, PASS_PREFIXES // pts ** (q - 1))
    totals = np.concatenate(
        [_round_game_totals(servers[c : c + step], q, pts) for c in range(0, len(configs), step)]
    )
    # value T / (pts^q 2^k) against bound S / (4 2^r) and floor num / den
    denom = pts**q << k
    floor = round_floor(n)
    dominates_ok = bool(np.all(totals * (4 << r) >= segment_square_sums(n, r, configs) * denom))
    strict_ok = bool(np.all(totals * floor.denominator > floor.numerator * denom))
    first_min = int(np.argmin(totals))
    min_game = Fraction(int(totals[first_min]), denom)
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
            "min_config": list(configs[first_min]),
        },
    )
