"""Online matching algorithms over a pool of free servers.

Four policies:

  greedy_nearest       nearest free server, ties resolve to the left
  batch_round_optimal  sees a whole round, serves it with a min-cost matching
  permutation          keeps an optimal matching of everything seen so far and
                       serves each request with the one server that matching
                       newly uses
  random_free          uniform random free server: request j of a round
                       takes the free server at place j of a seeded random
                       order of the free servers

Each policy is one kernel over exact integer numerators at the instance grid
scale: the free servers are sorted numerators (server j sits at
j << grid_k), and a kernel serves one round, drops the servers it used and
returns the round's cost.  Vectorized kernels run on int64 arrays, which
GenParams' width rule keeps free of overflow.

play_block() plays a block of instances of one size and grid, given as
per-round (T, cells) origin arrays, with every requested policy, one round
at a time across the block, and all but the kernels in one pass per block.
The batch and random_free kernels carry the block's free servers as one
(T, m) int64 array from round to round, so each solves or draws a round in
one pass; greedy and permutation keep one sorted list per instance.
play() stacks Instances into a block.  Costs stay integer numerators,
which run's trial rows write as {"num", "k"} pairs at instance scale.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import sub
from typing import Callable, Sequence

import numpy as np

from matchline.adversary import GenParams, Instance, arrival_orders, reachable_free_count
from matchline.offline import sorted_cost_num
from matchline.rng import permutation_rows, stream_key_rows

GREEDY_NEAREST = "greedy_nearest"
BATCH_ROUND_OPTIMAL = "batch_round_optimal"
PERMUTATION = "permutation"
RANDOM_FREE = "random_free"
ALGORITHM_KINDS = (GREEDY_NEAREST, BATCH_ROUND_OPTIMAL, PERMUTATION, RANDOM_FREE)

_TAG_CHOICE = "choice"

# A kernel factory takes (free, seed) and returns serve(requests) -> cost.
# free is the sorted list of free server numerators, shared with the caller;
# serve removes every server it uses from it.  _KERNELS holds factories for
# blocks: (free, seeds) -> serve(free, rounds) -> (costs, free left), free the
# (T, m) int64 array of sorted rows at the start and then what the last call
# left (never written into), rounds (T, q) int64, row b served into row b.
Kernel = Callable[[Sequence[int]], int]


def _check_capacity(free: list[int], requests: Sequence[int]) -> None:
    if len(requests) > len(free):
        raise ValueError(f"{len(requests)} requests but only {len(free)} free servers")


def _greedy(free: list[int], seed: int) -> Kernel:
    """Nearest free server; equidistant neighbours resolve left."""

    def serve(requests: Sequence[int]) -> int:
        _check_capacity(free, requests)
        total = 0
        for x in requests:
            pos = bisect_left(free, x)
            if pos == len(free) or (pos and x - free[pos - 1] <= free[pos] - x):
                pos -= 1
            total += abs(x - free.pop(pos))
        return total

    return serve


def _random_free(start: np.ndarray, seeds: Sequence[int]) -> Callable:
    """Uniform random free server.  With m servers free, instance b orders
    them by permutation_rows of the key (seeds[b], "choice", m), and request
    j of the round takes the server at place j: the first q places of a
    uniform order are q uniform picks without replacement.  The keys of the
    rounds to come, each leaving m >> 1 of its m servers free, take one pass."""
    counts = [start.shape[1] >> j for j in range(start.shape[1].bit_length())]
    keys = dict(zip(counts, stream_key_rows(seeds, (_TAG_CHOICE,), counts).T))

    def serve(free: np.ndarray, rounds: np.ndarray) -> tuple[list[int], np.ndarray]:
        _check_capacity(free[0], rounds[0])
        m, q = free.shape[1], rounds.shape[1]
        perm = permutation_rows(keys[m], m)
        costs = np.abs(rounds - np.take_along_axis(free, perm[:, :q], axis=1)).sum(axis=1)
        return costs.tolist(), np.take_along_axis(free, np.sort(perm[:, q:], axis=1), axis=1)

    return serve


# ---------------------------------------------------------------------------
# Batch-optimal service: min-cost matching of a round into the free servers,
# for a block of instances at once.
#
# With both sides sorted an optimal matching never crosses, so the DP
#   dp[i][j] = min(dp[i][j-1], dp[i-1][j-1] + |req_i - srv_j|)
# is exact, and row i is a running minimum of dp[i-1][j-1] + cost_j.  Row i
# is only needed for i <= j <= i + slack, slack = m - q: the first i requests
# take at least i servers and leave m - j >= q - i for the rest.  So one band
# row, band[s] = dp[i][i + s], serves every instance of a block (they share q
# and m), and the traceback keeps, for each s, where the run of equal values
# holding s starts.  Walking back from s = slack, s stays put between rows
# and in row i jumps to the start of its run: the leftmost server set on
# ties, one gather per row.
#
# Row i is computed only on a window [lo_i, hi_i] of slack columns; the band
# rows are non-increasing and the servers distinct, so for sorted requests
# (a prefix batch included):
#  - Right edge.  Let a_i be the slack of the first server at or right of
#    request i (#servers < x_i, less i, clipped to [0, slack]) and hi_i the
#    running maximum of a_i.  From hi_i on, row i - 1 is flat (induction)
#    and the cost rises strictly, so the candidates rise strictly: row i is
#    flat past hi_i, holds band[hi_i] there and starts no run there.
#  - Left edge.  Let c_i be the slack of the last server at or left of
#    request i (#servers <= x_i, less i + 1, clipped to [0, slack]) and lo_i
#    the minimum of c_i' over i' >= i.  On [0, c_i] row i - 1 does not rise
#    and the cost falls strictly, so the candidates fall strictly: no column
#    left of lo_i wins a running minimum at or right of it, and lo_i starts
#    its own run.  lo_i never falls from row to row, so every column a row
#    reads was computed exactly, and the traceback, which only moves left to
#    run starts, never goes left of lo_i.
# A block takes the union of its instances' windows, which the two facts
# hold for too.  The run starts are kept relative to lo_i in a (q, w, T)
# table, w the widest window, in the smallest unsigned dtype that holds
# w - 1.  A block whose table would pass _TABLE_BYTES is solved in two
# halves: the facts hold for any subset of the block, so each half is exact.
_TABLE_BYTES = 8 << 20


# Rows of request-server distances the batch DP computes in one pass, as
# int64 over the window: a small slice of the table it fills.
_COST_ROWS = 64


def _places(req: np.ndarray, free: np.ndarray, span: int) -> np.ndarray:
    """(T, q) counts of row b's servers below req[b, j], all rows in one search."""
    rows = np.arange(len(req), dtype=np.int64)[:, None]
    return np.searchsorted((free + rows * span).reshape(-1), req + rows * span) - rows * free.shape[1]


def _monotone_min_cost(req: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest injection of each row of sorted requests req (T, q) into the
    same row of sorted free servers free (T, m), both int64 and >= 0: the
    (T,) costs and the (T, q) server positions, the leftmost server set on ties."""
    t, q = req.shape
    m = free.shape[1]
    slack = m - q
    ar = np.arange(q)
    # _places puts row b at b * span, span past every value, so below T span:
    # under 2**59 on the default grid (k <= 40, T (n + 1) <= BLOCK_CELLS = 2**18,
    # the prefix batch included); a block past 2**63 is halved, as past the table cap.
    span = int(max(free[:, -1:].max(initial=0), req[:, -1:].max(initial=0))) + 1
    if t * span <= 1 << 63:
        below = _places(req, free, span)  # servers < x
        on = np.take_along_axis(free, np.minimum(below, m - 1), axis=1) == req
        right = below.max(axis=0) - ar  # slack of the first server at or right of x
        left = (below + on).min(axis=0) - 1 - ar  # and of the last at or left of it
        hi = np.clip(np.maximum.accumulate(right), 0, slack)
        lo = np.clip(np.minimum.accumulate(left[::-1])[::-1], 0, slack)
        w = int((hi - lo).max(initial=0)) + 1
        dtype = np.min_scalar_type(w - 1)
    if t > 1 and (t * span > 1 << 63 or q * w * t * dtype.itemsize > _TABLE_BYTES):
        halves = [_monotone_min_cost(req[s], free[s]) for s in (slice(t // 2), slice(t // 2, t))]
        return tuple(np.concatenate(parts) for parts in zip(*halves))
    # start[i, c, b]: 1 where row i at lo_i + c differs from c - 1, then its run start
    start = np.zeros((q, w, t), dtype=dtype)
    flags = start.view(bool) if start.itemsize == 1 else start  # skips a cast per row
    band = np.zeros((slack + 1, t), dtype=np.int64)  # row 0: dp[0][j] = 0
    los, his = lo.tolist(), hi.tolist()
    top = slack  # band is exact up to top and flat past it
    for i0 in range(0, q, _COST_ROWS):
        rows = slice(i0, i0 + _COST_ROWS)
        # cost[k, c] = |x_i - f_(i + lo_i + c)| for row i = i0 + k, the server
        # index capped at m - 1 (a row never reads columns past the last server)
        at = np.minimum((ar + lo)[rows, None] + np.arange(w), m - 1)
        cost = np.abs(free.T[at] - req.T[rows, None])
        for i, (a, b, c) in enumerate(zip(los[rows], his[rows], cost), i0):
            if b > top:
                band[top + 1 : b + 1] = band[top]
            top = b
            win = band[a : b + 1]
            np.add(win, c[: b - a + 1], out=win)
            np.minimum.accumulate(win, axis=0, out=win)
            np.not_equal(band[a + 1 : b + 1], band[a:b], out=flags[i, 1 : b - a + 1])
    start *= np.arange(w, dtype=start.dtype)[:, None]
    np.maximum.accumulate(start, axis=1, out=start)
    # Walk back: row i gathers at flat index (i w + s - lo_i) t + b, s the
    # run start the row above picked (slack above the last row), clipped to
    # hi_i unless hi_(i+1) = hi_i, where s <= hi_i already.  With run[i] =
    # s - lo_i that index is run[i + 1] t + base[i]; run is int64, so the
    # product never overflows the table's dtype.
    flat = start.reshape(-1)
    cols = np.arange(t)
    base = (ar * w + np.append(lo[1:], 0) - lo)[:, None] * t + cols  # lo_q = 0
    run = np.empty((q, t), dtype=np.int64)
    above = np.full(t, slack)  # run[q]
    for i in range(q - 1, -1, -1):
        u = above * t + base[i]
        if i == q - 1 or his[i + 1] > his[i]:
            np.minimum(u, (i * w + his[i] - los[i]) * t + cols, out=u)
        run[i] = flat.take(u)
        above = run[i]
    return band[top], (run + (lo + ar)[:, None]).T


def _serve_batch(free: np.ndarray, rounds: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Serve each row of rounds (T, q) into the same row of free (T, m) with
    a minimum-cost matching: the T costs and the (T, m - q) servers left."""
    _check_capacity(free[0], rounds[0])
    t, q = rounds.shape
    if not q:
        return [0] * t, free
    cost, sel = _monotone_min_cost(np.sort(rounds, axis=1), free)
    keep = np.ones(free.shape, dtype=bool)
    keep[np.arange(t)[:, None], sel] = False
    return cost.tolist(), free[keep].reshape(t, free.shape[1] - q)


# ---------------------------------------------------------------------------
# Permutation policy: the two-neighbour block rule.
#
# Invariant: the used servers U are an optimal server set, within the pool,
# for the requests seen so far; with D(y) = #seen <= y - #U <= y the
# matching cost is the integral of |D|.  Request x goes to s_L or s_R, the
# free servers around it (s_L < x <= s_R), exactly as a scan of every free
# server would choose, leftmost on ties:
#  (a) D = 0 at every free server f.  Otherwise a run of D >= 1 (or <= -1)
#      touches f and ends at a used server u, and moving u to f lowers the
#      cost by |u - f| > 0.  So the requests split into blocks between
#      consecutive free servers, each holding as many requests as servers.
#  (b) Serving x with s costs a constant plus
#        H(s) = integral_{-inf}^{s} (2 [D(y) + [y >= x] >= 1] - 1) dy.
#      By (a) and one exchange argument each whole block beyond s_R adds a
#      strictly positive amount to H, each one before s_L a strictly
#      negative one, so every other free server costs strictly more.
#  (c) With Q the seen requests between s_L and s_R plus x, sorted, and j
#      the pool rank of s_L, the two matchings agree outside the block, so
#      H(s_R) - H(s_L) = sum_a |Q[a] - pool[j+1+a]| - sum_a |Q[a] - pool[j+a]|.
#      With no seen request between s_L and s_R, (a) leaves no used server
#      there either, so Q = [x], pool[j+1] = s_R and the rule reads
#      s_R - x >= x - s_L -> s_L.
#  (d) With s_L = free[b-1] and s_R = free[b], (a) makes #seen <= s_L the
#      #U below s_L, rank(s_L) - b + 1, and #seen < s_R the #U below s_R,
#      rank(s_R) - b (a seen request at s_R would leave D < 0 just left of
#      it).  So Q's seen part is seen[rank(s_L)-b+1 : rank(s_R)-b], empty
#      exactly when rank(s_R) - rank(s_L) = 1.


def _permutation(free: list[int], seed: int) -> Kernel:
    pool = list(free)  # the kernel's servers, used or free
    rank = {s: j for j, s in enumerate(pool)}
    seen: list[int] = []  # requests served so far, sorted

    def serve(requests: Sequence[int]) -> int:
        _check_capacity(free, requests)
        total = 0
        for x in requests:
            b = bisect_left(free, x)
            if b == len(free):  # x right of every free server: the last
                b -= 1
            elif b:
                lo, hi = free[b - 1], free[b]
                j, end = rank[lo], rank[hi]
                if end - j == 1:
                    if hi - x >= x - lo:
                        b -= 1
                else:
                    start, stop = j - b + 1, end - b  # (d)
                    block = seen[start:stop]
                    block.insert(bisect_left(seen, x, start, stop) - start, x)
                    srv = pool[j : end + 1]
                    cost_r = sum(map(abs, map(sub, block, srv[1:])))
                    if cost_r >= sum(map(abs, map(sub, block, srv))):
                        b -= 1
            total += abs(x - free.pop(b))
            insort(seen, x)
        return total

    return serve


def _each(factory: Callable[[list[int], int], Kernel]) -> Callable:
    """Block kernel factory that serves every instance with its own kernel."""

    def block(start: np.ndarray, seeds: Sequence[int]) -> Callable:
        frees = start.tolist()
        serves = [factory(free, seed) for free, seed in zip(frees, seeds)]
        return lambda free, rounds: ([f(x) for f, x in zip(serves, rounds.tolist())], frees)

    return block


_KERNELS = {
    GREEDY_NEAREST: _each(_greedy),
    BATCH_ROUND_OPTIMAL: lambda start, seeds: _serve_batch,
    PERMUTATION: _each(_permutation),
    RANDOM_FREE: _random_free,
}


# ---------------------------------------------------------------------------
# Full runs.


def cost_ratio(online: int, offline: int) -> float | None:
    """online/offline rounded once (int true division rounds the exact
    quotient, as float(Fraction) does), 0/0 = 1; None when only offline is 0."""
    if offline == 0:
        return 1.0 if online == 0 else None
    return online / offline


@dataclass(frozen=True)
class RunStats:
    """Exact per-run cost accounting for one instance and one policy.

    Costs are integer numerators at scale grid_k.  round_costs lists the
    rounds the policy actually played online; with a known prefix those are
    rounds prefix_rounds+1..i and prefix_cost is the one batch matching that
    served the prefix.  ratio is cost_ratio(online_total, offline_total).
    It is per-trial information: no aggregate reads it, since the suite's
    ratio is cost_ratio of the summed totals.
    """

    n: int
    algorithm: str
    instance_seed: int
    grid_k: int
    trial: int | None
    prefix_rounds: int
    prefix_cost: int
    round_costs: tuple[int, ...]
    online_total: int
    offline_total: int
    ratio: float | None


def check_play(kinds: Sequence[str], i: int, prefix_rounds: int) -> None:
    """Refuse what play refuses before it plays an instance of i rounds: a
    kind outside ALGORITHM_KINDS, or a prefix that leaves no round online."""
    for kind in kinds:
        if kind not in ALGORITHM_KINDS:
            raise ValueError(
                f"unknown algorithm {kind!r}; choose from {', '.join(ALGORITHM_KINDS)}"
            )
    if not 0 <= prefix_rounds < i:
        raise ValueError(f"prefix_rounds must be in 0..{i - 1}, got {prefix_rounds}")


def play_block(
    params: Sequence[GenParams],
    rounds: Sequence[np.ndarray],
    kinds: Sequence[str],
    seeds: Sequence[Sequence[int]],
    prefix_rounds: int,
    trials: Sequence[int | None],
) -> list[list[RunStats]]:
    """Play a block of instances of one size and grid: row b of rounds[r - 1],
    round r's (T, cells) origins, which the caller has checked with
    check_round_numerators, belongs to params[b] and trial trials[b].  Every
    policy in kinds plays every row, policy c seeded with seeds[c][b]: the
    first prefix_rounds rounds as one optimal batch, the rest online with
    the policy.  One list of RunStats per row, in kinds order.

    A row's arrival orders, prefix batch and offline total are shared by its
    policies.  check_play's rules and the shapes above hold; random_free
    refuses a seed outside 64 bits.  A free-server count off the
    reachable one, or an online total under the offline one, raises RuntimeError."""
    n, i, k, t = params[0].n, params[0].i, params[0].grid_k, len(params)
    check_play(kinds, i, prefix_rounds)
    if {(p.i, p.grid_k) for p in params} != {(i, k)}:
        raise ValueError("the instances of a block must share one size and one grid")
    if len(seeds) != len(kinds) or {t} != {len(trials), *map(len, seeds), *map(len, rounds)}:
        raise ValueError(f"a block of {t} needs {t} trials, round rows and seeds per policy")
    arrived = [np.take_along_axis(nums, o, axis=1) for nums, o in zip(rounds, arrival_orders(params))]
    servers = np.arange(1, n + 1, dtype=np.int64) << np.int64(k)
    offline = sorted_cost_num(servers, np.concatenate(rounds, axis=1)).tolist()
    start, prefix = np.tile(servers, (t, 1)), [0] * t
    if prefix_rounds:
        prefix, start = _serve_batch(start, np.concatenate(rounds[:prefix_rounds], axis=1))

    out: list[list[RunStats]] = [[] for _ in params]
    for kind, kind_seeds in zip(kinds, seeds):
        serve, free, costs = _KERNELS[kind](start, kind_seeds), start, []
        for r in range(prefix_rounds + 1, i + 1):
            expected = reachable_free_count(n, r)
            if wrong := {len(row) for row in free} - {expected}:
                raise RuntimeError(f"round {r}: {min(wrong)} free servers, expected {expected}")
            cost, free = serve(free, arrived[r - 1])
            costs.append(cost)
        for b, (p, round_nums) in enumerate(zip(params, zip(*costs))):
            online_num = prefix[b] + sum(round_nums)
            if online_num < offline[b]:
                raise RuntimeError(
                    f"trial {trials[b]}: {kind} pays {online_num}, below the offline"
                    f" optimum {offline[b]}"
                )
            out[b].append(RunStats(
                n=n, algorithm=kind, instance_seed=p.seed, grid_k=k, trial=trials[b],
                prefix_rounds=prefix_rounds, prefix_cost=prefix[b], round_costs=round_nums,
                online_total=online_num, offline_total=offline[b],
                ratio=cost_ratio(online_num, offline[b]),
            ))
    return out


def play(
    instances: Sequence[Instance],
    kinds: Sequence[str],
    seeds: Sequence[Sequence[int]],
    prefix_rounds: int,
    trials: Sequence[int | None],
) -> list[list[RunStats]]:
    """play_block on a block of Instances of one size and grid, instance b
    (trial trials[b]) with every policy in kinds, policy c seeded with
    seeds[b][c]."""
    rounds = [np.stack(nums) for nums in zip(*(inst.origins for inst in instances))]
    params = [inst.params for inst in instances]
    return play_block(params, rounds, kinds, list(zip(*seeds)), prefix_rounds, trials)
