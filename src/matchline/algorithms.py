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
scale: the free servers are a sorted list of numerators (server j sits at
j << grid_k), and a kernel serves one round, removes the servers it used and
returns the round's cost.  Vectorized kernels run on int64 arrays, which
GenParams' width rule keeps free of overflow.

play() plays a block of instances of one size (per-round origin numerators)
with every requested policy, one round at a time across the block, so the
batch policy and the known-prefix batch solve one stacked DP per round, and
the block's arrival orders and random_free picks take one draw pass per
round.
Costs stay integer numerators; RunStats.to_json_dict writes each as a
{"num", "k"} pair at the instance scale.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Sequence

import numpy as np

from matchline.adversary import Instance, arrival_orders, reachable_free_count
from matchline.offline import sorted_cost_num
from matchline.rng import permutation_rows, stream_key

GREEDY_NEAREST = "greedy_nearest"
BATCH_ROUND_OPTIMAL = "batch_round_optimal"
PERMUTATION = "permutation"
RANDOM_FREE = "random_free"
ALGORITHM_KINDS = (GREEDY_NEAREST, BATCH_ROUND_OPTIMAL, PERMUTATION, RANDOM_FREE)

_TAG_CHOICE = "choice"

# A kernel factory takes (free, seed) and returns serve(requests) -> cost.
# free is the sorted list of free server numerators, shared with the caller;
# serve removes every server it uses from it.  _KERNELS holds factories for
# blocks: (frees, seeds) -> serve(rounds) -> costs, rounds[b] into frees[b].
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


def _random_free(frees: Sequence[list[int]], seeds: Sequence[int]) -> Callable:
    """Uniform random free server.  With m servers free, instance b orders
    them by permutation_rows of the key (seeds[b], "choice", m), and request
    j of the round takes the server at place j: the first q places of a
    uniform order are q uniform picks without replacement.  A round's
    orders for the whole block come from one pass (the free lists have
    one length)."""

    def serve(rounds: Sequence[Sequence[int]]) -> list[int]:
        _check_capacity(frees[0], rounds[0])
        m, q = len(frees[0]), len(rounds[0])
        perm = permutation_rows([stream_key(seed, _TAG_CHOICE, m) for seed in seeds], m)
        srv = np.array(frees, dtype=np.int64)
        picked = np.take_along_axis(srv, perm[:, :q], axis=1)
        costs = np.abs(np.array(rounds, dtype=np.int64) - picked).sum(axis=1)
        rest = np.take_along_axis(srv, np.sort(perm[:, q:], axis=1), axis=1)
        for free, row in zip(frees, rest.tolist()):
            free[:] = row
        return costs.tolist()

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
# ties, one gather per row.  The run starts take the smallest unsigned dtype
# that holds slack, so the table is no larger than a bool table through
# slack 255 (n = 511).


def batch_table_bytes(n: int) -> int:
    """Bytes of one instance's largest batch traceback table: (n+1)/2
    requests into n servers (round 1, or a one-round prefix)."""
    return ((n + 1) // 2) ** 2 * np.min_scalar_type((n - 1) // 2).itemsize


def _monotone_min_cost(req: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest injection of each row of sorted requests req (T, q) into the
    same row of sorted free servers free (T, m), both int64: the (T,) costs
    and the (T, q) server positions, the leftmost server set on ties."""
    t, q = req.shape
    slack = free.shape[1] - q
    band = np.zeros((t, slack + 1), dtype=np.int64)  # row 0: dp[0][j] = 0
    # start[i-1, :, s]: 1 where row i at s differs from s-1, then its run start
    start = np.zeros((q, t, slack + 1), dtype=np.min_scalar_type(slack))
    for i in range(q):
        cand = band + np.abs(req[:, i, None] - free[:, i : i + slack + 1])
        np.minimum.accumulate(cand, axis=1, out=band)
        np.not_equal(band[:, 1:], band[:, :-1], out=start[i, :, 1:])
    start *= np.arange(slack + 1, dtype=start.dtype)
    np.maximum.accumulate(start, axis=2, out=start)
    flat = start.reshape(q, t * (slack + 1))
    offsets = np.arange(t) * (slack + 1)
    s = np.full(t, slack)
    sel = np.empty((t, q), dtype=np.int64)
    for i in range(q - 1, -1, -1):
        sel[:, i] = s = flat[i, offsets + s]
    sel += np.arange(q)
    return band[:, slack], sel


def _serve_batch(frees: Sequence[list[int]], rounds: Sequence[Sequence[int]]) -> list[int]:
    """Serve rounds[b] into frees[b] with a minimum-cost matching, for every
    b at once; the rounds have one length, the free lists another."""
    _check_capacity(frees[0], rounds[0])  # np.array refuses ragged blocks
    srv = np.array(frees, dtype=np.int64)
    cost, sel = _monotone_min_cost(np.sort(np.array(rounds, dtype=np.int64), axis=1), srv)
    for free, picked in zip(frees, sel.tolist()):
        for pos in reversed(picked):
            del free[pos]
    return cost.tolist()


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

    def block(frees: Sequence[list[int]], seeds: Sequence[int]) -> Callable:
        serves = [factory(free, seed) for free, seed in zip(frees, seeds)]
        return lambda rounds: [serve(reqs) for serve, reqs in zip(serves, rounds)]

    return block


_KERNELS = {
    GREEDY_NEAREST: _each(_greedy),
    BATCH_ROUND_OPTIMAL: lambda frees, seeds: lambda rounds: _serve_batch(frees, rounds),
    PERMUTATION: _each(_permutation),
    RANDOM_FREE: _random_free,
}


# ---------------------------------------------------------------------------
# Full runs.


def cost_ratio(online: int, offline: int) -> float | None:
    """online/offline rounded once, with 0/0 = 1; None when only offline is 0."""
    if offline == 0:
        return 1.0 if online == 0 else None
    return float(Fraction(online, offline))


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

    def to_json_dict(self) -> dict:
        k = self.grid_k
        return {
            "n": self.n,
            "algorithm": self.algorithm,
            "trial": self.trial,
            "instance_seed": self.instance_seed,
            "grid_k": self.grid_k,
            "prefix_rounds": self.prefix_rounds,
            "prefix_cost": {"num": self.prefix_cost, "k": k},
            "round_costs": [{"num": c, "k": k} for c in self.round_costs],
            "online_total": {"num": self.online_total, "k": k},
            "offline_total": {"num": self.offline_total, "k": k},
            "ratio": self.ratio,
        }


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


def play(
    instances: Sequence[Instance],
    kinds: Sequence[str],
    seeds: Sequence[Sequence[int]],
    prefix_rounds: int,
    trials: Sequence[int | None],
) -> list[list[RunStats]]:
    """Play a block of instances of one size, instance b (trial trials[b])
    with every policy in kinds, policy c seeded with seeds[b][c]: the first
    prefix_rounds rounds as one optimal batch, the remaining rounds online
    with the policy.  One list of RunStats per instance, in kinds order.

    An instance's arrival orders, prefix batch and offline total are shared
    by its policies; each policy gets its own copy of the free servers.
    check_play's rules hold, and random_free's first round refuses a seed
    outside 64 bits.  A free-server count off the reachable one, or an
    online total below the offline optimum, raises RuntimeError."""
    n, i = instances[0].params.n, instances[0].params.i
    check_play(kinds, i, prefix_rounds)
    rounds, offline, prefix_free = [[] for _ in instances], [], []  # per instance
    for r, orders in enumerate(arrival_orders([inst.params for inst in instances]), 1):
        for rr, inst, order in zip(rounds, instances, orders):
            rr.append(inst.origins[r - 1][order].tolist())
    for inst in instances:
        servers = np.arange(1, n + 1, dtype=np.int64) << np.int64(inst.params.grid_k)
        offline.append(sorted_cost_num(servers, np.concatenate(inst.origins)))
        prefix_free.append(servers.tolist())
    prefix = _serve_batch(
        prefix_free, [[x for nums in rr[:prefix_rounds] for x in nums] for rr in rounds]
    )

    out: list[list[RunStats]] = [[] for _ in instances]
    for col, kind in enumerate(kinds):
        frees = [list(free) for free in prefix_free]
        serve = _KERNELS[kind](frees, [row[col] for row in seeds])
        costs = []
        for r in range(prefix_rounds + 1, i + 1):
            expected = reachable_free_count(n, r)
            if wrong := {len(free) for free in frees} - {expected}:
                raise RuntimeError(f"round {r}: {min(wrong)} free servers, expected {expected}")
            costs.append(serve([rr[r - 1] for rr in rounds]))
        for b, inst in enumerate(instances):
            round_nums = tuple(c[b] for c in costs)
            online_num = prefix[b] + sum(round_nums)
            if online_num < offline[b]:
                raise RuntimeError(
                    f"trial {trials[b]}: {kind} pays {online_num}, below the offline"
                    f" optimum {offline[b]}"
                )
            out[b].append(
                RunStats(
                    n=n,
                    algorithm=kind,
                    instance_seed=inst.params.seed,
                    grid_k=inst.params.grid_k,
                    trial=trials[b],
                    prefix_rounds=prefix_rounds,
                    prefix_cost=prefix[b],
                    round_costs=round_nums,
                    online_total=online_num,
                    offline_total=offline[b],
                    ratio=cost_ratio(online_num, offline[b]),
                )
            )
    return out

