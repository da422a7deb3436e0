"""Online matching algorithms over a pool of free servers.

Four policies:

  greedy_nearest       nearest free server, ties resolve to the left
  batch_round_optimal  sees a whole round, serves it with a min-cost matching
  permutation          keeps an optimal matching of everything seen so far and
                       serves each request with the one server that matching
                       newly uses
  random_free          uniform random free server (seeded stream)

Each policy is one kernel over exact integer numerators at the instance grid
scale: the free servers are a sorted list of numerators (server j sits at
j << grid_k), and a kernel serves one round, removes the servers it used and
returns the round's cost.  Vectorized kernels run on int64 arrays, which
GenParams' width rule keeps free of overflow.

play() plays a block of instances of one size (per-round origin numerators)
with every requested policy, one round at a time across the block, so the
batch policy and the known-prefix batch solve one stacked DP per round.
Costs stay integer numerators; RunStats.to_json_dict writes each as a
{"num", "k"} pair at the instance scale.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Sequence

import numpy as np

from matchline.adversary import Instance, arrival_indices, reachable_free_count
from matchline.offline import sorted_cost_num
from matchline.rng import Stream

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
            pos = bisect.bisect_left(free, x)
            if pos == len(free) or (pos and x - free[pos - 1] <= free[pos] - x):
                pos -= 1
            total += abs(x - free.pop(pos))
        return total

    return serve


def _random_free(free: list[int], seed: int) -> Kernel:
    """Uniform random free server, drawn from Stream(seed, "choice")."""
    stream = Stream(seed, _TAG_CHOICE)

    def serve(requests: Sequence[int]) -> int:
        _check_capacity(free, requests)
        m = len(free)
        picks = stream.randbelow_each(range(m, m - len(requests), -1))
        return sum(abs(x - free.pop(p)) for x, p in zip(requests, picks))

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
# and m), and the traceback keeps only where a row repeats its left
# neighbour.  Walking back from s = slack, s stays put between rows and in
# row i steps left to the end of its run of equal values: the leftmost
# server set on ties, in at most q + slack steps per instance.


def _monotone_min_cost(req: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest injection of each row of sorted requests req (T, q) into the
    same row of sorted free servers free (T, m), both int64: the (T,) costs
    and the (T, q) server positions, the leftmost server set on ties."""
    t, q = req.shape
    slack = free.shape[1] - q
    band = np.zeros((t, slack + 1), dtype=np.int64)  # row 0: dp[0][j] = 0
    same = np.zeros((q, t, slack + 1), dtype=bool)  # same[i-1, :, s]: row i at s equals s-1
    for i in range(q):
        cand = band + np.abs(req[:, i, None] - free[:, i : i + slack + 1])
        np.minimum.accumulate(cand, axis=1, out=band)
        np.equal(band[:, 1:], band[:, :-1], out=same[i, :, 1:])
    rows = np.arange(t)
    s = np.full(t, slack)
    sel = np.empty((t, q), dtype=np.int64)
    for i in range(q - 1, -1, -1):
        while (step := same[i, rows, s]).any():
            s = s - step
        sel[:, i] = i + s
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


def _permutation(free: list[int], seed: int) -> Kernel:
    pool = list(free)  # the kernel's servers, used or free
    seen: list[int] = []  # requests served so far, sorted

    def serve(requests: Sequence[int]) -> int:
        _check_capacity(free, requests)
        total = 0
        for x in requests:
            b = bisect.bisect_left(free, x)
            if 0 < b < len(free):
                lo, hi = free[b - 1], free[b]
                block = seen[bisect.bisect_right(seen, lo) : bisect.bisect_left(seen, hi)]
                bisect.insort(block, x)
                j = bisect.bisect_left(pool, lo)
                srv = pool[j : j + len(block) + 1]
                if sum(map(abs, map(sub, block, srv[1:]))) >= sum(map(abs, map(sub, block, srv))):
                    b -= 1
            total += abs(x - free.pop(min(b, len(free) - 1)))  # x right of all: the last
            bisect.insort(seen, x)
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
    RANDOM_FREE: _each(_random_free),
}


# ---------------------------------------------------------------------------
# Full runs.


@dataclass(frozen=True)
class RunStats:
    """Exact per-run cost accounting for one instance and one policy.

    Costs are integer numerators at scale grid_k.  round_costs lists the
    rounds the policy actually played online; with a known prefix those are
    rounds prefix_rounds+1..i and prefix_cost is the one batch matching that
    served the prefix.  ratio is online/offline with the convention 0/0 = 1;
    it is None when only the offline cost is zero.  It is per-trial
    information: no aggregate reads it, since the suite's ratio is
    sum online / sum offline.
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
    A seed is checked where a policy's Stream reads it.  A free-server
    count off the reachable one, or an online total below the offline
    optimum, raises RuntimeError."""
    n, i = instances[0].params.n, instances[0].params.i
    if unknown := [kind for kind in kinds if kind not in _KERNELS]:
        raise ValueError(f"unknown algorithm kind {unknown[0]!r}")
    if not 0 <= prefix_rounds <= i:
        raise ValueError(f"prefix_rounds must be in 0..{i}, got {prefix_rounds}")
    rounds, offline, prefix_free = [], [], []  # per instance
    for inst in instances:
        arrivals = enumerate(inst.origins, 1)
        rounds.append([nums[arrival_indices(inst.params, r)].tolist() for r, nums in arrivals])
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
            if offline[b] == 0:
                ratio = 1.0 if online_num == 0 else None
            else:
                ratio = float(Fraction(online_num, offline[b]))
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
                    ratio=ratio,
                )
            )
    return out


def run(
    instance: Instance, kind: str, seed: int = 0, trial: int | None = None, prefix_rounds: int = 0
) -> RunStats:
    """play() with a single policy on a block of one instance."""
    return play([instance], [kind], [[seed]], prefix_rounds, [trial])[0][0]
