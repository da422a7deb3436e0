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

play() takes an Instance (per-round origin numerators) and plays every
requested policy on it; a trial generates its instance once and calls it.
Costs stay integer numerators; Coord appears only in RunStats.to_json_dict.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Sequence

import numpy as np

from matchline.adversary import Instance, arrival_indices
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
# serve removes every server it uses from it.
Kernel = Callable[[Sequence[int]], int]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which policy to run; seed only matters for random_free."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")


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
        total = 0
        for x in requests:
            total += abs(x - free.pop(stream.randbelow(len(free))))
        return total

    return serve


# ---------------------------------------------------------------------------
# Batch-optimal service: min-cost matching of a round into the free servers.
#
# With both sides sorted an optimal matching never crosses, so the DP
#   dp[i][j] = min(dp[i][j-1], dp[i-1][j-1] + |req_i - srv_j|)
# is exact, and row i is a running minimum of dp[i-1][j-1] + cost_j.  Row i
# is only needed for i <= j <= i + (m - q): the first i requests take at
# least i servers and leave m - j >= q - i for the rest.


def _monotone_min_cost(req: np.ndarray, free: np.ndarray) -> tuple[int, list[int]]:
    """(cost, sorted server positions) of the cheapest injection of the
    sorted requests into the sorted free servers; the leftmost server set
    wins ties.  Both arrays are int64."""
    q, m = len(req), len(free)
    slack = m - q
    dp = np.zeros((q + 1, m + 1), dtype=req.dtype)
    for i in range(1, q + 1):
        cand = dp[i - 1, i - 1 : i + slack] + np.abs(req[i - 1] - free[i - 1 : i + slack])
        np.minimum.accumulate(cand, out=dp[i, i : i + slack + 1])
    sel: list[int] = []
    j = m
    for i in range(q, 0, -1):
        row = dp[i]
        while j - 1 >= i and row[j] == row[j - 1]:
            j -= 1
        j -= 1
        sel.append(j)
    sel.reverse()
    return int(dp[q, m]), sel


def _serve_batch(free: list[int], requests: Sequence[int]) -> int:
    """Serve all requests at once with a minimum-cost matching."""
    _check_capacity(free, requests)
    if not requests:
        return 0
    total, sel = _monotone_min_cost(
        np.sort(np.asarray(requests, dtype=np.int64)), np.asarray(free, dtype=np.int64)
    )
    for pos in reversed(sel):
        del free[pos]
    return total


def _batch(free: list[int], seed: int) -> Kernel:
    return lambda requests: _serve_batch(free, requests)


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


_KERNELS = {
    GREEDY_NEAREST: _greedy,
    BATCH_ROUND_OPTIMAL: _batch,
    PERMUTATION: _permutation,
    RANDOM_FREE: _random_free,
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
    it is None when only the offline cost is zero (such trials are excluded
    from ratio aggregates).
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
            # Coord.to_json of each cost
            "prefix_cost": {"num": self.prefix_cost, "k": k},
            "round_costs": [{"num": c, "k": k} for c in self.round_costs],
            "online_total": {"num": self.online_total, "k": k},
            "offline_total": {"num": self.offline_total, "k": k},
            "ratio": self.ratio,
        }


def play(
    instance: Instance,
    specs: Sequence[AlgorithmSpec],
    prefix_rounds: int,
    trial: int | None = None,
) -> list[RunStats]:
    """Play one instance with every spec: the first prefix_rounds rounds as
    one optimal batch, the remaining rounds online with the spec's policy.

    The arrival orders, the prefix batch and the offline total are computed
    once and shared; each policy gets its own copy of the free servers.
    """
    params = instance.params
    if not 0 <= prefix_rounds <= params.i:
        raise ValueError(f"prefix_rounds must be in 0..{params.i}, got {prefix_rounds}")
    n, k = params.n, params.grid_k
    rounds = [
        nums[arrival_indices(params, r)].tolist()
        for r, nums in enumerate(instance.origins, start=1)
    ]
    servers = np.arange(1, n + 1, dtype=np.int64) << np.int64(k)
    offline_num = sorted_cost_num(servers, np.concatenate(instance.origins))
    prefix_free = servers.tolist()
    prefix_num = _serve_batch(prefix_free, [x for nums in rounds[:prefix_rounds] for x in nums])

    out = []
    for spec in specs:
        free = list(prefix_free)
        serve = _KERNELS[spec.kind](free, spec.seed)
        round_nums: list[int] = []
        for r, nums in enumerate(rounds[prefix_rounds:], start=prefix_rounds + 1):
            expected_free = ((n + 1) >> (r - 1)) - 1
            if len(free) != expected_free:
                raise RuntimeError(f"round {r}: {len(free)} free servers, expected {expected_free}")
            round_nums.append(serve(nums))

        online_num = prefix_num + sum(round_nums)
        if offline_num == 0:
            ratio = 1.0 if online_num == 0 else None
        else:
            ratio = float(Fraction(online_num, offline_num))
        out.append(
            RunStats(
                n=n,
                algorithm=spec.kind,
                instance_seed=params.seed,
                grid_k=k,
                trial=trial,
                prefix_rounds=prefix_rounds,
                prefix_cost=prefix_num,
                round_costs=tuple(round_nums),
                online_total=online_num,
                offline_total=offline_num,
                ratio=ratio,
            )
        )
    return out


def run(
    instance: Instance, spec: AlgorithmSpec, trial: int | None = None, prefix_rounds: int = 0
) -> RunStats:
    """play() with a single policy."""
    return play(instance, [spec], prefix_rounds, trial)[0]
