"""Online policies: kernels against references, the shared trial runner, runs."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from oracles import brute_force_cost, mix64, trial_dict

from matchline import algorithms
from matchline.adversary import (
    GenParams,
    Instance,
    ORDER_LEFT_TO_RIGHT,
    ORDER_SHUFFLED,
    SAMPLER_VERSION,
    check_round_numerators,
    default_grid_k,
    generate,
    instance_seeds,
    origin_round_numerators,
    reachable_free_count,
)
from matchline.algorithms import (
    ALGORITHM_KINDS,
    _KERNELS,
    _each,
    _monotone_min_cost,
    _serve_batch,
    play,
)
from matchline.experiments import _trial_line, run_trials
from matchline.rng import GAMMA, stream_key


def kernel(kind, free, seed=0):
    """The policy's kernel on a block of one free list; each call leaves in
    free the servers the kernel has left."""
    rows = np.array([free], dtype=np.int64)
    serve = _KERNELS[kind](rows, [seed])

    def one(requests):
        nonlocal rows
        (cost,), rows = serve(rows, np.array([requests], dtype=np.int64))
        free[:] = np.asarray(rows[0]).tolist()
        return cost

    return one


def play_one(inst, kind, seed=0, trial=None, prefix_rounds=0):
    """play() with one policy on a block of one instance."""
    return play([inst], [kind], [[seed]], prefix_rounds, [trial])[0][0]


def run_trial(n, kinds, trial, root_seed, *args):
    """run_trials on a block of one trial."""
    return run_trials(n, kinds, [trial], root_seed, *args)[0]


def serve_one(serve, free, x):
    """Serve a single request; (server taken, cost)."""
    before = list(free)
    cost = serve([x])
    (taken,) = [v for v in before if v not in free]
    return taken, cost


def at4(values):
    return [v << 4 for v in values]


def test_greedy_unique_nearest():
    free = at4([1, 2, 3])
    taken, cost = serve_one(kernel("greedy_nearest", free), free, 38)  # 2.375
    assert taken == 2 << 4
    assert cost == 6  # 3/8
    assert len(free) == 2


def test_greedy_tie_goes_left():
    free = at4([1, 3])
    taken, cost = serve_one(kernel("greedy_nearest", free), free, 2 << 4)
    assert taken == 1 << 4
    assert cost == 1 << 4


def test_greedy_boundary_requests():
    free = at4([2, 5])
    serve = kernel("greedy_nearest", free)
    assert serve_one(serve, free, 1 << 4) == (2 << 4, 1 << 4)
    assert serve_one(serve, free, 7 << 4) == (5 << 4, 2 << 4)


def test_greedy_matches_linear_scan():
    # the nearest server by linear scan, leftmost among equally near ones
    s = random.Random(41)
    for _ in range(200):
        size = 1 + s.randrange(7)
        vals = sorted({s.randrange(1 << 9) for _ in range(size)})
        x = s.randrange(1 << 9) if s.randrange(2) else (vals[0] + vals[-1]) >> 1
        free = list(vals)
        taken, cost = serve_one(kernel("greedy_nearest", free), free, x)
        best = min(abs(v - x) for v in vals)
        assert cost == best
        assert taken == next(v for v in vals if abs(v - x) == best)


def test_greedy_empty_pool():
    free = at4([1])
    serve = kernel("greedy_nearest", free)
    serve([1 << 4])
    with pytest.raises(ValueError):
        serve([1 << 4])


def test_batch_single_request_equals_greedy():
    s = random.Random(17)
    for _ in range(40):
        vals = sorted({s.randrange(200) for _ in range(1 + s.randrange(6))})
        x = s.randrange(220)
        a, b = list(vals), list(vals)
        assert kernel("batch_round_optimal", b)([x]) == kernel("greedy_nearest", a)([x])
        # on a cost tie the two rules may pick different servers; totals agree
        assert len(a) == len(b) == len(vals) - 1


def test_batch_two_requests_example():
    # requests 1.875 and 2.125 into {1,2,3}: two optimal matchings cost 1,
    # the leftmost server set {1,2} wins
    free = at4([1, 2, 3])
    assert kernel("batch_round_optimal", free)([30, 34]) == 1 << 4
    assert free == [3 << 4]


def test_batch_rejects_overflow_requests():
    free = at4([1, 2])
    with pytest.raises(ValueError):
        kernel("batch_round_optimal", free)(at4([1, 2, 3]))


def test_batch_empty_round():
    free = at4([1])
    assert kernel("batch_round_optimal", free)([]) == 0
    assert free == at4([1])


def _injection_min(req_nums, free_nums):
    # independent oracle: monotone matching over every server subset
    q = len(req_nums)
    req = sorted(req_nums)
    best = None
    for combo in itertools.combinations(sorted(free_nums), q):
        cost = sum(abs(a - b) for a, b in zip(req, combo))
        if best is None or cost < best:
            best = cost
    return best


def test_batch_matches_injection_brute_force():
    s = random.Random(59)
    for _ in range(200):
        m = 2 + s.randrange(7)
        vals = sorted({s.randrange(400) for _ in range(m)})
        q = 1 + s.randrange(min(4, len(vals)))
        reqs = [s.randrange(440) for _ in range(q)]
        free = list(vals)
        cost = kernel("batch_round_optimal", free)(reqs)
        assert cost == _injection_min(reqs, vals)
        # the servers taken realize that cost
        taken = sorted(set(vals) - set(free))
        assert sum(abs(a - b) for a, b in zip(sorted(reqs), taken)) == cost


def test_batch_matches_full_permutation_brute_force():
    # tiny sizes, permutations instead of subsets, no uncrossing assumption
    s = random.Random(61)
    for _ in range(60):
        m = 1 + s.randrange(4)
        vals = sorted({s.randrange(64) for _ in range(m)})
        q = 1 + s.randrange(len(vals))
        reqs = [s.randrange(72) for _ in range(q)]
        want = min(
            sum(abs(r - c) for r, c in zip(reqs, perm))
            for perm in itertools.permutations(vals, q)
        )
        assert kernel("batch_round_optimal", list(vals))(reqs) == want


def _monotone_min_cost_1d(req, free):
    """Oracle: the one-instance DP over the full (q+1) x (m+1) int64 matrix,
    with the traceback walking each row left over equal values."""
    q, m = len(req), len(free)
    slack = m - q
    dp = np.zeros((q + 1, m + 1), dtype=np.int64)
    for i in range(1, q + 1):
        cand = dp[i - 1, i - 1 : i + slack] + np.abs(req[i - 1] - free[i - 1 : i + slack])
        np.minimum.accumulate(cand, out=dp[i, i : i + slack + 1])
    sel = []
    j = m
    for i in range(q, 0, -1):
        row = dp[i]
        while j - 1 >= i and row[j] == row[j - 1]:
            j -= 1
        j -= 1
        sel.append(j)
    sel.reverse()
    return int(dp[q, m]), sel


def _injection_brute_force(req, free):
    """Oracle: the cheapest bijection of req onto any q-subset of free."""
    return min(brute_force_cost(combo, req) for combo in itertools.combinations(free, len(req)))


def _stack_case(s):
    """T = 1..6 instances sharing one n, grid_k, free count m and request
    count q: servers j << k with holes, requests uniform, on a free server,
    next to one, or repeating an earlier request."""
    t = 1 + s.randrange(6)
    n = (1 << (1 + s.randrange(7))) - 1
    k = (0, 1, 2, 5)[s.randrange(4)]
    m = 1 + s.randrange(n)
    q = s.randrange(m + 1)
    top = (n + 1) << k
    frees, rounds = [], []
    for _ in range(t):
        free = sorted(j << k for j in s.sample(range(1, n + 1), m))
        reqs = []
        for _ in range(q):
            mode = s.randrange(4)
            if mode == 1:
                x = free[s.randrange(m)]
            elif mode == 2:
                x = free[s.randrange(m)] + s.randrange(3) - 1
            elif mode == 3 and reqs:
                x = reqs[s.randrange(len(reqs))]
            else:
                x = s.randrange(top + 1)
            reqs.append(min(max(x, 0), top))
        frees.append(free)
        rounds.append(reqs)
    return k, frees, rounds


def test_stacked_batch_matches_one_instance_dp():
    s = random.Random(89)
    brute = 0
    for _ in range(2000):
        k, frees, rounds = _stack_case(s)
        req = np.sort(np.array(rounds, dtype=np.int64), axis=1)
        srv = np.array(frees, dtype=np.int64)
        cost, sel = _monotone_min_cost(req, srv)
        want = [_monotone_min_cost_1d(r, f) for r, f in zip(req, srv)]
        assert cost.tolist() == [c for c, _ in want], (frees, rounds)
        assert sel.tolist() == [p for _, p in want], (frees, rounds)
        costs, served = _serve_batch(srv, np.array(rounds, dtype=np.int64).reshape(len(frees), -1))
        assert costs == [c for c, _ in want]
        assert served.shape == (len(frees), srv.shape[1] - req.shape[1])
        for free, rest, (_, picked) in zip(frees, served.tolist(), want):
            assert rest == [v for p, v in enumerate(free) if p not in picked]
        q, m = req.shape[1], srv.shape[1]
        # brute force where it is cheap: q <= 7 and at most 720 bijections
        if q <= 7 and math.comb(m, q) * math.factorial(q) <= 720:
            brute += 1
            for r, f, (c, _) in zip(rounds, frees, want):
                assert c == _injection_brute_force(r, f)
    assert brute >= 300


def _check_block(frees, rounds):
    """The stacked DP on one block gives each instance the costs and server
    positions of the one-instance DP."""
    req = np.sort(np.array(rounds, dtype=np.int64), axis=1)
    srv = np.array(frees, dtype=np.int64)
    cost, sel = _monotone_min_cost(req, srv)
    want = [_monotone_min_cost_1d(r, f) for r, f in zip(req, srv)]
    assert cost.tolist() == [c for c, _ in want], (frees, rounds)
    assert sel.tolist() == [p for _, p in want], (frees, rounds)


@pytest.mark.parametrize("slack", [255, 256])
def test_stacked_batch_ties_match_one_instance_dp(slack):
    # grid_k = 0: integer requests on and between integer servers, many of
    # them repeated, give long runs of equal DP values.  The run starts take
    # the dtype of the window width, at most 14 here, so uint8 at both
    # slacks.  A request on the last server starts a run at s = slack in the
    # last row, so its window starts there: at slack 256 the traceback adds
    # 256 to a one-byte run start.
    s = random.Random(slack)
    q = 40
    m = q + slack
    frees, rounds = [], []
    for _ in range(4):
        free = sorted(s.sample(range(1, 2 * m), m))
        spots = [free[s.randrange(m)] + s.randrange(3) - 1 for _ in range(5)] + [free[-1]]
        frees.append(free)
        rounds.append([spots[s.randrange(len(spots))] for _ in range(q)])
    _check_block(frees, rounds)


def _window(req, free):
    """The batch DP's window per row, from its definition: hi_i the largest
    slack of the first server at or right of a request i' <= i, lo_i the
    smallest slack of the last server at or left of a request i' >= i,
    both clipped to [0, m - q]."""
    q, slack = len(req), len(free) - len(req)
    right = [min(max(bisect_left(free, x) - i, 0), slack) for i, x in enumerate(req)]
    left = [min(max(bisect_right(free, x) - 1 - i, 0), slack) for i, x in enumerate(req)]
    return [min(left[i:]) for i in range(q)], [max(right[: i + 1]) for i in range(q)]


def test_batch_wide_windows_match_one_instance_dp():
    # 300 requests on 3 grid points between servers 10 apart: the window is
    # 300 columns wide, so its run starts need uint16
    free = [10 * j for j in range(1, 1001)]
    cluster = [3000 + j % 3 for j in range(300)]
    lo, hi = _window(sorted(cluster), free)
    assert max(h - l for l, h in zip(lo, hi)) + 1 == 300
    _check_block([free], [cluster])
    # one request midway between each other pair of servers: 2 columns from
    # slack 399 + i, so lo > 255 is added to a one-byte run start; stacked
    # with the cluster, the block's union window is 300 wide again
    spread = [10 * (400 + 2 * i) + 5 for i in range(300)]
    lo, hi = _window(spread, free)
    assert max(h - l for l, h in zip(lo, hi)) + 1 == 2 and min(lo) == 399
    _check_block([free], [spread])
    _check_block([free, free], [cluster, spread])
    # dense clusters of requests between sparse servers, one block of up to
    # three instances with windows of their own
    s = random.Random(97)
    widest = 0
    for _ in range(150):
        t, m = 1 + s.randrange(3), 20 + s.randrange(300)
        q = 1 + s.randrange(m)
        frees, rounds = [], []
        for _ in range(t):
            free = sorted(s.sample(range(1, 30 * m), m))
            spots = [s.randrange(30 * m + 5) for _ in range(1 + s.randrange(4))]
            reqs = [spots[s.randrange(len(spots))] + s.randrange(4) for _ in range(q)]
            lo, hi = _window(sorted(reqs), free)
            widest = max(widest, max(h - l for l, h in zip(lo, hi)) + 1)
            frees.append(free)
            rounds.append(reqs)
        _check_block(frees, rounds)
    assert widest >= 100  # far past the 2 to 5 columns of the hard instance


def _traced(call):
    """call() under tracemalloc: its result and its peak of traced bytes."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_batch_block_past_the_table_cap_is_solved_in_slices(monkeypatch):
    # 16 rounds of 300 requests on 3 grid points between servers 10 apart,
    # each with a window about 300 columns wide (a uint16 table of about
    # 180 KB); a cap of two such tables splits the block into eight slices
    free = [10 * j for j in range(1, 1001)]
    s = random.Random(5)
    rounds = [[3000 + s.randrange(3) for _ in range(300)] for _ in range(16)]
    req = np.sort(np.array(rounds, dtype=np.int64), axis=1)
    srv = np.array([free] * 16, dtype=np.int64)
    lo, hi = np.array([_window(r.tolist(), free) for r in req]).transpose(1, 0, 2)
    w = int((hi.max(axis=0) - lo.min(axis=0)).max()) + 1  # the block's union window
    assert 295 <= w <= 305
    cap = 2 * 300 * w * 2
    monkeypatch.setattr(algorithms, "_TABLE_BYTES", cap)
    _, pair_peak = _traced(lambda: algorithms._monotone_min_cost(req[:2], srv[:2]))
    sizes = []
    solve = algorithms._monotone_min_cost

    def counted(r, f):
        sizes.append(len(r))
        return solve(r, f)

    monkeypatch.setattr(algorithms, "_monotone_min_cost", counted)
    (cost, sel), peak = _traced(lambda: algorithms._monotone_min_cost(req, srv))
    assert sorted(sizes) == [2] * 8 + [4] * 4 + [8] * 2 + [16]
    # the block peaks near one slice, whose passes of 64 cost rows take more
    # than its table; the sixteen tables alone would take 8 caps
    assert peak < pair_peak * 1.25 and peak < 8 * cap, (peak, pair_peak, cap)
    want = [_monotone_min_cost_1d(r, f) for r, f in zip(req, srv)]
    assert cost.tolist() == [c for c, _ in want]
    assert sel.tolist() == [p for _, p in want]
    # a cap no table fits solves every row alone, and a lone row past the
    # cap is solved whole
    monkeypatch.setattr(algorithms, "_TABLE_BYTES", 0)
    sizes.clear()
    cost, sel = algorithms._monotone_min_cost(req[:3], srv[:3])
    assert sorted(sizes) == [1, 1, 1, 2, 3]
    assert cost.tolist() == [c for c, _ in want[:3]]
    assert sel.tolist() == [p for _, p in want[:3]]


def test_batch_places_match_one_search_per_row():
    # each request's place among its row's servers comes from one search over
    # the shifted rows; it must equal a search per row, at run's block sizes
    # at n = 255, on round 1's full rows and on round 3's ragged ones, with
    # requests on servers and at both ends of the line
    s = random.Random(137)
    n, k = 255, default_grid_k(255)
    servers = np.arange(1, n + 1, dtype=np.int64) << k
    for t in (1, 16, 1024):
        rounds = origin_round_numerators(8, k, [s.randrange(1 << 64) for _ in range(t)])
        picks = [sorted(s.sample(range(n), reachable_free_count(n, 3))) for _ in range(t)]
        for req, free in ((rounds[0], np.tile(servers, (t, 1))), (rounds[2], servers[picks])):
            req = req.copy()
            for b in range(t):
                req[b, s.randrange(req.shape[1])] = free[b, s.randrange(free.shape[1])]
            req[0, 0], req[-1, -1] = 0, (n + 1) << k
            req.sort(axis=1)
            span = int(max(free.max(), req.max())) + 1
            want = [f.searchsorted(x) for f, x in zip(free, req)]
            assert algorithms._places(req, free, span).tolist() == np.array(want).tolist()


def test_batch_block_past_the_int64_span_is_solved_in_halves(monkeypatch):
    # n = 3 on grid 56 puts numerators near 2**58, so a block of 100 rows
    # laid end to end would pass 2**63: it is halved until 25 rows fit, and
    # each row still gets its one-instance solve
    s = random.Random(139)
    k = 56
    req = np.sort(np.array([[s.randrange(4 << k) for _ in range(2)] for _ in range(100)]), axis=1)
    srv = np.array([[1 << k, 2 << k, 3 << k]] * 100, dtype=np.int64)
    sizes = []
    solve = algorithms._monotone_min_cost

    def counted(r, f):
        sizes.append(len(r))
        return solve(r, f)

    monkeypatch.setattr(algorithms, "_monotone_min_cost", counted)
    cost, sel = algorithms._monotone_min_cost(req, srv)
    assert sorted(sizes) == [25] * 4 + [50] * 2 + [100]
    want = [_monotone_min_cost_1d(r, f) for r, f in zip(req, srv)]
    assert cost.tolist() == [c for c, _ in want]
    assert sel.tolist() == [p for _, p in want]


def test_batch_solve_memory_at_n1023():
    # one round-1 solve at n = 1023 runs on windows a few columns wide, so
    # its traceback table is a few bytes per row; the full band would take
    # 512 x 512 bytes (256 KiB), a full (q+1) x (m+1) int64 DP matrix 4 MiB
    k = default_grid_k(1023)
    inst = generate(GenParams(i=10, grid_k=k, seed=5))
    free = [j << k for j in range(1, 1024)]
    reqs = inst.origins[0].tolist()
    _, peak = _traced(lambda: kernel("batch_round_optimal", free)(reqs))
    assert len(free) == 511
    assert peak < 1 << 17


def test_integer_grid_breaks_the_round_floor():
    # at grid_k = 0 the round-1 requests of n = 7 sit on the integers: every
    # one of the 2^4 tuples (cell m holds 2m and 2m + 1), served on servers
    # 1..7, averages 1/2 per round, below the floor (n + 1)/12 = 2/3
    for kind in ("greedy_nearest", "batch_round_optimal"):
        costs = [
            kernel(kind, list(range(1, 8)))(list(reqs))
            for reqs in itertools.product(*[(2 * m, 2 * m + 1) for m in range(4)])
        ]
        assert len(costs) == 16
        assert Fraction(sum(costs), 16) == Fraction(1, 2) < Fraction(8, 12)


def test_wide_instance_plays_like_narrow_one():
    # the same instance at grid scale 4 and at 54, the widest that i = 3 allows
    narrow = generate(GenParams(i=3, grid_k=4, seed=19))
    wide = Instance(
        dataclasses.replace(narrow.params, grid_k=54),
        tuple(nums << np.int64(50) for nums in narrow.origins),
    )
    check_round_numerators(wide.params, wide.origins)
    seeds = [[9] * len(ALGORITHM_KINDS)]
    for prefix in range(3):
        (a_runs,), (b_runs,) = (
            play([inst], ALGORITHM_KINDS, seeds, prefix, [None]) for inst in (narrow, wide)
        )
        for a, b in zip(a_runs, b_runs):
            assert b.online_total == a.online_total << 50
            assert b.round_costs == tuple(c << 50 for c in a.round_costs)
            assert b.offline_total == a.offline_total << 50 and b.ratio == a.ratio


def test_permutation_first_request_nearest():
    free = at4([1, 2])
    taken, cost = serve_one(kernel("permutation", free), free, 18)  # 1.125
    assert taken == 1 << 4
    assert cost == 2  # 1/8


def test_permutation_two_close_requests():
    # 1.125 then 1.25: the optimum of both against {1,2} uses both servers,
    # so the second request must take server 2
    free = at4([1, 2])
    serve = kernel("permutation", free)
    serve([18])
    taken, cost = serve_one(serve, free, 20)
    assert taken == 2 << 4
    assert cost == 12  # 3/4


def test_permutation_used_set_stays_offline_optimal():
    def check(server_vals, requests):
        free = list(server_vals)
        serve = kernel("permutation", free)
        seen = []
        for x in requests:
            serve([x])
            seen.append(x)
            used = sorted(set(server_vals) - set(free))
            pair_cost = sum(abs(a - b) for a, b in zip(sorted(seen), used))
            assert pair_cost == _injection_min(seen, server_vals)

    for seed in (3, 11, 29):
        inst = generate(GenParams(i=3, grid_k=6, seed=seed))
        check([j << 6 for j in range(1, 8)], np.concatenate(inst.origins).tolist())
    s = random.Random(67)
    for _ in range(150):
        vals = sorted({s.randrange(300) for _ in range(2 + s.randrange(7))})
        check(vals, [s.randrange(320) for _ in range(1 + s.randrange(len(vals)))])


def _permutation_scan(free, seed):
    """Brute-force oracle for the permutation kernel: scan every free server.

    Inserting s at rank p into the used servers U pairs R[a] with U[a] below
    p and R[a+1] with U[a] from p on (R: the requests seen, x included), so
    up to a constant every candidate costs
      sum_{a<p} (|R[a] - U[a]| - |R[a+1] - U[a]|) + |R[p] - s|,
    one prefix sum for all candidates; the first minimum wins.
    """
    size = len(free)
    req = np.empty(size, dtype=np.int64)  # requests seen, sorted
    used = np.empty(size, dtype=np.int64)  # servers used, sorted
    avail = np.array(free, dtype=np.int64)  # mirrors `free`
    rank = np.zeros(size, dtype=np.intp)  # used servers left of each free one
    gain = np.zeros(size + 1, dtype=np.int64)
    seen = 0

    def serve(requests):
        nonlocal seen
        assert len(requests) <= len(free)
        total = 0
        for x in requests:
            t, m = seen, len(free)
            pos = int(req[:t].searchsorted(x, "right"))
            req[pos + 1 : t + 1] = req[pos:t]
            req[pos] = x
            R, U, F, p = req[: t + 1], used[:t], avail[:m], rank[:m]
            np.add.accumulate(np.abs(R[:-1] - U) - np.abs(R[1:] - U), out=gain[1 : t + 1])
            best = int((gain[p] + np.abs(R[p] - F)).argmin())
            s, q = free.pop(best), int(p[best])
            used[q + 1 : t + 1] = used[q:t]
            used[q] = s
            avail[best : m - 1] = avail[best + 1 : m]
            rank[best : m - 1] = rank[best + 1 : m] + 1
            seen = t + 1
            total += abs(x - s)
        return total

    return serve


def _pool_case(s):
    """A random post-prefix-like pool (servers j << k with holes) and 1-4
    rounds of requests: uniform on [0, (n+1) << k], on or next to a server,
    or clustered around an earlier request (duplicates included)."""
    n = (1 << (1 + s.randrange(7))) - 1
    k = (0, 1, 2, 5)[s.randrange(4)]
    keep = 1 + s.randrange(4)
    pool = [j << k for j in range(1, n + 1) if s.randrange(4) < keep] or [n << k]
    top = (n + 1) << k
    reqs = []
    for _ in range(1 + s.randrange(len(pool))):
        mode = s.randrange(3)
        if mode == 0 or not reqs:
            x = s.randrange(top + 1)
        elif mode == 1:
            x = pool[s.randrange(len(pool))] + s.randrange(3) - 1
        else:
            x = reqs[s.randrange(len(reqs))] + s.randrange(5) - 2
        reqs.append(min(max(x, 0), top))
    cuts = sorted({1 + s.randrange(len(reqs)) for _ in range(s.randrange(4))} | {len(reqs)})
    return pool, [reqs[a:b] for a, b in zip([0, *cuts], cuts)]


def test_permutation_block_rule_matches_scan():
    s = random.Random(71)
    for _ in range(2500):
        pool, rounds = _pool_case(s)
        fast_free, scan_free = list(pool), list(pool)
        fast = kernel("permutation", fast_free)
        scan = _permutation_scan(scan_free, 0)
        for reqs in rounds:
            assert fast(reqs) == scan(reqs), (pool, rounds)
            assert fast_free == scan_free, (pool, rounds)


@pytest.mark.parametrize(
    "i, trials, prefixes", [(10, [10], (0, 2)), (12, [12], (0, 2)), (8, range(16), (0, 3))],
    ids=["10", "12", "8-block"],
)
def test_permutation_play_matches_scan(i, trials, prefixes, monkeypatch):
    # 8-block is the parent's 16-trial share of `run --n 255 --order shuffled
    # --trials 32 --workers 2` at root seed 0, played as one block as that run
    # plays it: the shape of the suite_n255_w2 benchmark's blocks
    seeds = [i] if len(trials) == 1 else instance_seeds(0, trials)
    insts = [generate(GenParams.for_size((1 << i) - 1, None, s, ORDER_SHUFFLED)) for s in seeds]
    args = (["permutation"], [[0]] * len(insts))
    fast = [play(insts, *args, prefix, list(trials)) for prefix in prefixes]
    monkeypatch.setitem(_KERNELS, "permutation", _each(_permutation_scan))
    assert fast == [play(insts, *args, prefix, list(trials)) for prefix in prefixes]


@pytest.mark.parametrize("order", [ORDER_LEFT_TO_RIGHT, ORDER_SHUFFLED])
def test_permutation_play_on_server_positions_matches_scan(order, monkeypatch):
    # grid_k = 0 puts every request on a server position, so requests land
    # on the neighbours s_L and s_R the pool ranks bound a block by
    insts = [generate(GenParams(i=i, grid_k=0, seed=seed, request_order=order))
             for i, seed in ((3, 5), (6, 29), (8, 83))]
    prefixes = [range(inst.params.i) for inst in insts]
    fast = [[play([inst], ["permutation"], [[7]], p, [0]) for p in ps] for inst, ps in zip(insts, prefixes)]
    monkeypatch.setitem(_KERNELS, "permutation", _each(_permutation_scan))
    scan = [[play([inst], ["permutation"], [[7]], p, [0]) for p in ps] for inst, ps in zip(insts, prefixes)]
    assert fast == scan


def test_permutation_request_left_of_every_free_server():
    # 2 sits on a free server and takes it; 0 then lies left of {1, 3, 4}
    free = at4([1, 2, 3, 4])
    serve = kernel("permutation", free)
    assert serve_one(serve, free, 2 << 4) == (2 << 4, 0)
    assert serve_one(serve, free, 0) == (1 << 4, 1 << 4)


def test_permutation_request_right_of_every_free_server():
    # n = 3, k = 4: 3 takes server 3, then (n + 1) << k lies right of {1, 2}
    free = at4([1, 2, 3])
    serve = kernel("permutation", free)
    assert serve_one(serve, free, 3 << 4) == (3 << 4, 0)
    assert serve_one(serve, free, 4 << 4) == (2 << 4, 2 << 4)


def test_permutation_request_on_free_server_inside_block():
    # 2.5 ties between 2 and 3 and takes 2; then 3 sits on the free server
    # s_R = 3 with the block {2.5} between s_L = 1 and it: cost_L = 24 + 16,
    # cost_R = 8 + 0, so it takes 3
    free = at4([1, 2, 3, 4])
    serve = kernel("permutation", free)
    assert serve_one(serve, free, 40) == (2 << 4, 8)
    assert serve_one(serve, free, 3 << 4) == (3 << 4, 0)


def test_permutation_tie_goes_left():
    # 2 takes server 2; the second 2 sees cost_L = |2-1| + |2-2| = 1 and
    # cost_R = |2-2| + |2-3| = 1 and takes the left neighbour
    free = [1, 2, 3]
    serve = kernel("permutation", free)
    assert serve_one(serve, free, 2) == (2, 0)
    assert serve_one(serve, free, 2) == (1, 1)
    assert free == [3]


def test_permutation_empty_gap_takes_the_nearer_neighbour():
    # no seen request between s_L and s_R: 4 ties between 2 and 6 and takes
    # 2; then 9 has only 4, left of 6, seen, and takes 10, the nearer
    free = [2, 6, 10]
    serve = kernel("permutation", free)
    assert serve_one(serve, free, 4) == (2, 2)
    assert serve_one(serve, free, 9) == (10, 1)
    assert free == [6]


def test_random_free_single_choice():
    free = at4([4])
    taken, cost = serve_one(kernel("random_free", free), free, 3 << 4)
    assert taken == 4 << 4
    assert cost == 1 << 4


def test_random_free_reproducible():
    # a kernel derives its keys for the free counts of the hard instance's
    # rounds, m, m >> 1, ..., 1; a round is keyed by (seed, m) alone, so
    # single picks from 8, 7, ..., 1 free servers take one kernel each
    picks = []
    for _ in range(2):
        free = at4(range(1, 9))
        picks.append([serve_one(kernel("random_free", free, seed=99), free, 4 << 4)[0] for _ in range(8)])
    assert picks[0] == picks[1]
    assert sorted(picks[0]) == at4(range(1, 9))
    # pinned with SAMPLER_VERSION: a new draw rule must bump the version
    assert SAMPLER_VERSION == 3
    assert picks[0] == at4([2, 5, 6, 7, 8, 3, 1, 4])
    # with m servers free, request j of a round takes place j of the free
    # servers sorted by the first m draws of the key (seed, "choice", m)
    pool = at4(range(1, 9))

    def order(m):
        key = stream_key(99, "choice", m)
        return sorted(range(m), key=lambda j: mix64(key + (j + 1) * GAMMA))

    assert picks[0] == [pool.pop(order(len(pool))[0]) for _ in range(8)]
    free = at4(range(1, 9))
    assert kernel("random_free", free, seed=99)([4 << 4] * 5) == sum(
        abs(3 - j) << 4 for j in order(8)[:5]
    )
    assert free == sorted(at4(range(1, 9))[j] for j in order(8)[5:])


def test_random_free_block_plays_like_one_instance_at_a_time():
    # a block of 16 draws each round's picks in one pass; each instance
    # alone must take the same servers in every round
    n, k = 255, 3
    insts = [generate(GenParams(i=8, grid_k=k, seed=s, request_order=ORDER_SHUFFLED)) for s in range(16)]
    seeds = [stream_key(4, "alg", t) for t in range(16)]
    frees = np.tile(np.arange(1, n + 1) << k, (16, 1))
    serve = _KERNELS["random_free"](frees, seeds)
    alone = [[j << k for j in range(1, n + 1)] for _ in insts]
    alone_serves = [kernel("random_free", free, seed) for free, seed in zip(alone, seeds)]
    for nums in zip(*(inst.origins for inst in insts)):
        costs, frees = serve(frees, np.stack(nums))
        assert costs == [f(row.tolist()) for f, row in zip(alone_serves, nums)]
        assert frees.tolist() == alone
    assert alone == [[] for _ in insts]
    block = play(insts, ["random_free"], [[s] for s in seeds], 0, list(range(16)))
    for t, (inst, seed) in enumerate(zip(insts, seeds)):
        assert block[t] == play([inst], ["random_free"], [[seed]], 0, [t])[0]


def test_random_free_frequency():
    # seeds 0..99999 as one block, which plays each seed as it plays alone
    frees = np.tile(np.arange(1, 5), (100_000, 1))
    _, frees = _KERNELS["random_free"](frees, range(100_000))(frees, np.full((100_000, 1), 2))
    counts = [0] * 4
    for free in frees.tolist():  # the server taken is the one missing from 1..4
        counts[10 - sum(free) - 1] += 1
    for c in counts:
        assert abs(c / 100_000 - 0.25) < 0.01


def test_run_trial_matches_run_per_policy():
    # the shared per-(n, trial) runner against one generate + run per policy:
    # a policy that leaked state through the shared prefix would differ here
    s = random.Random(83)
    for _ in range(12):
        i = 1 + s.randrange(5)
        n = (1 << i) - 1
        root, trial = s.randrange(1 << 64), s.randrange(1000)
        grid_k = None if s.randrange(2) else s.randrange(12)
        for order in ("left_to_right", ORDER_SHUFFLED):
            params = GenParams(
                i=i,
                grid_k=min(n, 40) if grid_k is None else grid_k,
                seed=stream_key(root, "trial", trial),
                request_order=order,
            )
            for prefix in range(i):
                got = run_trial(n, ALGORITHM_KINDS, trial, root, grid_k, order, prefix)
                want = [
                    play_one(generate(params), kind, stream_key(root, "alg", kind, trial), trial, prefix)
                    for kind in ALGORITHM_KINDS
                ]
                assert got == want
                assert [_trial_line(st) for st in got] == [_trial_line(st) for st in want]


def test_block_plays_like_its_trials_one_at_a_time():
    # a block shares one origin check, arrival gather, prefix batch, offline
    # pass and kernel per policy; run_trials and play on a block of 8 must
    # give each trial the RunStats it gets played alone
    s = random.Random(107)
    orders = (ORDER_LEFT_TO_RIGHT, ORDER_SHUFFLED)
    for n, order, prefix in itertools.product((15, 63), orders, (0, 2)):
        root, trials = s.randrange(1 << 64), sorted(s.sample(range(1000), 8))
        opts = (None, order, prefix)
        block = run_trials(n, ALGORITHM_KINDS, trials, root, *opts)
        assert block == [run_trial(n, ALGORITHM_KINDS, t, root, *opts) for t in trials]
        params = [GenParams.for_size(n, None, seed, order) for seed in instance_seeds(root, trials)]
        insts = [generate(p) for p in params]
        seeds = [[stream_key(root, "alg", kind, t) for kind in ALGORITHM_KINDS] for t in trials]
        assert play(insts, ALGORITHM_KINDS, seeds, prefix, trials) == block
        for inst, row, t, runs in zip(insts, seeds, trials, block):
            assert play([inst], ALGORITHM_KINDS, [row], prefix, [t]) == [runs]


def test_cost_ratio_rounds_like_the_fraction():
    # int true division rounds the exact quotient once, as float(Fraction)
    # does, also for numerators past 2**53 and 2**64
    s = random.Random(109)
    for _ in range(10_000):
        a = s.getrandbits(s.choice((20, 53, 54, 64, 65, 90)))
        b = 1 + s.getrandbits(s.choice((1, 20, 53, 54, 64, 65, 90)))
        assert algorithms.cost_ratio(a, b) == float(Fraction(a, b)), (a, b)
    assert algorithms.cost_ratio((1 << 64) + 1, 3) == float(Fraction((1 << 64) + 1, 3))
    assert (algorithms.cost_ratio(0, 0), algorithms.cost_ratio(5, 0)) == (1.0, None)


def test_play_refuses_a_block_of_two_grids():
    a = generate(GenParams(i=2, grid_k=5, seed=1))
    b = generate(GenParams(i=2, grid_k=6, seed=1))
    with pytest.raises(ValueError, match="one size and one grid"):
        play([a, b], ["greedy_nearest"], [[0], [0]], 0, [0, 1])


def test_play_refuses_seed_rows_and_trials_of_another_length(monkeypatch):
    # one seed row for two instances once broadcast (random_free), went
    # unread (batch) or failed mid-play on a free count (greedy, permutation)
    a, b = (generate(GenParams(i=3, grid_k=4, seed=s)) for s in (1, 2))
    for kind in ALGORITHM_KINDS:
        with monkeypatch.context() as patch:
            patch.setitem(_KERNELS, kind, lambda start, seeds: pytest.fail("played"))
            for seeds, trials in (([[0]], [0, 1]), ([[0], [1]], [0]), ([[0, 1], [1, 0]], [0, 1])):
                for prefix in (0, 1):
                    with pytest.raises(ValueError, match="a block of 2 needs 2 trials"):
                        play([a, b], [kind], seeds, prefix, trials)
            # a round with one row for the block's two
            rounds = [np.stack((a.origins[0], b.origins[0]))] + [r[None] for r in a.origins[1:]]
            with pytest.raises(ValueError, match="round rows"):
                algorithms.play_block([a.params, b.params], rounds, [kind], [[0, 1]], 0, [0, 1])
        assert len(play([a, b], [kind], [[0], [1]], 0, [0, 1])) == 2


def test_run_trial_policy_subset_and_order():
    both = run_trial(15, ("permutation", "greedy_nearest"), 4, 77)
    assert [st.algorithm for st in both] == ["permutation", "greedy_nearest"]
    assert both[1:] == run_trial(15, ("greedy_nearest",), 4, 77)
    with pytest.raises(ValueError):
        run_trial(15, ("greedy_nearest", "steepest_descent"), 4, 77)


def test_default_run_at_n2047_is_exact():
    # n = 2047 takes the width-capped default grid_k = 38 on the int64 kernels
    runs = run_trial(2047, ALGORITHM_KINDS, 0, 3)
    inst = generate(GenParams(i=11, grid_k=38, seed=stream_key(3, "trial", 0)))
    points = sorted(np.concatenate(inst.origins).tolist())
    want = sum(abs(x - (j << 38)) for j, x in enumerate(points, 1))
    for st in runs:
        assert st.grid_k == 38
        assert st.offline_total == want
        assert st.online_total >= st.offline_total
    by_kind = {st.algorithm: st for st in runs}
    batch_first = by_kind["batch_round_optimal"].round_costs[0]
    assert all(batch_first <= st.round_costs[0] for st in runs)


def test_play_checks_free_count_every_round(monkeypatch):
    # a kernel that serves a round without using a server breaks the count
    monkeypatch.setitem(_KERNELS, "greedy_nearest", _each(lambda free, seed: lambda reqs: 0))
    inst = generate(GenParams(i=3, grid_k=5, seed=2))
    with pytest.raises(RuntimeError):
        play([inst], ["greedy_nearest"], [[0]], 0, [None])


def test_run_exact_hit_gives_ratio_one():
    # the one request sits on the one server
    inst = Instance(GenParams(i=1, grid_k=4, seed=0), (np.array([1 << 4], dtype=np.int64),))
    check_round_numerators(inst.params, inst.origins)
    stats = play_one(inst, "greedy_nearest")
    assert stats.online_total == 0
    assert stats.offline_total == 0
    assert stats.ratio == 1.0


def test_run_deterministic():
    inst = generate(GenParams(i=2, grid_k=6, seed=8))
    a = play_one(inst, "greedy_nearest")
    b = play_one(inst, "greedy_nearest")
    assert a == b
    assert a.round_costs == b.round_costs


def test_first_round_batch_is_cheapest():
    for seed in range(20):
        inst = generate(GenParams(i=3, grid_k=8, seed=seed))
        base = play_one(inst, "batch_round_optimal").round_costs[0]
        for kind in ("greedy_nearest", "permutation", "random_free"):
            assert base <= play_one(inst, kind, seed=5).round_costs[0]


def test_online_never_beats_offline():
    for seed in range(12):
        inst = generate(GenParams(i=4, grid_k=9, seed=seed))
        for kind in ALGORITHM_KINDS:
            stats = play_one(inst, kind, seed=1)
            assert stats.online_total >= stats.offline_total
            assert len(stats.round_costs) == 4
            assert stats.prefix_cost + sum(stats.round_costs) == stats.online_total


def test_online_below_offline_raises(monkeypatch):
    # the offline total is the optimum; doubled, it exceeds most greedy totals
    cost = algorithms.sorted_cost_num
    monkeypatch.setattr(algorithms, "sorted_cost_num", lambda srv, pts: 2 * cost(srv, pts))
    with pytest.raises(RuntimeError, match="below the offline optimum"):
        run_trials(7, ALGORITHM_KINDS, range(20), 3)


def test_prefix_zero_reduces_to_run():
    inst = generate(GenParams(i=3, grid_k=7, seed=45))
    stats = play_one(inst, "permutation", prefix_rounds=0)
    assert stats.prefix_cost == 0 and len(stats.round_costs) == 3
    kinds = ["greedy_nearest", "permutation"]
    assert stats == play([inst], kinds, [[0, 0]], 0, [None])[0][1]


def test_prefix_out_of_range():
    inst = generate(GenParams(i=2, grid_k=5, seed=1))
    # the last round is always online, as in ExperimentConfig
    for prefix in (2, 3, -1):
        with pytest.raises(ValueError, match="prefix_rounds must be in 0..1"):
            play_one(inst, "greedy_nearest", prefix_rounds=prefix)


def test_run_single_trial_derivations():
    (a,) = run_trial(7, ("greedy_nearest",), 0, root_seed=100)
    (b,) = run_trial(7, ("greedy_nearest",), 0, root_seed=100)
    (c,) = run_trial(7, ("greedy_nearest",), 1, root_seed=100)
    assert a == b
    assert a.instance_seed != c.instance_seed
    assert a.trial == 0 and c.trial == 1
    # same trial, same instance for every policy
    (d,) = run_trial(7, ("random_free",), 0, root_seed=100)
    assert d.instance_seed == a.instance_seed
    assert d.offline_total == a.offline_total


def test_run_trials_shapes():
    stats = [run_trial(7, ("batch_round_optimal",), t, 2024)[0] for t in range(5)]
    assert [s.trial for s in stats] == list(range(5))
    assert all(s.n == 7 and s.algorithm == "batch_round_optimal" for s in stats)
    assert len({s.instance_seed for s in stats}) == 5


def test_stats_json_dict():
    (stats,) = run_trial(3, ("greedy_nearest",), 2, root_seed=7)
    d = json.loads(_trial_line(stats))
    assert d.pop("record") == "trial"
    assert d == trial_dict(stats)
    assert d["n"] == 3
    assert d["algorithm"] == "greedy_nearest"
    assert d["trial"] == 2
    assert len(d["round_costs"]) == 2
    # integer costs leave as {"num", "k"} pairs at the instance scale
    k = stats.grid_k
    assert d["online_total"] == {"num": stats.online_total, "k": k}
    assert d["offline_total"] == {"num": stats.offline_total, "k": k}
    assert d["prefix_cost"] == {"num": 0, "k": k}
    assert d["round_costs"] == [{"num": c, "k": k} for c in stats.round_costs]


def test_run_rejects_unknown_kind_and_bad_seed():
    inst = generate(GenParams(i=2, grid_k=5, seed=1))
    message = "unknown algorithm 'steepest_descent'; choose from greedy_nearest,"
    with pytest.raises(ValueError, match=message):
        play_one(inst, "steepest_descent")
    # random_free's first round keys its picks with the seed
    for prefix in (0, 1):
        with pytest.raises(ValueError, match="64-bit"):
            play_one(inst, "random_free", seed=-2, prefix_rounds=prefix)
        with pytest.raises(ValueError, match="64-bit"):
            play_one(inst, "random_free", seed=1 << 64, prefix_rounds=prefix)
