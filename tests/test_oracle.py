"""Exact per-round game values against independent enumeration."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    brute_force_cost,
    config_lower_bounds,
    grid_game_value,
    segment_square_sum,
    subset_game_value,
)

from matchline import oracle
from matchline.adversary import reachable_free_count, rounds_for
from matchline.lemma_checks import RoundConfig, lemma2_config_property
from matchline.oracle import MAX_OUTCOMES, auto_grid_k, exact_round_game_value, oracle_report


def test_auto_grid_k_values():
    assert auto_grid_k(1, 1) == 10
    assert auto_grid_k(3, 1) == 8
    assert auto_grid_k(7, 1) == 3
    assert auto_grid_k(7, 2) == 7
    assert auto_grid_k(7, 3) == 10
    assert auto_grid_k(15, 1) == 1


@pytest.mark.parametrize("n, r", [(7, 4), (7, 0), (2, 1), (0, 1)])
def test_auto_grid_k_rejects_bad_n_and_round(n, r):
    # a round past the last, round 0, an n not 2^i - 1, a non-positive n
    with pytest.raises(ValueError):
        auto_grid_k(n, r)


def test_auto_grid_k_too_many_cells():
    with pytest.raises(ValueError):
        auto_grid_k(31, 1)


def test_single_server_game_value_is_half():
    # one request uniform on [0,2), one server at 1: E|x-1| = 1/2 exactly
    cfg = RoundConfig(1, 1, (1,))
    for k in (1, 3, 6):
        assert exact_round_game_value(cfg, grid_k=k) == Fraction(1, 2)
    assert exact_round_game_value(cfg, auto_grid_k(1, 1)) == Fraction(1, 2)


def test_game_value_beats_floor_n3():
    cfg = RoundConfig(3, 1, (1, 2, 3))
    v = exact_round_game_value(cfg, grid_k=6)
    assert v > Fraction(4, 12)
    assert v >= config_lower_bounds(3, 1, [cfg.free_servers])[0]


def _enumerated_game_value(cfg, grid_k):
    """Direct enumeration: average the exact min-cost matching per outcome."""
    pts = 1 << (cfg.r + grid_k)
    servers = [s << grid_k for s in cfg.free_servers]
    width = 1 << cfg.r
    cells = [(m * width, (m + 1) * width) for m in range((cfg.n + 1) >> cfg.r)]
    total = count = 0
    for nums in itertools.product(
        *[range(a << grid_k, b << grid_k) for a, b in cells]
    ):
        total += min(
            brute_force_cost(chosen, nums)
            for chosen in itertools.combinations(servers, len(nums))
        )
        count += 1
    assert count == pts ** len(cells)
    return Fraction(total, count << grid_k)


def test_game_value_matches_enumeration():
    for free in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        cfg = RoundConfig(3, 1, free)
        assert exact_round_game_value(cfg, grid_k=2) == _enumerated_game_value(cfg, 2)


def test_game_value_matches_enumeration_round2():
    cfg = RoundConfig(3, 2, (2,))
    assert exact_round_game_value(cfg, grid_k=4) == _enumerated_game_value(cfg, 4)


def test_game_value_matches_enumeration_every_n7_round2_config():
    for free in itertools.combinations(range(1, 8), 3):
        cfg = RoundConfig(7, 2, free)
        assert exact_round_game_value(cfg, grid_k=1) == _enumerated_game_value(cfg, 1), free


# Largest subset-enumeration work (subsets x cells x outcomes) a random case may
# cost the reference; slack 0 is always kept.
_REFERENCE_BUDGET = 1 << 22


def _band_dp_cases():
    """Seeded random configurations at n in {1, 3, 7, 15}, every round, every
    grid_k from 1 to the cap, and every free count from q up to n whose
    reference cost fits the budget (slack 0 always); n = 3, r = 2 gives
    q = 1 with slack up to 2, RoundConfig(3, 2, (1, 2, 3)) included."""
    rng = random.Random(20261018)
    cases = []
    for n in (1, 3, 7, 15):
        for r in range(1, (n + 1).bit_length()):
            q = (n + 1) >> r
            for k in range(1, auto_grid_k(n, r) + 1):
                pts = 1 << (r + k)
                for f in range(q, n + 1):
                    if f > q and math.comb(f, q) * q * pts**q > _REFERENCE_BUDGET:
                        break
                    free = tuple(sorted(rng.sample(range(1, n + 1), f)))
                    cases.append((RoundConfig(n, r, free), k))
    return cases


def test_band_dp_matches_subset_enumeration():
    cases = _band_dp_cases()
    assert len(cases) > 300
    assert (RoundConfig(3, 2, (1, 2, 3)), 1) in cases
    assert any(((c.n + 1) >> c.r) == len(c.free_servers) > 1 for c, _ in cases)
    for cfg, k in cases:
        assert exact_round_game_value(cfg, k) == subset_game_value(cfg, k), (cfg, k)


def _oracle_configs(n, r):
    """Every configuration oracle_report(n, r) evaluates."""
    f = reachable_free_count(n, r)
    return [RoundConfig(n, r, c) for c in itertools.combinations(range(1, n + 1), f)]


@pytest.mark.parametrize("n", [3, 7, 15])
def test_config_lower_bounds_match_one_config_at_a_time(n):
    for r in range(1, rounds_for(n) + 1):
        cfgs = _oracle_configs(n, r)
        got = config_lower_bounds(n, r, [cfg.free_servers for cfg in cfgs])
        assert got == [config_lower_bounds(n, r, [cfg.free_servers])[0] for cfg in cfgs]
        assert got == [Fraction(segment_square_sum(n, r, cfg.free_servers), 4 << r) for cfg in cfgs]
    assert config_lower_bounds(n, 1, []) == []


def test_closed_form_matches_grid_dp_on_every_oracle_n7_config():
    cfgs = [cfg for r in (1, 2, 3) for cfg in _oracle_configs(7, r)]
    assert len(cfgs) == 43
    for cfg in cfgs:
        k = auto_grid_k(cfg.n, cfg.r)
        assert exact_round_game_value(cfg, k) == grid_game_value(cfg, k), cfg


def test_closed_form_matches_grid_dp_on_every_n15_round3_config():
    cfgs = _oracle_configs(15, 3)
    assert len(cfgs) == 455
    k = auto_grid_k(15, 3)
    for cfg in cfgs:
        assert exact_round_game_value(cfg, k) == grid_game_value(cfg, k), cfg


def test_closed_form_matches_grid_dp_on_seeded_configs():
    # two random configurations of random size per (n, round, grid_k), every
    # grid_k up to the cap
    rng = random.Random(20261019)
    count = 0
    for n in (1, 3, 7, 15):
        for r in range(1, (n + 1).bit_length()):
            q = (n + 1) >> r
            for k in range(1, auto_grid_k(n, r) + 1):
                for _ in range(2):
                    free = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(q, n))))
                    cfg = RoundConfig(n, r, free)
                    assert exact_round_game_value(cfg, k) == grid_game_value(cfg, k), (cfg, k)
                    count += 1
    assert count > 100


def _direct_last_cell_sum(best, servers, lo, hi):
    """One row's last-cell sum by taking every minimum: cost[s, x, prefix]
    = best[s][prefix] + |x - servers[s]|."""
    x = np.arange(lo, hi)[:, None]
    return int(np.min([b + np.abs(x - c) for b, c in zip(best, servers)], axis=0).sum())


def test_last_cell_sum_matches_the_direct_minimum():
    # the closed form for any integer prefix costs and server positions: in
    # the round game every best[s] has the parity of its prefix's request sum
    # and servers are even, so R - L is even and a wrong split point at the
    # tie goes unseen there; odd servers and free costs make it show.  The
    # first 300 cases are one-row stacks; the rest stack 2 to 4 rows, whose
    # servers leave a piece empty in some rows and not in others
    rng = random.Random(20261020)
    mixed = 0
    for case in range(500):
        rows = 1 if case < 300 else rng.randint(2, 4)
        lo = rng.randrange(-8, 8)
        hi = lo + rng.randrange(1, 24)
        m = rng.randint(1, 6)
        servers, best = [], []
        for _ in range(rows):
            servers.append(sorted(rng.sample(range(lo - 6, hi + 6), m)))
            best.append([np.array([rng.randrange(-9, 30) for _ in range(5)]) for _ in range(m)])
        want = [_direct_last_cell_sum(b, c, lo, hi) for b, c in zip(best, servers)]
        stacked = [np.array([row[s] for row in best]) for s in range(m)]
        got = oracle._last_cell_sums(stacked, np.array(servers), lo, hi)
        assert got.tolist() == want, (best, servers, lo, hi)
        empty = np.diff(np.clip(servers, lo, hi), axis=1, prepend=lo, append=hi) == 0
        mixed += bool((empty.any(axis=0) & ~empty.all(axis=0)).any())
    assert mixed >= 100


def _stacked_values(n, r, configs, k):
    """Game values of a stack of configurations of one size, in one pass."""
    q, pts = (n + 1) >> r, 1 << (r + k)
    totals = oracle._round_game_totals(np.array(configs, dtype=np.int64) << k, q, pts)
    return [Fraction(int(t), pts**q << k) for t in totals.tolist()]


def _check_stack(n, r, configs, k):
    """Each row of a stacked pass equals the full-grid DP and, where its
    reference cost fits the budget, the subset enumeration."""
    q = (n + 1) >> r
    for free, got in zip(configs, _stacked_values(n, r, configs, k)):
        cfg = RoundConfig(n, r, free)
        assert got == grid_game_value(cfg, k), (cfg, k)
        if math.comb(len(free), q) * q * (1 << (r + k)) ** q <= _REFERENCE_BUDGET:
            assert got == subset_game_value(cfg, k), (cfg, k)


def test_stacked_values_match_enumeration_on_every_configuration_up_to_n7():
    # every free-server set of every size from q to n, one stack per size, on
    # each round's grid capped at 3
    stacks = 0
    for n in (1, 3, 7):
        for r in range(1, rounds_for(n) + 1):
            q = (n + 1) >> r
            for f in range(q, n + 1):
                configs = list(itertools.combinations(range(1, n + 1), f))
                _check_stack(n, r, configs, min(auto_grid_k(n, r), 3))
                stacks += len(configs) > 1
    assert stacks > 10


def test_stacked_values_match_enumeration_on_random_n15_stacks():
    # three stacks of three random configurations of one random size per
    # round, on the oracle's grid
    rng = random.Random(20261021)
    for r in range(1, rounds_for(15) + 1):
        q = (15 + 1) >> r
        for _ in range(3):
            f = rng.randint(q, 15)
            configs = [tuple(sorted(rng.sample(range(1, 16), f))) for _ in range(3)]
            _check_stack(15, r, configs, auto_grid_k(15, r))


@pytest.mark.parametrize("prefixes", [1, 1 << 30])
def test_pass_size_changes_no_report(monkeypatch, prefixes):
    # one configuration per pass, or a whole round in one pass
    cases = [(3, 1), (7, 1), (7, 2), (7, 3), (15, 3), (15, 4)]
    want = [oracle_report(n, r) for n, r in cases]
    totals, rows = oracle._round_game_totals, []

    def counted(servers, q, pts):
        rows.append(len(servers))
        return totals(servers, q, pts)

    monkeypatch.setattr(oracle, "PASS_PREFIXES", prefixes)
    monkeypatch.setattr(oracle, "_round_game_totals", counted)
    assert [oracle_report(n, r) for n, r in cases] == want
    configs = [rep.details["configurations"] for rep in want]
    assert rows == ([1] * sum(configs) if prefixes == 1 else configs)


def test_round_game_memory_stays_below_the_outcome_grid():
    # the full outcome grid at n = 7, r = 2, grid_k = 7 is 512 x 512 int32,
    # 1 MiB; the closed-form last cell needs a few 512-entry rows
    tracemalloc.start()
    try:
        exact_round_game_value(RoundConfig(7, 2, (1, 2, 6)), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_cap_admits_one_cell_of_max_outcomes_points():
    # n = 1, r = 1 is one cell of 2^(1 + grid_k) points: grid_k = 17 fills the
    # cap exactly and stays exact, grid_k = 18 exceeds it
    assert 1 << (1 + 17) == MAX_OUTCOMES
    assert exact_round_game_value(RoundConfig(1, 1, (1,)), grid_k=17) == Fraction(1, 2)
    with pytest.raises(ValueError):
        exact_round_game_value(RoundConfig(1, 1, (1,)), grid_k=18)


def test_game_value_input_validation():
    with pytest.raises(ValueError):
        exact_round_game_value(RoundConfig(1, 1, (1,)), grid_k=0)
    # fewer free servers than requests is not servable
    with pytest.raises(ValueError):
        exact_round_game_value(RoundConfig(3, 1, (2,)), grid_k=2)
    # outcome count blows past the enumeration cap
    with pytest.raises(ValueError):
        exact_round_game_value(RoundConfig(7, 1, tuple(range(1, 8))), grid_k=6)


@pytest.mark.parametrize("n, r, config, lower_bound", [
    (3, 1, (1, 2, 3), Fraction(1, 2)),  # round 1 frees every server
    # the extra server in the left cell, smaller parts first: two cuts in
    # one cell, a midpoint cut in the other
    (7, 2, (1, 2, 6), Fraction(7, 8)),
    (7, 3, (4,), Fraction(1)),
], ids=["n3-r1", "n7-r2", "n7-r3"])
def test_exhaustive_worst_config(n, r, config, lower_bound):
    # the lemma2 check reports a segment-bound minimizer
    rep = lemma2_config_property(n, r)
    assert tuple(rep.details["min_config"]) == config
    assert Fraction(rep.details["min_lower_bound"]) == lower_bound
    assert config_lower_bounds(n, r, [config])[0] == lower_bound
    assert lower_bound > Fraction(n + 1, 12)


def test_oracle_report_n7_r2():
    rep = oracle_report(7, 2)
    assert rep.passed
    assert rep.details["configurations"] == 35
    assert rep.details["dominates_segment_bound"]
    assert rep.details["exceeds_round_floor"]
    v = Fraction(rep.details["min_game_value"])
    assert v > Fraction(8, 12)


@pytest.mark.parametrize("r, min_game", [
    (1, Fraction(9, 4)),
    (3, Fraction(747177, 262144)),
    (4, Fraction(4)),
])
def test_oracle_report_n15_pinned(r, min_game):
    # values from the subset enumeration the band DP replaced
    rep = oracle_report(15, r)
    assert rep.passed
    assert Fraction(rep.details["min_game_value"]) == min_game
    assert rep.details["dominates_segment_bound"]
    assert rep.details["configurations"] == {1: 1, 3: 455, 4: 15}[r]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_oracle_report_n7_dominates_the_segment_bound(r):
    # fails alone when some game value falls below its segment bound but
    # every one stays above the floor
    assert oracle_report(7, r).details["dominates_segment_bound"]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_oracle_report_n7_exceeds_the_round_floor(r):
    assert oracle_report(7, r).details["exceeds_round_floor"]


def test_oracle_report_n1():
    rep = oracle_report(1, 1, grid_k=6)
    assert rep.passed
    assert Fraction(rep.details["min_game_value"]) == Fraction(1, 2)
    assert rep.details["grid_k"] == 6


def test_oracle_report_caps_the_auto_grid():
    # an explicit grid caps auto_grid_k, so a finer one plays the auto grid
    assert oracle_report(7, 2, 20) == oracle_report(7, 2)
    assert oracle_report(7, 2, 3).details["grid_k"] == 3


def test_oracle_report_deterministic():
    a = oracle_report(3, 2, grid_k=5)
    b = oracle_report(3, 2, grid_k=5)
    assert a.to_json_dict() == b.to_json_dict()
