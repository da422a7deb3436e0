"""Exact per-round game values against independent enumeration."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import brute_force_cost, subset_game_value

from matchline.lemma_checks import RoundConfig, config_lower_bound, lemma2_config_property
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
    assert exact_round_game_value(cfg) == Fraction(1, 2)


def test_game_value_beats_floor_n3():
    cfg = RoundConfig(3, 1, (1, 2, 3))
    v = exact_round_game_value(cfg, grid_k=6)
    assert v > Fraction(4, 12)
    assert v >= config_lower_bound(cfg)


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
    # one scratch grid shared by every call, whatever its shape
    scratch = np.zeros(MAX_OUTCOMES, dtype=np.int32)
    for cfg, k in cases:
        want = subset_game_value(cfg, k)
        assert exact_round_game_value(cfg, k, out=scratch) == want, (cfg, k)
        assert exact_round_game_value(cfg, k) == want, (cfg, k)


def test_outcome_grid_fits_int32_under_the_cap():
    # an outcome of q cells with pts grid points each sums to under q^2 pts;
    # the grid is int32, so every (q, pts) the cap admits must keep that below 2^31
    admitted = [
        (q, 1 << b)
        for q in range(1, MAX_OUTCOMES.bit_length())
        for b in range(1, MAX_OUTCOMES.bit_length())
        if (1 << b) ** q <= MAX_OUTCOMES
    ]
    assert (1, MAX_OUTCOMES) in admitted
    assert all(q * q * pts < 1 << 31 for q, pts in admitted)
    # the largest single-cell grid the cap admits: 2^18 points, exact
    assert exact_round_game_value(RoundConfig(1, 1, (1,)), grid_k=17) == Fraction(1, 2)


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
    # lex-first minimizer: two cuts in one cell, midpoint cut in the other
    (7, 2, (1, 2, 6), Fraction(7, 8)),
    (7, 3, (4,), Fraction(1)),
    (31, 2, None, None),  # C(31, 15) configurations: past the exhaustive cap
], ids=["n3-r1", "n7-r2", "n7-r3", "n31-r2-cap"])
def test_exhaustive_worst_config(n, r, config, lower_bound):
    # the exhaustive lemma2 check reports the segment-bound minimizer
    if config is None:
        with pytest.raises(ValueError, match="configurations"):
            lemma2_config_property(n, r)
        return
    rep = lemma2_config_property(n, r)
    assert tuple(rep.details["min_config"]) == config
    assert Fraction(rep.details["min_lower_bound"]) == lower_bound
    assert config_lower_bound(RoundConfig(n, r, config)) == lower_bound
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


def test_oracle_report_n1():
    rep = oracle_report(1, 1, grid_k=6)
    assert rep.passed
    assert Fraction(rep.details["min_game_value"]) == Fraction(1, 2)
    assert rep.details["grid_k"] == 6


def test_oracle_report_deterministic():
    a = oracle_report(3, 2, grid_k=5)
    b = oracle_report(3, 2, grid_k=5)
    assert a.to_json_dict() == b.to_json_dict()
