"""Checkers: exact moment identities, configuration floors, MC reports."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from matchline import lemma_checks
from matchline.adversary import (
    default_grid_k,
    g_moment_nums,
    origin_round_numerators,
    reachable_free_count,
    rounds_for,
)
from matchline.experiments import ExperimentConfig, run_suite
from matchline.lemma_checks import (
    LemmaReport,
    RoundConfig,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    render_reports,
)
from matchline.rng import stream_key, u64_rows
from oracles import (
    config_lower_bounds,
    lemma1_exact_details_by_rank,
    min_segment_sum_by_enumeration,
    segment_square_sum,
)


def test_reachable_free_count():
    assert reachable_free_count(7, 1) == 7
    assert reachable_free_count(7, 2) == 3
    assert reachable_free_count(7, 3) == 1
    assert reachable_free_count(1023, 10) == 1
    with pytest.raises(ValueError):
        reachable_free_count(7, 4)
    with pytest.raises(ValueError):
        reachable_free_count(7, 0)


def test_round_config_validation():
    RoundConfig(7, 2, (2, 5))
    with pytest.raises(ValueError):
        RoundConfig(7, 2, (0, 5))
    with pytest.raises(ValueError):
        RoundConfig(7, 2, (5, 2))
    with pytest.raises(ValueError):
        RoundConfig(7, 2, (2, 2))
    with pytest.raises(ValueError):
        RoundConfig(7, 4, (1,))


def test_segment_decomposition():
    # cell [0,4) is cut at 1 into 1 + 3; cell [4,8) has no interior free
    # server: sum d^2 / (4 * 2^r) = (1 + 9 + 16) / 16
    assert config_lower_bounds(7, 2, [(1,)])[0] == Fraction(26, 16)


def test_boundary_server_is_not_interior():
    # server 4 sits on the cell boundary of round 2 and cuts nothing
    whole = config_lower_bounds(7, 2, [()])[0]
    assert config_lower_bounds(7, 2, [(4,)])[0] == whole == Fraction(32, 16)


def test_config_lower_bound_all_free_round1():
    for n in (3, 7, 15):
        assert config_lower_bounds(n, 1, [range(1, n + 1)]) == [Fraction(n + 1, 8)]


def test_config_lower_bound_empty_cell_term():
    # a cell without interior free servers contributes width^2/(4*width)
    assert config_lower_bounds(7, 2, [(1,)]) == [Fraction(1 + 9 + 16, 16)]


def test_config_lower_bound_reflection_invariant():
    s = random.Random(88)
    n = 15
    for r in (1, 2, 3):
        f = reachable_free_count(n, r)
        for _ in range(20):
            picks = set()
            while len(picks) < f:
                picks.add(1 + s.randrange(n))
            conf = tuple(sorted(picks))
            mirror = tuple(sorted(n + 1 - v for v in conf))
            a = config_lower_bounds(n, r, [conf])[0]
            b = config_lower_bounds(n, r, [mirror])[0]
            assert a == b


def test_config_lower_bounds_refuses_a_server_outside_1_to_n():
    # server 0 would index mask column -1 and read as server 7
    for bad in [(0, 1, 2)], [(1, 2, 8)], [(1, 2, 3), (-1, 5, 6)]:
        with pytest.raises(ValueError, match=r"strictly increasing within 1\.\.7"):
            config_lower_bounds(7, 2, bad)


def test_config_lower_bounds_refuses_a_row_not_strictly_increasing():
    # (2, 2, 3) would read as the two-server configuration (2, 3)
    for bad in [(2, 2, 3)], [(3, 2, 1)], [(1, 2, 3), (5, 4, 6)]:
        with pytest.raises(ValueError, match=r"strictly increasing within 1\.\.7"):
            config_lower_bounds(7, 2, bad)
    assert config_lower_bounds(7, 2, [(1, 2, 3), (4, 6, 7)]) == [Fraction(5, 4), Fraction(11, 8)]


@pytest.mark.parametrize("row", [
    (1.5, 2.5, 7), (1.0, 2.0, 7.0),  # not integers: an int64 cast would truncate
    (0, 1, 2), (1, 2, 8),  # outside 1..7
    (2, 2, 3), (3, 2, 1),  # repeated, descending
])
def test_both_configuration_checks_refuse_the_same_rows(row):
    # RoundConfig checks one row by itself, config_lower_bounds a block at once
    with pytest.raises(ValueError):
        RoundConfig(7, 2, row)
    with pytest.raises(ValueError):
        config_lower_bounds(7, 2, [(1, 2, 7), row])
    RoundConfig(7, 2, (1, 2, 7))
    assert config_lower_bounds(7, 2, [(1, 2, 7)]) == [Fraction(1)]


def test_config_lower_bounds_refuses_a_round_outside_1_to_i():
    # round 4 of n = 7 marks no cell bound at n + 1 and would read as 1/64
    for r in (0, 4):
        with pytest.raises(ValueError, match=r"round must be in 1\.\.3"):
            config_lower_bounds(7, r, [(1,)])


def test_config_lower_bounds_refuses_rows_of_unequal_length():
    # a bare tuple is one row given as three
    for bad in [(1, 2), (3,)], [(1, 2, 3), ()], (1, 2, 3):
        with pytest.raises(ValueError, match="all of one length"):
            config_lower_bounds(7, 2, bad)


def test_lemma1_exact_reports():
    rep = lemma1_exact(1)
    assert rep.passed
    assert rep.observed == 0.25 and rep.bound == 0.25
    rep3 = lemma1_exact(3)
    assert rep3.passed
    assert rep3.details["mean_identity"] and rep3.details["variance_bound"]
    with pytest.raises(ValueError):
        lemma1_exact(4)


@pytest.mark.parametrize("i", range(1, 11))
def test_lemma1_exact_matches_the_per_rank_loop(i):
    n = (1 << i) - 1
    assert lemma1_exact(n).details == lemma1_exact_details_by_rank(n)


@pytest.mark.parametrize("chunk", [1, 5, 256])
def test_lemma1_exact_chunk_size_cannot_change_a_report(monkeypatch, chunk):
    # Var[g_ell] is symmetric in ell <-> n + 1 - ell, so the largest variance
    # sits at two ranks, in different chunks; argmax_ell is the first
    monkeypatch.setattr(lemma_checks, "RANK_CHUNK", chunk)
    for i in range(1, 11):
        n = (1 << i) - 1
        assert lemma1_exact(n).details == lemma1_exact_details_by_rank(n), n


@pytest.mark.parametrize("i", [21, 22])
def test_lemma1_exact_gates_hold_where_the_products_leave_int64(i):
    # mean_num (n + 1) is within 2^-20 of 2^63 at i = 21 and past it from
    # i = 22; the gates compare mean_num with ell n and var_num with
    # i 4^(i-1), which int64 holds through i = 30
    rep = lemma1_exact((1 << i) - 1)
    assert rep.passed and rep.details["mean_identity"] and rep.details["variance_bound"]
    _, var_num = g_moment_nums(rep.details["argmax_ell"], i)
    assert Fraction(var_num, 1 << (2 * i)) == Fraction(rep.details["max_variance"]) == rep.observed


def test_lemma1_exact_rejects_n_past_the_int64_numerators():
    with pytest.raises(ValueError, match="overflow int64"):
        lemma1_exact((1 << 31) - 1)


def test_lemma1_distance_mc_small():
    rep = lemma1_distance_mc(1, trials=200, seed=3)
    assert rep.passed
    # single origin uniform on [0,2): E|1 - x| = 1/2, far below sqrt(1)+3
    assert abs(rep.observed - 0.5) < 0.1
    assert rep.bound == 4.0
    assert rep.trials == 200


def test_lemma1_distance_mc_validates_trials():
    with pytest.raises(ValueError):
        lemma1_distance_mc(7, trials=99, seed=0)


def test_lemma1_distance_mc_sums_exactly_up_to_63_bits():
    # each distance is below 2^(i + grid_k), so 100 trials (7 bits) sum below
    # 2^63 at i + grid_k = 56 and may not at 57
    rep = lemma1_distance_mc(3, trials=100, seed=5, grid_k=54)
    sums = [0, 0, 0]
    for t in range(100):
        rounds = origin_round_numerators(2, 54, [stream_key(5, "trial", t)])
        for ell, x in enumerate(sorted(np.concatenate(rounds, axis=1)[0].tolist())):
            sums[ell] += abs(x - ((ell + 1) << 54))
    assert max(sums) >= 1 << 60
    assert rep.observed == max(s / float(1 << 54) / 100 for s in sums)
    with pytest.raises(ValueError, match="trials too large for exact accumulation"):
        lemma1_distance_mc(3, trials=100, seed=5, grid_k=55)


# the theorem report's offline cap takes grid_k from the suite that checks it
# (tests/test_cli.py: run --grid-k -1)
@pytest.mark.parametrize("check", [lemma1_distance_mc])
def test_monte_carlo_rejects_negative_grid_k(check):
    # checked before the scale 2^grid_k is formed
    with pytest.raises(ValueError, match="grid_k must be non-negative"):
        check(7, trials=100, seed=0, grid_k=-1)


def test_lemma1_distance_mc_draws_the_suite_instances(monkeypatch):
    # trial t is the instance the trial runner plays as trial t
    seeds = []
    sample = lemma_checks.origin_round_numerators

    def recording(i, grid_k, block):
        seeds.extend(block)
        return sample(i, grid_k, block)

    monkeypatch.setattr(lemma_checks, "origin_round_numerators", recording)
    lemma1_distance_mc(7, trials=100, seed=9)
    assert seeds == [stream_key(9, "trial", t) for t in range(100)]


@pytest.mark.parametrize("rows", [1, 7, 150])
@pytest.mark.parametrize("seed", [9, 1])
def test_lemma1_distance_mc_block_size_cannot_change_a_report(monkeypatch, rows, seed):
    # at seed 1, adding each block's axis-0 float sum to sumsq changes the
    # standard error's last bits with 7 rows; at seed 9 it happens not to
    want = lemma1_distance_mc(63, trials=150, seed=seed)
    monkeypatch.setattr(lemma_checks, "BLOCK_DRAW_BYTES", rows * 8 * 63)
    assert lemma1_distance_mc(63, trials=150, seed=seed) == want


def test_lemma1_distance_mc_deterministic():
    a = lemma1_distance_mc(15, trials=150, seed=9)
    b = lemma1_distance_mc(15, trials=150, seed=9)
    assert a.to_json_dict() == b.to_json_dict()


def test_offline_cost_mc():
    # the theorem report's denominator half: the one offline cap at 3 SE
    rep = _suite_report("theorem_ratio", "greedy_nearest", 15, trials=200, seed=4)
    assert rep.details["denominator_pass"]
    assert rep.details["denominator_cap"] == pytest.approx(15 * (2.0 + 3.0) + 15 / 2**15)
    assert rep.details["mean_offline"] < rep.details["denominator_cap"]


@pytest.mark.parametrize("n,grid_k", [(7, 5), (31, None)])
def test_theorem_cap_is_lemma1_bound_summed_over_ranks(n, grid_k):
    rep = _suite_report("theorem_ratio", "greedy_nearest", n, trials=5, seed=4, grid_k=grid_k)
    k = default_grid_k(n) if grid_k is None else grid_k
    bound = lemma1_distance_mc(n, 100, 4, grid_k=k).bound
    assert rep.details["denominator_cap"] == n * bound + n / 2**k


def test_round_floor_floats_are_the_quotients_they_replace():
    # each report's float floor is the one correctly rounded value of the
    # rational, so reading it through round_floor changes no output byte
    for i in (1, 2, 10, 30, 52, 53, 54, 60):
        n = (1 << i) - 1
        assert float(lemma_checks.round_floor(n)) == (n + 1) / 12.0
        assert float(lemma_checks.round_floor(n) * i) == (n + 1) * i / 12.0


def test_lemma2_config_exhaustive_n7():
    for r in (1, 2, 3):
        rep = lemma2_config_property(7, r)
        assert rep.passed and rep.details["floor_strict"]
        assert rep.trials == 0 and rep.details["mode"] == "exact"


def test_lemma2_config_worst_round3_detail():
    rep = lemma2_config_property(7, 3)
    assert rep.details["min_config"] == [4]
    assert rep.observed == 1.0
    assert rep.bound == pytest.approx(8 / 12)


def _scan_configs(n, r, configs):
    """lemma2_config_property's details, one configuration at a time."""
    min_sum_d2, min_config = None, ()
    floor_ok = True
    for conf in configs:
        sum_d2 = segment_square_sum(n, r, conf)
        floor_ok = floor_ok and 3 * sum_d2 > (n + 1) << r
        if min_sum_d2 is None or sum_d2 < min_sum_d2:
            min_sum_d2, min_config = sum_d2, tuple(conf)
    return {
        "floor_strict": floor_ok,
        "min_config": list(min_config) if len(min_config) <= 32 else [],
        "min_lower_bound": f"{min_sum_d2}/{4 << r}",
    }


def _drawn_configs(n, r, f, samples, seed):
    """Uniform configurations of f free servers: sample s frees the positions
    of the f smallest of draws s n + 1 .. (s + 1) n of one seeded stream."""
    for draws in u64_rows([stream_key(seed, "config", r)], samples * n).reshape(samples, n):
        yield tuple(int(v) + 1 for v in np.sort(np.argpartition(draws, f)[:f]))


def _random_configs(n, r, stream):
    """Seeded configurations of every size, with extra picks on cell bounds."""
    bounds = list(range(1 << r, n + 1, 1 << r))  # the servers on cell bounds
    configs = [(), tuple(range(1, n + 1)), tuple(bounds)]
    for _ in range(12):
        picks = {1 + stream.randrange(n) for _ in range(stream.randrange(n + 1))}
        if bounds:
            picks.add(bounds[stream.randrange(len(bounds))])
        configs.append(tuple(sorted(picks)))
    return configs


def test_block_segment_sums_match_per_config_oracle():
    # ragged rows in one block: every row's sum, whatever its size
    stream = random.Random(71)
    for i in range(2, 11):
        n = (1 << i) - 1
        for r in range(1, i + 1):
            configs = _random_configs(n, r, stream)
            free = np.zeros((len(configs), n), dtype=bool)
            for row, conf in enumerate(configs):
                free[row, [v - 1 for v in conf]] = True
            sums = lemma_checks._sum_squared_segments(n, r, free)
            assert sums.tolist() == [segment_square_sum(n, r, c) for c in configs], (n, r)


@pytest.mark.parametrize("n, samples, seed", [
    (3, 40, 1), (7, 300, 2), (31, 300, 5), (63, 200, 3), (255, 200, 6), (1023, 150, 4),
    (1, None, 0), (3, None, 0), (7, None, 0), (15, None, 0),
])
def test_lemma2_config_property_matches_per_config_scan(n, samples, seed):
    # samples=None, or round 1 with its one configuration: the minimum over
    # every configuration is the report's; otherwise no configuration drawn
    # beats the report's minimum
    for r in range(1, rounds_for(n) + 1):
        f = reachable_free_count(n, r)
        rep = lemma2_config_property(n, r)
        least = lemma_checks.min_segment_sum(n, r)
        assert rep.details["min_lower_bound"] == f"{least}/{4 << r}"
        assert rep.observed == float(Fraction(least, 4 << r))
        assert rep.passed and rep.details["free_count"] == f
        if samples is None or f == n:
            assert least == min_segment_sum_by_enumeration(n, r), (n, r)
        else:
            drawn = _drawn_configs(n, r, f, samples, seed)
            assert min(segment_square_sum(n, r, conf) for conf in drawn) >= least, (n, r)
        min_config = tuple(rep.details["min_config"])
        if f <= 32:
            assert len(min_config) == f
            assert config_lower_bounds(n, r, [min_config])[0] == Fraction(least, 4 << r)
        else:
            assert min_config == ()


def test_lemma2_config_flags_fail_with_too_many_free_servers(monkeypatch):
    # 14 of 15 servers free in round 3: the floor fails for every
    # configuration, and the exact check must say so as the one-by-one scan does
    monkeypatch.setattr(lemma_checks, "reachable_free_count", lambda n, r: 14)
    rep = lemma2_config_property(15, 3)
    want = _scan_configs(15, 3, list(itertools.combinations(range(1, 16), 14)))
    assert not want["floor_strict"] and not rep.passed
    assert {key: rep.details[key] for key in want} == want


def _suite_report(lemma_id, kind, n, **kw):
    """The one report of lemma_id from a one-policy, one-size suite."""
    res = run_suite(ExperimentConfig(n_list=(n,), algorithms=(kind,), **kw))
    (rep,) = [rep for rep in res.reports if rep.lemma_id == lemma_id]
    return rep


def test_lemma2_empirical_single_round():
    rep = _suite_report("lemma2_empirical", "greedy_nearest", 1, trials=300, seed=11)
    assert rep.passed
    assert abs(rep.observed - 0.5) < 0.1
    assert rep.bound == pytest.approx(2 / 12)
    assert [row["round"] for row in rep.details["per_round"]] == [1]


def test_lemma2_empirical_prefix_labels():
    rep = _suite_report(
        "lemma2_empirical", "greedy_nearest", 7, trials=120, seed=2, prefix_rounds=1
    )
    assert [row["round"] for row in rep.details["per_round"]] == [2, 3]
    assert rep.details["prefix_rounds"] == 1


def test_theorem_ratio_floor_of_one():
    # online can never beat offline, so the aggregate sits at 1 or above
    rep = _suite_report("theorem_ratio", "batch_round_optimal", 3, trials=200, seed=13)
    assert rep.observed >= 1.0
    assert rep.passed
    assert rep.details["numerator_pass"] in (True, False)
    assert rep.details["denominator_pass"]


def test_theorem_ratio_deterministic():
    a = _suite_report("theorem_ratio", "greedy_nearest", 7, trials=150, seed=21)
    b = _suite_report("theorem_ratio", "greedy_nearest", 7, trials=150, seed=21)
    assert a.to_json_dict() == b.to_json_dict()


def test_report_json_shape():
    rep = LemmaReport(
        lemma_id="demo", n=3, trials=10, observed=1.0, bound=0.5,
        standard_error=0.1, passed=True, details={"x": 1},
    )
    d = rep.to_json_dict()
    assert d["pass"] is True
    assert d["details"] == {"x": 1}


def test_render_reports_table():
    reps = [
        lemma1_exact(3),
        LemmaReport("demo_fail", 3, 5, 9.0, 1.0, 0.0, False, {}),
    ]
    text = render_reports(reps)
    assert "lemma1_exact" in text
    assert "FAIL" in text and "pass" in text
