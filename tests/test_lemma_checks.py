"""Checkers: exact moment identities, configuration floors, MC reports."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from matchline import lemma_checks
from matchline.adversary import (
    default_grid_k,
    instance_seed,
    origin_round_numerators,
    reachable_free_count,
    rounds_for,
)
from matchline.experiments import ExperimentConfig, run_suite
from matchline.lemma_checks import (
    LemmaReport,
    RoundConfig,
    config_lower_bound,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    render_reports,
)
from matchline.rng import Stream
from oracles import CALIBRATION_Z, binomial_z


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
    assert config_lower_bound(RoundConfig(7, 2, (1,))) == Fraction(26, 16)


def test_boundary_server_is_not_interior():
    # server 4 sits on the cell boundary of round 2 and cuts nothing
    whole = config_lower_bound(RoundConfig(7, 2, ()))
    assert config_lower_bound(RoundConfig(7, 2, (4,))) == whole == Fraction(32, 16)


def test_config_lower_bound_all_free_round1():
    for n in (3, 7, 15):
        cfg = RoundConfig(n, 1, tuple(range(1, n + 1)))
        assert config_lower_bound(cfg) == Fraction(n + 1, 8)


def test_config_lower_bound_empty_cell_term():
    # a cell without interior free servers contributes width^2/(4*width)
    cfg = RoundConfig(7, 2, (1,))
    assert config_lower_bound(cfg) == Fraction(1 + 9 + 16, 16)


def test_config_lower_bound_reflection_invariant():
    s = Stream(88, "reflect")
    n = 15
    for r in (1, 2, 3):
        f = reachable_free_count(n, r)
        for _ in range(20):
            picks = set()
            while len(picks) < f:
                picks.add(1 + s.randbelow(n))
            conf = tuple(sorted(picks))
            mirror = tuple(sorted(n + 1 - v for v in conf))
            a = config_lower_bound(RoundConfig(n, r, conf))
            b = config_lower_bound(RoundConfig(n, r, mirror))
            assert a == b


def test_lemma1_exact_reports():
    rep = lemma1_exact(1)
    assert rep.passed
    assert rep.observed == 0.25 and rep.bound == 0.25
    rep3 = lemma1_exact(3)
    assert rep3.passed
    assert rep3.details["mean_identity"] and rep3.details["variance_bound"]
    with pytest.raises(ValueError):
        lemma1_exact(4)


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
        rounds = origin_round_numerators(2, 54, [instance_seed(5, t)])
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
    assert seeds == [instance_seed(9, t) for t in range(100)]


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


def test_lemma2_config_exhaustive_n7():
    counts = {1: 1, 2: 35, 3: 7}
    for r, count in counts.items():
        rep = lemma2_config_property(7, r)
        assert rep.passed
        assert rep.trials == count
        assert rep.details["floor_strict"]
        assert rep.details["mode"] == f"exhaustive:{count}"


def test_lemma2_config_worst_round3_detail():
    rep = lemma2_config_property(7, 3)
    assert rep.details["min_config"] == [4]
    assert rep.observed == 1.0
    assert rep.bound == pytest.approx(8 / 12)


def test_lemma2_config_sampled_deterministic():
    a = lemma2_config_property(255, 3, samples=300, seed=6)
    b = lemma2_config_property(255, 3, samples=300, seed=6)
    assert a.passed and a.to_json_dict() == b.to_json_dict()
    assert a.details["mode"] == "sampled:300"
    c = lemma2_config_property(255, 2, samples=300, seed=6)
    assert c.details["min_lower_bound"] != a.details["min_lower_bound"]


def test_lemma2_config_sample_validation():
    with pytest.raises(ValueError):
        lemma2_config_property(255, 2, samples=0)


def _segments_one_config(n, r, free):
    """Sum of squared segment lengths of one configuration, by sorting its points."""
    width = 1 << r
    bounds = np.arange(0, n + 1 + width, width, dtype=np.int64)
    interior = free[(free % width) != 0]
    pts = np.sort(np.concatenate((bounds, interior)))
    d = np.diff(pts)
    return int((d * d).sum())


def _scan_configs(n, r, configs):
    """lemma2_config_property's details, one configuration at a time."""
    min_sum_d2, min_config = None, ()
    floor_ok = True
    for conf in configs:
        sum_d2 = _segments_one_config(n, r, np.asarray(conf, dtype=np.int64))
        floor_ok = floor_ok and 3 * sum_d2 > (n + 1) << r
        if min_sum_d2 is None or sum_d2 < min_sum_d2:
            min_sum_d2, min_config = sum_d2, tuple(conf)
    return {
        "floor_strict": floor_ok,
        "min_config": list(min_config) if len(min_config) <= 32 else [],
        "min_lower_bound": f"{min_sum_d2}/{4 << r}",
    }


def _drawn_configs(n, r, f, samples, seed):
    """Sample s: the f positions of the smallest of draws s n + 1 .. (s + 1) n
    of the round's one stream."""
    stream = Stream(seed, "config", r)
    for _ in range(samples):
        draws = stream.u64_block(n)
        yield tuple(int(v) + 1 for v in np.sort(np.argpartition(draws, f)[:f]))


def test_config_sampler_calibration():
    """Sampled configurations are uniform, and independent from row to row.

    3500 samples at n = 7, r = 2 (3 free servers of 7, so 35 subsets): each
    subset count against 1/35, and the rate at which sample s + 1 repeats
    sample s against 1/35.  For independent uniform samples those 3499
    repeat indicators are pairwise independent, so their sum has binomial
    variance.  Each of the 36 comparisons is two-sided at CALIBRATION_Z =
    4.5 SE, so a correct sampler fails the family with probability at most
    36 x 6.8e-6 = 0.025 %.
    """
    n, r, samples = 7, 2, 3500
    f = reachable_free_count(n, r)
    configs = list(_drawn_configs(n, r, f, samples, 99))
    subsets = list(itertools.combinations(range(1, n + 1), f))
    counts = Counter(configs)
    assert set(counts) <= set(subsets)
    zs = [binomial_z(counts[c], samples, 1 / len(subsets)) for c in subsets]
    repeats = sum(a == b for a, b in zip(configs, configs[1:]))
    zs.append(binomial_z(repeats, samples - 1, 1 / len(subsets)))
    worst = max(zs, key=abs)
    assert abs(worst) <= CALIBRATION_Z, (zs.index(worst), worst)


def _random_configs(n, r, stream):
    """Seeded configurations of every size, with extra picks on cell bounds."""
    bounds = list(range(1 << r, n + 1, 1 << r))  # the servers on cell bounds
    configs = [(), tuple(range(1, n + 1)), tuple(bounds)]
    for _ in range(12):
        picks = {1 + stream.randbelow(n) for _ in range(stream.randbelow(n + 1))}
        if bounds:
            picks.add(bounds[stream.randbelow(len(bounds))])
        configs.append(tuple(sorted(picks)))
    return configs


def test_block_segment_sums_match_per_config_oracle():
    # ragged rows in one block: every row's sum, whatever its size
    stream = Stream(71, "segments")
    for i in range(2, 11):
        n = (1 << i) - 1
        for r in range(1, i + 1):
            configs = _random_configs(n, r, stream)
            free = np.zeros((len(configs), n), dtype=bool)
            for row, conf in enumerate(configs):
                free[row, [v - 1 for v in conf]] = True
            sums = lemma_checks._sum_squared_segments(n, r, free)
            want = [_segments_one_config(n, r, np.asarray(c, dtype=np.int64)) for c in configs]
            assert sums.tolist() == want, (n, r)


@pytest.mark.parametrize("n, samples, seed", [
    (3, 40, 1), (7, 300, 2), (63, 200, 3), (1023, 150, 4), (3, None, 0), (7, None, 0), (15, None, 0),
])
def test_lemma2_config_property_matches_per_config_scan(n, samples, seed):
    # every round: f == n (round 1) and the single-server last round included
    for r in range(1, rounds_for(n) + 1):
        f = reachable_free_count(n, r)
        rep = lemma2_config_property(n, r, samples=samples, seed=seed)
        if samples is None or f == n:
            configs = list(itertools.combinations(range(1, n + 1), f))
        else:
            configs = list(_drawn_configs(n, r, f, samples, seed))
        want = _scan_configs(n, r, configs)
        assert {key: rep.details[key] for key in want} == want, (n, r)
        assert rep.trials == len(configs)
        assert rep.observed == float(Fraction(want["min_lower_bound"]))


def test_lemma2_config_flags_fail_with_too_many_free_servers(monkeypatch):
    # 14 of 15 servers free in round 3: the floor fails for every sample,
    # and the block check must say so exactly as the one-by-one scan does
    monkeypatch.setattr(lemma_checks, "reachable_free_count", lambda n, r: 14)
    rep = lemma2_config_property(15, 3, samples=50, seed=8)
    want = _scan_configs(15, 3, list(_drawn_configs(15, 3, 14, 50, 8)))
    assert not want["floor_strict"] and not rep.passed
    assert {key: rep.details[key] for key in want} == want


@pytest.mark.parametrize("n, r, samples", [
    (7, 2, 300),  # 35 configurations: the samples repeat, so minima tie
    (63, 3, 200),
    (1023, 2, 130),
    (15, 2, None),  # exhaustive: mirror images tie for the minimum
    (7, 2, None),
])
def test_block_size_does_not_change_the_report(monkeypatch, n, r, samples):
    default = lemma2_config_property(n, r, samples=samples, seed=5).to_json_dict()
    for rows in (1, 3, 64):
        monkeypatch.setattr(lemma_checks, "BLOCK_DRAW_BYTES", rows * 8 * n)
        rep = lemma2_config_property(n, r, samples=samples, seed=5)
        assert rep.to_json_dict() == default, rows


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
