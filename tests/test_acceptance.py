"""Acceptance gate: ten criteria, one verdict line each.

Exact claims are checked in integer or rational arithmetic at zero
tolerance.  Monte Carlo claims run at three standard errors.  The heavy
500-trial runs are shared between the per-round floor and the aggregate
ratio criteria through a module-scoped fixture.
"""

import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import brute_force_cost

from matchline import experiments, lemma_checks, offline, oracle
from matchline.adversary import g_moment_nums, origin_round_numerators
from matchline.experiments import ExperimentConfig, run_suite, write_outputs
from matchline.lemma_checks import (
    empirical_report_from_stats,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    ratio_report_from_stats,
)
from matchline.oracle import oracle_report

ACCEPT_SEED = 20260819
N_FULL = tuple((1 << i) - 1 for i in range(1, 11))
OUTPUT_NAMES = ("trials.jsonl", "summary.csv", "rounds.csv", "reports.json")


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"criterion {num:02d}: {name}"


@pytest.fixture(scope="module")
def exact_moment_reports():
    return {n: lemma1_exact(n) for n in N_FULL}


@pytest.fixture(scope="module")
def heavy_stats():
    # 500 runs per (n, policy), one instance per (n, trial)
    return run_suite(ExperimentConfig(n_list=(255, 1023), trials=500, seed=ACCEPT_SEED)).stats


def test_criterion_01_exact_mean_identity(exact_moment_reports):
    ok = all(
        rep.details["mean_identity"] for rep in exact_moment_reports.values()
    )
    _verdict(1, "clamp-sum mean equals l - l/(n+1) for every l, n up to 1023", ok)


def _shifted_g_moment_nums(ell, i):
    """adversary.g_moment_nums with the straddling cell's count c taken at ell + 1."""
    mean_num = var_num = 0
    for r in range(1, i + 1):
        width = 1 << r
        c = (ell + 1) & (width - 1)
        mean_num += ((ell >> r) * width + c) << (i - r)
        var_num += (c * (width - c)) << (2 * (i - r))
    return mean_num, var_num


def test_criterion_01_fails_on_a_shifted_straddling_cell(monkeypatch):
    monkeypatch.setattr(lemma_checks, "g_moment_nums", _shifted_g_moment_nums)
    assert not lemma1_exact(7).details["mean_identity"]


def test_criterion_02_exact_variance_bound(exact_moment_reports):
    ok = True
    for n, rep in exact_moment_reports.items():
        i = (n + 1).bit_length() - 1
        ok = ok and rep.details["variance_bound"]
        ok = ok and Fraction(rep.details["max_variance"]) <= Fraction(i, 4)
    _verdict(2, "per-origin variance at most log2(n+1)/4, exact", ok)


def _widened_g_moment_nums(ell, i):
    """adversary.g_moment_nums with the straddling cell's variance term c (2^r - c + 1)."""
    var_num = 0
    for r in range(1, i + 1):
        width = 1 << r
        c = ell & (width - 1)
        var_num += (c * (width - c + 1)) << (2 * (i - r))
    return g_moment_nums(ell, i)[0], var_num


def test_criterion_02_fails_on_a_widened_variance_term(monkeypatch):
    monkeypatch.setattr(lemma_checks, "g_moment_nums", _widened_g_moment_nums)
    rep = lemma1_exact(3)
    assert rep.details["mean_identity"] and not rep.details["variance_bound"]
    assert Fraction(rep.details["max_variance"]) == Fraction(7, 8) > Fraction(1, 2)


def test_criterion_03_sorted_distance_bound():
    t0 = time.perf_counter()
    rep = lemma1_distance_mc(1023, trials=1000, seed=ACCEPT_SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _verdict(
        3,
        f"max_l mean |sorted origin - l| within sqrt(10)+3 at 3 SE "
        f"({elapsed:.1f}s)",
        ok,
    )


def _left_end_origins(i, grid_k, seeds):
    """adversary.origin_round_numerators with every origin at its cell's left end."""
    return [
        nums >> (r + grid_k) << (r + grid_k)
        for r, nums in enumerate(origin_round_numerators(i, grid_k, seeds), 1)
    ]


def test_criterion_03_fails_on_left_end_origins(monkeypatch):
    # at n = 7 the same fault still passes (3.0 against sqrt(3) + 3), so n = 63
    assert lemma1_distance_mc(63, trials=100, seed=ACCEPT_SEED).passed
    monkeypatch.setattr(lemma_checks, "origin_round_numerators", _left_end_origins)
    rep = lemma1_distance_mc(63, trials=100, seed=ACCEPT_SEED)
    assert not rep.passed
    assert rep.observed == 6.0 > rep.bound


def test_criterion_04_offline_aggregate_bound():
    config = ExperimentConfig((1023,), ("greedy_nearest",), trials=1000, seed=ACCEPT_SEED)
    stats = run_suite(config).stats[(1023, "greedy_nearest")]
    rep = ratio_report_from_stats(stats, ACCEPT_SEED)
    _verdict(
        4, "mean offline cost within n(sqrt(10)+3) + n/2^40 at 3 SE",
        rep.details["denominator_pass"],
    )


def _greedy_stats(n):
    config = ExperimentConfig((n,), ("greedy_nearest",), trials=100, seed=ACCEPT_SEED)
    return run_suite(config).stats[(n, "greedy_nearest")]


def _ratio_report(stats, **scaled):
    """ratio_report_from_stats over stats with each named total mapped by its function."""
    edited = [replace(st, **{key: f(getattr(st, key)) for key, f in scaled.items()}) for st in stats]
    return ratio_report_from_stats(edited, ACCEPT_SEED)


def test_criterion_04_fails_on_inflated_offline_totals():
    # the cap is loose: 162.32 against a mean offline total of 22.45 at
    # n = 31, so offline totals six times too large still pass
    stats = _greedy_stats(31)
    assert _ratio_report(stats, offline_total=lambda x: 6 * x).details["denominator_pass"]
    rep = _ratio_report(stats, offline_total=lambda x: 8 * x)
    assert not rep.details["denominator_pass"] and not rep.passed


def _offline_matches_brute_force():
    s = random.Random(ACCEPT_SEED)
    ok = True
    for _ in range(200):
        size = 1 + s.randrange(8)
        k = s.randrange(7)
        servers = [s.randrange(1 << (k + 5)) for _ in range(size)]
        points = [s.randrange(1 << (k + 5)) for _ in range(size)]
        ok = ok and offline.sorted_cost_num(servers, points) == brute_force_cost(servers, points)
    return ok


def test_criterion_05_offline_oracle_equivalence():
    _verdict(5, "sorted_cost_num equals the brute-force optimum, 200 instances",
             _offline_matches_brute_force())


def test_criterion_05_fails_on_a_reversed_pairing(monkeypatch):
    # the sorted servers met by the points sorted right to left
    def reversed_pairing(server_nums, point_nums):
        pairs = zip(sorted(point_nums, reverse=True), sorted(server_nums))
        return sum(abs(p - s) for p, s in pairs)

    monkeypatch.setattr(offline, "sorted_cost_num", reversed_pairing)
    assert not _offline_matches_brute_force()


def _config_floor_holds(sizes=N_FULL):
    ok = True
    for n in sizes:
        for r in range(1, (n + 1).bit_length()):
            rep = lemma2_config_property(n, r)
            ok = ok and rep.passed and rep.trials == 0
    return ok


def test_criterion_06_config_floor_analytic():
    _verdict(6, "the strict segment floor holds for every configuration, exact up to 1023",
             _config_floor_holds())


def test_criterion_06_fails_on_finer_cell_bounds(monkeypatch):
    # bounds every 2^(r-1) cut each cell in two, so the minimizing
    # configuration's measured segments fall below the closed form
    segments = lemma_checks._sum_squared_segments
    monkeypatch.setattr(
        lemma_checks, "_sum_squared_segments", lambda n, r, free: segments(n, r - 1, free)
    )
    assert not _config_floor_holds()


@pytest.mark.parametrize("scale, holds", [(Fraction(102, 100), False), (Fraction(101, 100), True)])
def test_criterion_06_fails_on_a_raised_floor(monkeypatch, scale, holds):
    # at n = 1023, r = 4 the least segment bound is 8319/8192 of the floor
    floor = lemma_checks.round_floor
    monkeypatch.setattr(lemma_checks, "round_floor", lambda n: floor(n) * scale)
    assert _config_floor_holds((1023,)) == holds


def _round_game_value_floor_holds():
    ok = True
    for n in (1, 3, 7):
        i = (n + 1).bit_length() - 1
        for r in range(1, i + 1):
            rep = oracle_report(n, r, grid_k=6)
            ok = ok and rep.passed
            ok = ok and rep.details["exceeds_round_floor"]
            ok = ok and rep.details["dominates_segment_bound"]
    return ok


def test_criterion_07_round_game_value_floor():
    """The oracle's game value beats (n+1)/12 and dominates the segment bound.

    This cannot check that the oracle serves each request by its own server:
    an oracle that sends every cell to its nearest free server, shared or
    not, still passes at n in {1, 3, 7}, since the segment bound also
    lower-bounds that cost.  test_oracle.py's property test against the
    subset enumeration is what checks the one-server-per-request rule.
    """
    _verdict(7, "exact round game value beats (n+1)/12 on every configuration",
             _round_game_value_floor_holds())


def test_criterion_07_fails_on_a_shrunk_oracle(monkeypatch):
    # game values divided by the points per cell, 2^(r+k), fall below the
    # segment bound
    totals = oracle._round_game_totals
    monkeypatch.setattr(oracle, "_round_game_totals", lambda servers, q, pts: totals(servers, q, pts) // pts)
    assert not _round_game_value_floor_holds()


def test_criterion_08_per_round_empirical_floor(heavy_stats):
    ok = True
    for (n, kind), stats in sorted(heavy_stats.items()):
        rep = empirical_report_from_stats(stats, ACCEPT_SEED)
        ok = ok and rep.passed
    _verdict(8, "every round's mean cost at least (n+1)/12 - 3 SE, all policies", ok)


def test_criterion_08_fails_on_halved_round_costs():
    # halved in greedy's kernel, the fault stops in play, whose online total
    # falls below the offline optimum; so the recorded round costs are halved.
    # At n = 7 the halved means still clear the floor; at n = 15 round 1 does not.
    config = ExperimentConfig((15,), ("greedy_nearest",), trials=100, seed=ACCEPT_SEED)
    stats = run_suite(config).stats[(15, "greedy_nearest")]
    assert empirical_report_from_stats(stats, ACCEPT_SEED).passed
    halved = [replace(st, round_costs=tuple(c // 2 for c in st.round_costs)) for st in stats]
    assert not empirical_report_from_stats(halved, ACCEPT_SEED).passed


def test_criterion_09_aggregate_ratio_floor(heavy_stats):
    ok = True
    for kind in ("greedy_nearest", "batch_round_optimal"):
        rep = ratio_report_from_stats(heavy_stats[(1023, kind)], ACCEPT_SEED)
        ok = ok and rep.passed
    _verdict(9, "online total floor and offline total cap hold at 3 SE", ok)


def test_criterion_09_fails_on_a_third_of_the_online_totals():
    # halved online totals still clear the floor (n+1) i/12 at n = 15
    stats = _greedy_stats(15)
    assert _ratio_report(stats, online_total=lambda x: x // 2).passed
    rep = _ratio_report(stats, online_total=lambda x: x // 3)
    assert not rep.details["numerator_pass"] and not rep.passed


def _byte_identical_reruns(tmp_path, workers=(1, 1, 2, 3), n_list=(3, 7), trials=5):
    def emit(tag, count):
        cfg = ExperimentConfig(n_list=n_list, trials=trials, seed=123, workers=count)
        out = tmp_path / tag
        write_outputs(run_suite(cfg), str(out))
        return out

    dirs = [emit(f"run{j}_w{count}", count) for j, count in enumerate(workers)]
    ref = {name: (dirs[0] / name).read_bytes() for name in OUTPUT_NAMES}
    return all(
        (d / name).read_bytes() == ref[name]
        for d in dirs[1:]
        for name in OUTPUT_NAMES
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    _verdict(10, "byte-identical outputs across reruns and worker counts",
             _byte_identical_reruns(tmp_path))


def test_criterion_10_fails_on_process_salted_policy_seeds(monkeypatch, tmp_path):
    # a forked child inherits the patch and salts its blocks with its own pid.
    # At --workers 2 the child always plays trials 4..7 of n = 15, whose 16
    # random_free rounds draw far too many picks for two salts to agree
    rows = experiments.stream_key_rows
    monkeypatch.setattr(
        experiments,
        "stream_key_rows",
        lambda seeds, labels, lasts: rows(seeds, (*labels, os.getpid()), lasts),
    )
    assert experiments._block_size(15, 8, 2) == 4
    config = {"n_list": (15,), "trials": 8}
    assert _byte_identical_reruns(tmp_path / "w1", (1, 1), **config)
    assert not _byte_identical_reruns(tmp_path / "w2", (1, 2), **config)
