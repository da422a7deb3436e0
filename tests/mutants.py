"""Mutant register: deliberate faults that the test suite must catch.

Each row of MUTANTS is (id, path, old, new, killing tests): replacing the
one occurrence of old in path with new breaks a checked property, and the
named tests fail on the result.  Each row of EQUIVALENT is (id, path,
old, new, reason): a change that no valid input can tell apart, listed so
that it is not mistaken for a gap in the tests, and never run.
tests/test_mutants.py checks in tier-1 that each old of either table still
occurs exactly once, so moving mutated code means updating these tables.

    python tests/mutants.py [--only ID]

copies the source tree to a temporary directory for one mutant at a time,
applies it, runs its killing tests and, if they pass, the whole suite with
-x, and prints killed or survived with the time taken.  The exit status is
0 when every mutant run is killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = (
    (
        "permutation_rows_unstable",
        "src/matchline/rng.py",
        'np.argsort(u64_rows(keys, m), axis=1, kind="stable")',
        'np.argsort(u64_rows(keys, m), axis=1, kind="quicksort")',
        ("tests/test_rng.py::test_permutation_rows_keep_index_order_on_ties",),
    ),
    (
        "random_free_key_without_free_count",
        "src/matchline/algorithms.py",
        "stream_key_rows(seeds, (_TAG_CHOICE,), counts)",
        "stream_key_rows(seeds, (), [_TAG_CHOICE] * len(counts))",
        ("tests/test_algorithms.py::test_random_free_reproducible",),
    ),
    (
        "theorem_numerator_floor_halved",
        "src/matchline/lemma_checks.py",
        "numerator_floor = float(round_floor(n) * i)",
        "numerator_floor = float(round_floor(n) * i / 2)",
        ("tests/test_acceptance.py::test_criterion_09_fails_on_a_third_of_the_online_totals",),
    ),
    (
        "config_lower_bounds_check_removed",
        "src/matchline/lemma_checks.py",
        "if bad := np.flatnonzero((steps <= 0).any(axis=1)).tolist():",
        "if bad := []:",
        (
            "tests/test_lemma_checks.py::test_config_lower_bounds_refuses_a_server_outside_1_to_n",
            "tests/test_lemma_checks.py::test_config_lower_bounds_refuses_a_row_not_strictly_increasing",
        ),
    ),
    (
        "round_range_widened",
        "src/matchline/adversary.py",
        "if not 1 <= r <= i:",
        "if not 1 <= r <= i + 1:",
        (
            "tests/test_lemma_checks.py::test_reachable_free_count",
            "tests/test_lemma_checks.py::test_round_config_validation",
            "tests/test_lemma_checks.py::test_config_lower_bounds_refuses_a_round_outside_1_to_i",
        ),
    ),
    (
        "free_mask_integer_check_removed",
        "src/matchline/lemma_checks.py",
        'if servers.ndim != 2 or (servers.size and servers.dtype.kind not in "iu"):',
        "if servers.ndim != 2:",
        ("tests/test_lemma_checks.py::test_both_configuration_checks_refuse_the_same_rows",),
    ),
    (
        "policy_name_check_skipped",
        "src/matchline/algorithms.py",
        "if kind not in ALGORITHM_KINDS:",
        "if False:",
        (
            "tests/test_algorithms.py::test_run_rejects_unknown_kind_and_bad_seed",
            "tests/test_experiments.py::test_config_validation",
            "tests/test_cli.py::test_bad_algorithm_exits_two",
        ),
    ),
    (
        "transcript_sampler_check_removed",
        "src/matchline/adversary.py",
        "if type(sampler) is not int or sampler != SAMPLER_VERSION:",
        "if False:",
        (
            "tests/test_adversary.py::test_jsonl_round_trip_bit_exact",
            "tests/test_adversary.py::test_jsonl_refuses_another_sampler",
        ),
    ),
    (
        "for_size_ignores_explicit_grid",
        "src/matchline/adversary.py",
        "default_grid_k(n) if grid_k is None else grid_k",
        "default_grid_k(n)",
        ("tests/test_experiments.py::test_config_validation",),
    ),
    (
        "suite_grid_check_admits_zero",
        "src/matchline/experiments.py",
        "if p.grid_k < 1:",
        "if p.grid_k < 0:",
        ("tests/test_experiments.py::test_config_validation",),
    ),
    (
        "oracle_grid_cap_dropped",
        "src/matchline/oracle.py",
        "else min(auto_grid_k(n, r), grid_k)",
        "else grid_k",
        ("tests/test_oracle.py::test_oracle_report_caps_the_auto_grid",),
    ),
    (
        # no oracle output changes, since every call oracle_report makes has
        # R - L even and the split only moves an exact tie; the direct test,
        # which puts servers at odd positions, tells it apart
        "last_cell_split_off_by_one",
        "src/matchline/oracle.py",
        "(gap >> 1) + 1",
        "(gap >> 1)",
        ("tests/test_oracle.py::test_last_cell_sum_matches_the_direct_minimum",),
    ),
    (
        # the piece right of every server counted at half: n = 7 rounds 1
        # and 2 fall below a segment bound and stay above the floor
        "last_cell_right_piece_halved",
        "src/matchline/oracle.py",
        "total += (b - a) * low.sum(axis=1) + prefixes * _span(a, b)",
        "total += ((b - a) * low.sum(axis=1) + prefixes * _span(a, b)) // 2",
        ("tests/test_oracle.py::test_oracle_report_n7_dominates_the_segment_bound",),
    ),
    (
        # every stacked total halved: n = 7 round 1 falls to 335/512, under
        # the floor 2/3
        "round_game_totals_halved",
        "src/matchline/oracle.py",
        "return _last_cell_sums(best, servers[:, q - 1 :], (q - 1) * pts, q * pts)",
        "return _last_cell_sums(best, servers[:, q - 1 :], (q - 1) * pts, q * pts) // 2",
        ("tests/test_oracle.py::test_oracle_report_n7_exceeds_the_round_floor",),
    ),
    (
        # a block's offline points sorted across its trials, not within each
        # one: a block of one trial and the 1-D form are unchanged, so a block
        # played against its trials alone tells it apart
        "block_offline_sorted_across_trials",
        "src/matchline/offline.py",
        "np.sort(np.asarray(point_nums, dtype=np.int64), axis=-1)",
        "np.sort(np.asarray(point_nums, dtype=np.int64), axis=0)",
        (
            "tests/test_algorithms.py::test_block_plays_like_its_trials_one_at_a_time",
            "tests/test_offline.py::test_row_wise_cost_matches_each_row_alone",
        ),
    ),
    (
        # the block's origin check reads its first row only
        "block_origin_check_first_row_only",
        "src/matchline/adversary.py",
        "off.reshape(-1, len(rnd)).any(axis=0)",
        "off.reshape(-1, len(rnd))[0]",
        (
            "tests/test_adversary.py::test_block_check_names_the_first_round_any_row_breaks",
            "tests/test_experiments.py::test_run_trials_checks_every_row_of_the_block",
        ),
    ),
    (
        # a window ending left of the one before takes a row for flat
        # where the row before it is not flat yet
        "batch_window_hi_no_running_max",
        "src/matchline/algorithms.py",
        "hi = np.clip(np.maximum.accumulate(right), 0, slack)",
        "hi = np.clip(right, 0, slack)",
        (
            "tests/test_algorithms.py::test_stacked_batch_matches_one_instance_dp",
            "tests/test_algorithms.py::test_batch_wide_windows_match_one_instance_dp",
        ),
    ),
    (
        # a row whose window starts right of the next row's start leaves
        # that row reading columns it never computed
        "batch_window_lo_no_suffix_min",
        "src/matchline/algorithms.py",
        "lo = np.clip(np.minimum.accumulate(left[::-1])[::-1], 0, slack)",
        "lo = np.clip(left, 0, slack)",
        (
            "tests/test_algorithms.py::test_stacked_batch_matches_one_instance_dp",
            "tests/test_algorithms.py::test_batch_wide_windows_match_one_instance_dp",
        ),
    ),
    (
        # a block past the table cap solved whole: the same results from T
        # tables at once
        "batch_table_cap_never_slices",
        "src/matchline/algorithms.py",
        "q * w * t * dtype.itemsize > _TABLE_BYTES)",
        "q * w * t * dtype.itemsize > _TABLE_BYTES << 30)",
        ("tests/test_algorithms.py::test_batch_block_past_the_table_cap_is_solved_in_slices",),
    ),
    (
        # a NaN or infinite ratio written as nan or inf, which no JSON reader takes
        "trial_line_non_finite_ratio_written",
        "src/matchline/experiments.py",
        "if st.ratio is not None and not math.isfinite(st.ratio):",
        "if False:",
        ("tests/test_experiments.py::test_trial_line_writes_what_json_dumps_writes",),
    ),
    (
        # each round's error taken down the trials: one value per trial
        "round_variance_wrong_axis",
        "src/matchline/lemma_checks.py",
        "xs.var(axis=1, ddof=1)",
        "xs.var(axis=0, ddof=1)",
        ("tests/test_lemma_checks.py::test_round_statistics_match_one_round_at_a_time",),
    ),
    (
        # a request whose two neighbours cost the same served from the right
        "permutation_block_tie_goes_right",
        "src/matchline/algorithms.py",
        "if d >= 0:",
        "if d > 0:",
        ("tests/test_algorithms.py::test_permutation_tie_goes_left",),
    ),
    (
        # a request past an empty gap inserted one place right of its own,
        # leaving seen unsorted for the blocks to come
        "permutation_empty_gap_insert_misplaced",
        "src/matchline/algorithms.py",
        "seen.insert(start, x)",
        "seen.insert(start + 1, x)",
        ("tests/test_algorithms.py::test_permutation_block_rule_matches_scan",),
    ),
)

EQUIVALENT = (
    (
        "permutation_rows_mergesort",
        "src/matchline/rng.py",
        'kind="stable"',
        'kind="mergesort"',
        "numpy maps kind='mergesort' and kind='stable' to the same stable sort",
    ),
)

TIER1 = ["--continue-on-collection-errors"]


def _pytest(tree: Path, args: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def run_mutant(row: tuple) -> str:
    """Apply one mutant to a copy of the tree; its verdict as one line."""
    mid, path, old, new, killers = row
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"{mid}: error, {path} holds {text.count(old)} copies of its old text"
        target.write_text(text.replace(old, new), encoding="utf-8")
        # pytest exits 1 when a test fails; any other code is a broken run
        code = _pytest(tree, list(killers))
        by = "its named tests"
        if code == 0:
            code, by = _pytest(tree, TIER1), "tier-1"
    seconds = time.perf_counter() - start
    verdict = {0: "survived", 1: f"killed by {by}"}.get(code, f"error, pytest exited {code} in {by}")
    return f"{mid}: {verdict} in {seconds:.1f} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutant register, one mutant at a time.")
    parser.add_argument("--only", choices=[row[0] for row in MUTANTS], help="run this mutant alone")
    args = parser.parse_args(argv)
    rows = [row for row in MUTANTS if args.only in (None, row[0])]
    lines = []
    for row in rows:
        lines.append(run_mutant(row))
        print(lines[-1], flush=True)
    killed = sum(": killed" in line for line in lines)
    print(f"register: {killed} killed, {len(lines) - killed} not killed")
    return 0 if killed == len(lines) else 1


if __name__ == "__main__":
    sys.exit(main())
