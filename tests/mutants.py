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
        "stream_key(seed, _TAG_CHOICE, m)",
        "stream_key(seed, _TAG_CHOICE)",
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
        "(right[j] - left) // 2 + 1",
        "(right[j] - left) // 2",
        ("tests/test_oracle.py::test_last_cell_sum_matches_the_direct_minimum",),
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
