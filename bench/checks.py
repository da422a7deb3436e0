"""Output checks for the benchmark workloads, run outside the timed region.

Each check reads what one CLI invocation wrote into its --out directory and
returns a list of problems (empty when the output is right).  Beyond shape
and row counts, trial records are re-derived independently: the instance is
rebuilt from the record's seed with ``adversary.generate`` and its offline
optimum recomputed with ``offline.sorted_matching_cost``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

# trial records per invocation whose offline total is recomputed from scratch
OFFLINE_SAMPLES = 3


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file below out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _reports(out_dir: Path, count: int, problems: list[str]) -> list[dict]:
    reports = json.loads((out_dir / "reports.json").read_text(encoding="utf-8"))["reports"]
    if len(reports) != count:
        problems.append(f"reports.json holds {len(reports)} reports, expected {count}")
    failed = [r["lemma_id"] for r in reports if r["pass"] is not True]
    if failed:
        problems.append(f"reports not passing: {failed}")
    return reports


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _coord_num(obj: dict, k: int) -> int:
    if obj["k"] > k:
        raise ValueError(f"cost at scale {obj['k']} finer than grid {k}")
    return obj["num"] << (k - obj["k"])


def check_run(argv: list[str], out_dir: Path, seed: int) -> list[str]:
    """`matchline run`: four files, row counts, exact trial arithmetic, and a
    sample of offline totals recomputed from the instance seeds."""
    from matchline.adversary import GenParams, generate, rounds_for
    from matchline.algorithms import ALGORITHM_KINDS
    from matchline.offline import sorted_matching_cost

    problems: list[str] = []
    n_list = [int(v) for v in option(argv, "--n").split(",")]
    algs = option(argv, "--alg", ",".join(ALGORITHM_KINDS)).split(",")
    trials = int(option(argv, "--trials"))
    order = option(argv, "--order", "left_to_right")
    pairs = len(n_list) * len(algs)

    lines = (out_dir / "trials.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    header, trial_recs = records[0], records[1:]
    if header.get("record") != "header" or header["config"]["request_order"] != order:
        problems.append("trials.jsonl header does not match the invocation")
    if len(trial_recs) != pairs * trials:
        problems.append(f"trials.jsonl holds {len(trial_recs)} trials, expected {pairs * trials}")
    summary = _csv_rows(out_dir / "summary.csv")
    if len(summary) != pairs:
        problems.append(f"summary.csv holds {len(summary)} rows, expected {pairs}")
    rounds = _csv_rows(out_dir / "rounds.csv")
    expected_rounds = sum(len(algs) * rounds_for(n) for n in n_list)
    if len(rounds) != expected_rounds:
        problems.append(f"rounds.csv holds {len(rounds)} rows, expected {expected_rounds}")
    _reports(out_dir, 2 * pairs, problems)

    for rec in trial_recs:
        k = rec["grid_k"]
        online = _coord_num(rec["online_total"], k)
        parts = _coord_num(rec["prefix_cost"], k) + sum(
            _coord_num(c, k) for c in rec["round_costs"]
        )
        offline = _coord_num(rec["offline_total"], k)
        if online != parts or online < offline:
            problems.append(f"trial {rec['trial']} ({rec['algorithm']}): inconsistent totals")
            break

    picks = random.Random(seed).sample(trial_recs, min(OFFLINE_SAMPLES, len(trial_recs)))
    for rec in picks:
        params = GenParams(
            i=rounds_for(rec["n"]),
            grid_k=rec["grid_k"],
            seed=rec["instance_seed"],
            request_order=order,
        )
        inst = generate(params)
        want = sorted_matching_cost(inst.servers, inst.all_requests()).total_cost
        if want.at_scale(rec["grid_k"]) != _coord_num(rec["offline_total"], rec["grid_k"]):
            problems.append(f"trial {rec['trial']} ({rec['algorithm']}): offline total differs")
    return problems


def check_lemma1(out_dir: Path) -> list[str]:
    """`matchline lemma1`: the exact report's maximum variance, recomputed.

    Only the cell of round r that contains ell is split by it, with
    c = ell mod 2^r grid units on its left, so Var[g_ell] is the sum over r
    of c (2^r - c) / 4^r.
    """
    problems: list[str] = []
    reports = _reports(out_dir, 2, problems)
    exact = next((r for r in reports if r["lemma_id"] == "lemma1_exact"), None)
    if exact is None:
        return problems + ["no lemma1_exact report"]
    n = exact["n"]
    i = (n + 1).bit_length() - 1
    best, best_ell = Fraction(-1), 0
    for ell in range(1, n + 1):
        var = sum(
            Fraction((ell % (1 << r)) * ((1 << r) - ell % (1 << r)), 1 << (2 * r))
            for r in range(1, i + 1)
        )
        if var > best:
            best, best_ell = var, ell
    got = exact["details"]
    if got["max_variance"] != f"{best.numerator}/{best.denominator}" or got["argmax_ell"] != best_ell:
        problems.append(
            f"lemma1_exact max variance {got['max_variance']} at ell={got['argmax_ell']},"
            f" recomputed {best} at ell={best_ell}"
        )
    return problems


def check_lemma2(argv: list[str], out_dir: Path) -> list[str]:
    """`matchline lemma2` without --alg: one configuration report per round."""
    problems: list[str] = []
    n = int(option(argv, "--n"))
    i = (n + 1).bit_length() - 1
    reports = _reports(out_dir, i, problems)
    rounds = [r["details"].get("r") for r in reports]
    if rounds != list(range(1, i + 1)):
        problems.append(f"lemma2 rounds {rounds} != 1..{i}")
    return problems


def check_oracle(argv: list[str], out_dir: Path) -> list[str]:
    """`matchline oracle`: one exact round-game report per round."""
    problems: list[str] = []
    n = int(option(argv, "--n"))
    i = (n + 1).bit_length() - 1
    reports = _reports(out_dir, i, problems)
    if any(r["lemma_id"] != "oracle_round_game" for r in reports):
        problems.append("unexpected oracle report id")
    return problems
