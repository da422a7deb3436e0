"""The trial runner: trial fan-out, aggregation, CSV/JSONL emission.

run_suite is the runner behind matchline run, the one command that plays
policies.  A suite runs every (n, algorithm) pair over a block of trials
and attaches the per-round floor report and the aggregate ratio report to
each pair; write_outputs writes it as four files into an output directory:

  trials.jsonl   one record per trial, preceded by a header record that
                 names the schema and sampler versions
  summary.csv    one row per (n, algorithm)
  rounds.csv     one row per (n, algorithm, online round)
  reports.json   the checker reports plus the configuration

A task is (n, a contiguous block of trials): it generates each instance once
and plays every configured policy on the whole block, so all policies of a
trial see the same requests.  Outputs are byte-deterministic for a given
configuration and seed: no trial's result depends on its block, tasks fan
out to workers but are mapped in a fixed order and regrouped by
(n, algorithm) in trial order, exact integer cost sums happen before any
float conversion, and neither the worker count nor the blocks appear in a
file.  Floats serialize via Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from matchline.adversary import (
    GenParams,
    Instance,
    ORDER_LEFT_TO_RIGHT,
    REQUEST_ORDERS,
    SAMPLER_VERSION,
    default_grid_k,
    instance_seed,
    origin_round_numerators,
    rounds_for,
)
from matchline.algorithms import ALGORITHM_KINDS, RunStats, play
from matchline.lemma_checks import (
    LemmaReport,
    empirical_report_from_stats,
    ratio_report_from_stats,
)
from matchline.rng import stream_key

SCHEMA_VERSION = 2

# Bytes of batch-DP traceback table one task may hold (see _block_size).
BLOCK_TABLE_BYTES = 8 << 20

_TAG_ALG = "alg"

SUMMARY_COLUMNS = (
    "schema_version",
    "n",
    "algorithm",
    "trials",
    "grid_k",
    "request_order",
    "prefix_rounds",
    "mean_online",
    "se_online",
    "mean_offline",
    "se_offline",
    "aggregate_ratio",
    "ratio_bound",
    "lemma2_pass",
    "theorem_pass",
)

ROUNDS_COLUMNS = (
    "schema_version",
    "n",
    "algorithm",
    "round",
    "trials",
    "mean_cost",
    "se_cost",
    "floor",
    "pass",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One suite: sizes x algorithms x trials, plus the worker count.

    prefix_rounds > 0 switches every run to advance-knowledge mode:
    that many leading rounds are served as one optimal batch and only the
    remaining rounds are played online.  Every suite judges the per-round
    floor, so an explicit grid_k must be at least 1.
    """

    n_list: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHM_KINDS
    trials: int = 100
    seed: int = 0
    grid_k: int | None = None
    request_order: str = ORDER_LEFT_TO_RIGHT
    prefix_rounds: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError("duplicate n in list")
        for n in self.n_list:
            i = rounds_for(n)
            if self.prefix_rounds > i:
                raise ValueError(
                    f"prefix_rounds={self.prefix_rounds} exceeds the {i} rounds of n={n}"
                )
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        for kind in self.algorithms:
            if kind not in ALGORITHM_KINDS:
                raise ValueError(
                    f"unknown algorithm {kind!r}; choose from {', '.join(ALGORITHM_KINDS)}"
                )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm in list")
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials for a standard error, got {self.trials}")
        if self.grid_k is not None and self.grid_k < 1:
            raise ValueError(
                f"grid_k must be at least 1, got {self.grid_k}: the per-round floor"
                " needs a request grid strictly finer than the integers"
            )
        if self.request_order not in REQUEST_ORDERS:
            raise ValueError(f"unknown request order {self.request_order!r}")
        if self.prefix_rounds < 0:
            raise ValueError("prefix_rounds must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def to_json_dict(self) -> dict:
        # workers is an execution detail, not part of the result
        return {
            "n_list": list(self.n_list),
            "algorithms": list(self.algorithms),
            "trials": self.trials,
            "seed": self.seed,
            "grid_k": self.grid_k,
            "request_order": self.request_order,
            "prefix_rounds": self.prefix_rounds,
        }


@dataclass(frozen=True)
class SuiteResult:
    config: ExperimentConfig
    stats: dict[tuple[int, str], list[RunStats]]
    summary_rows: list[dict] = field(default_factory=list)
    round_rows: list[dict] = field(default_factory=list)
    reports: list[LemmaReport] = field(default_factory=list)


def run_trials(
    n: int,
    kinds: Sequence[str],
    trials: Sequence[int],
    root_seed: int,
    grid_k: int | None = None,
    request_order: str = ORDER_LEFT_TO_RIGHT,
    prefix_rounds: int = 0,
) -> list[list[RunStats]]:
    """A block of seeded trials of one size, each generated once and played
    by every policy in kinds; one list of RunStats per trial.

    Generation and policy seeds derive from (root_seed, trial), so trials
    are independent of their order and of the block they are played in.
    """
    i, k = rounds_for(n), default_grid_k(n) if grid_k is None else grid_k
    params = [GenParams(i, k, instance_seed(root_seed, t), request_order) for t in trials]
    rounds = origin_round_numerators(i, k, [p.seed for p in params])  # one pass per round
    instances = [Instance(p, tuple(nums[b] for nums in rounds)) for b, p in enumerate(params)]
    seeds = [[stream_key(root_seed, _TAG_ALG, kind, t) for kind in kinds] for t in trials]
    return play(instances, kinds, seeds, prefix_rounds, trials)


def _block_task(args: tuple) -> list[RunStats]:
    return [st for runs in run_trials(*args) for st in runs]


def _block_size(n: int, trials: int, workers: int) -> int:
    """Trials per task: an even share per worker, capped so the batch DP's
    traceback table, at most ((n+1)/2)^2 bools per trial (round 1, or a
    one-round prefix), stays within BLOCK_TABLE_BYTES."""
    return max(1, min(-(-trials // workers), BLOCK_TABLE_BYTES // ((n + 1) // 2) ** 2))


def _collect_stats(config: ExperimentConfig) -> dict[tuple[int, str], list[RunStats]]:
    opts = (config.seed, config.grid_k, config.request_order, config.prefix_rounds)
    tasks = []
    for n in config.n_list:
        size = _block_size(n, config.trials, config.workers)
        blocks = [range(t, min(t + size, config.trials)) for t in range(0, config.trials, size)]
        tasks += [(n, config.algorithms, block, *opts) for block in blocks]
    # the pool starts all its processes up front, so never more than there are tasks
    workers = min(config.workers, len(tasks))
    if workers == 1:
        results = [_block_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map preserves task order, so scheduling cannot reorder results
            results = list(pool.map(_block_task, tasks))
    stats: dict[tuple[int, str], list[RunStats]] = {
        (n, kind): [] for n in config.n_list for kind in config.algorithms
    }
    for runs in results:
        for st in runs:
            stats[(st.n, st.algorithm)].append(st)
    return stats


def _pair_summary(
    runs: list[RunStats], reports: tuple[LemmaReport, LemmaReport], config: ExperimentConfig
) -> dict:
    lemma2_rep, ratio_rep = reports
    first = runs[0]
    return {
        "schema_version": SCHEMA_VERSION,
        "n": first.n,
        "algorithm": first.algorithm,
        "trials": len(runs),
        "grid_k": first.grid_k,
        "request_order": config.request_order,
        "prefix_rounds": first.prefix_rounds,
        "mean_online": ratio_rep.details["mean_online"],
        "se_online": ratio_rep.details["se_online"],
        "mean_offline": ratio_rep.details["mean_offline"],
        "se_offline": ratio_rep.details["se_offline"],
        "aggregate_ratio": ratio_rep.observed,
        "ratio_bound": ratio_rep.bound,
        "lemma2_pass": lemma2_rep.passed,
        "theorem_pass": ratio_rep.passed,
    }


def _pair_round_rows(lemma2_rep: LemmaReport) -> list[dict]:
    rows = []
    for row in lemma2_rep.details["per_round"]:
        rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "n": lemma2_rep.n,
                "algorithm": lemma2_rep.details["algorithm"],
                "round": row["round"],
                "trials": lemma2_rep.trials,
                "mean_cost": row["mean"],
                "se_cost": row["se"],
                "floor": lemma2_rep.bound,
                "pass": row["pass"],
            }
        )
    return rows


def run_suite(config: ExperimentConfig) -> SuiteResult:
    """Run the whole suite; write_outputs writes its files."""
    stats = _collect_stats(config)
    summary_rows: list[dict] = []
    round_rows: list[dict] = []
    reports: list[LemmaReport] = []
    for n in config.n_list:
        for kind in config.algorithms:
            runs = stats[(n, kind)]
            lemma2_rep = empirical_report_from_stats(runs, config.seed)
            ratio_rep = ratio_report_from_stats(runs, config.seed)
            reports.extend((lemma2_rep, ratio_rep))
            summary_rows.append(_pair_summary(runs, (lemma2_rep, ratio_rep), config))
            round_rows.extend(_pair_round_rows(lemma2_rep))
    return SuiteResult(config, stats, summary_rows, round_rows, reports)


def _json_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])


def write_outputs(result: SuiteResult, out_dir: str | Path) -> list[Path]:
    """Write trials.jsonl, summary.csv, rounds.csv, reports.json; return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config

    trials_path = out / "trials.jsonl"
    with trials_path.open("w", encoding="utf-8") as fh:
        header = {
            "record": "header",
            "schema_version": SCHEMA_VERSION,
            "sampler": SAMPLER_VERSION,
            "config": config.to_json_dict(),
        }
        fh.write(_json_line(header))
        for n in config.n_list:
            for kind in config.algorithms:
                for st in result.stats[(n, kind)]:
                    rec = {"record": "trial"}
                    rec.update(st.to_json_dict())
                    fh.write(_json_line(rec))

    summary_path = out / "summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, result.summary_rows)

    rounds_path = out / "rounds.csv"
    _write_csv(rounds_path, ROUNDS_COLUMNS, result.round_rows)

    reports_path = write_reports(out, {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "reports": [rep.to_json_dict() for rep in result.reports],
    })
    return [trials_path, summary_path, rounds_path, reports_path]


def write_reports(out_dir: str | Path, payload: dict) -> Path:
    """Write payload as out_dir/reports.json, indented, with a final newline."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "reports.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path
