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

A task is (n, a contiguous block of trials): it samples and checks the
block's origins once, with one pass per round, and plays every configured
policy on the whole block (algorithms.play_block), so all policies of a
trial see the same requests.  workers counts the calling process: with N
workers it forks N - 1 children, at most tasks - 1; process w plays task w
first, then every process takes the next task not yet taken as it comes
free, and each child sends its results back once.  The parent builds the
reports before it joins the children, so their exit overlaps that work; on
an error it stops and joins them before raising.  Outputs are
byte-deterministic for a given configuration and seed: no trial's result
depends on its block or its process, results are regrouped by
(n, algorithm) in trial order, exact integer cost sums happen before any
float conversion, and neither the worker count nor the blocks appear in a
file.  Floats serialize via Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, Value
from pathlib import Path
from typing import Sequence

from matchline.adversary import (
    GenParams,
    ORDER_LEFT_TO_RIGHT,
    SAMPLER_VERSION,
    check_round_numerators,
    instance_seeds,
    origin_round_numerators,
)
from matchline.algorithms import ALGORITHM_KINDS, RunStats, check_play, play_block
from matchline.lemma_checks import (
    LemmaReport,
    empirical_report_from_stats,
    ratio_report_from_stats,
)
from matchline.rng import stream_key_rows

SCHEMA_VERSION = 2

# Cells one task may hold, about 50 MB of block state (see _block_size).
BLOCK_CELLS = 1 << 18

_TAG_ALG = "alg"

@dataclass(frozen=True)
class ExperimentConfig:
    """One suite: sizes x algorithms x trials, plus the worker count.

    prefix_rounds > 0 switches every run to advance-knowledge mode:
    that many leading rounds are served as one optimal batch and only the
    remaining rounds are played online.  Every suite judges the per-round
    floor, so the grid each n plays on, explicit or default, must be at
    least 1, and prefix_rounds must leave every n an online round.  Each
    n's GenParams and check_play judge the rest, so a bad seed, order or
    grid refuses the config before any trial runs.
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
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm in list")
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials for a standard error, got {self.trials}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for n in self.n_list:
            p = GenParams.for_size(n, self.grid_k, self.seed, self.request_order)
            check_play(self.algorithms, p.i, self.prefix_rounds)
            if p.grid_k < 1:
                raise ValueError(
                    f"grid_k must be at least 1, got {p.grid_k}: the per-round floor"
                    " needs a request grid strictly finer than the integers"
                )

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
    params = [
        GenParams.for_size(n, grid_k, s, request_order) for s in instance_seeds(root_seed, trials)
    ]
    # one pass per round and per policy: every params has the same i and grid_k
    rounds = origin_round_numerators(params[0].i, params[0].grid_k, [p.seed for p in params])
    check_round_numerators(params[0], rounds)
    seeds = [stream_key_rows([root_seed], (_TAG_ALG, kind), trials)[0].tolist() for kind in kinds]
    return play_block(params, rounds, kinds, seeds, prefix_rounds, trials)


def _block_task(args: tuple) -> list[RunStats]:
    return [st for runs in run_trials(*args) for st in runs]


def _play_tasks(tasks: list[tuple], first: int, next_task) -> list[tuple[int, list[RunStats]]]:
    """Play tasks[first], then take the lowest task index no process has
    taken from the shared counter next_task, until none is left; (index,
    results) of every task played."""
    played, i = [], first
    while i < len(tasks):
        played.append((i, _block_task(tasks[i])))
        with next_task.get_lock():
            i = next_task.value
            next_task.value = i + 1
    return played


def _play_share(tasks: list[tuple], first: int, next_task, conn) -> None:
    """A child's body: send what _play_tasks returns, or (the exception that
    stopped it, its traceback as text), then close conn."""
    try:
        msg = (_play_tasks(tasks, first, next_task), None)
    except Exception as exc:
        msg = (exc, traceback.format_exc())
    conn.send(msg)
    conn.close()


def _block_size(n: int, trials: int, workers: int) -> int:
    """Trials per task: an even share per worker, capped at BLOCK_CELLS cells,
    n + 1 per trial; a block holds about 175-195 bytes per server per trial."""
    return max(1, min(-(-trials // workers), BLOCK_CELLS // (n + 1)))


def _collect_stats(config: ExperimentConfig, children: list) -> dict[tuple[int, str], list[RunStats]]:
    """The runs by (n, algorithm); each child it forks goes into children, for the caller to reap."""
    opts = (config.seed, config.grid_k, config.request_order, config.prefix_rounds)
    tasks = []
    for n in config.n_list:
        size = _block_size(n, config.trials, config.workers)
        blocks = [range(t, min(t + size, config.trials)) for t in range(0, config.trials, size)]
        tasks += [(n, config.algorithms, block, *opts) for block in blocks]
    workers = min(config.workers, len(tasks))
    # process w plays task w first, so every child plays; then each process
    # takes the next task as it comes free, so uneven blocks even out
    next_task = Value("q", workers)
    for w in range(1, workers):
        recv, send = Pipe(duplex=False)
        child = Process(target=_play_share, args=(tasks, w, next_task, send))
        child.start()
        send.close()  # so a child that dies without sending reads as EOF
        children.append((child, recv))
    played = _play_tasks(tasks, 0, next_task)
    # a child blocked on send waits only for this loop: no cycle of waits
    for child, recv in children:
        try:
            payload, trace = recv.recv()
        except EOFError:
            child.join()
            raise RuntimeError(
                f"worker process exited with code {child.exitcode} before sending results"
            ) from None
        if trace is not None:
            raise payload from RuntimeError(f"in worker process:\n{trace}")
        played += payload
    stats: dict[tuple[int, str], list[RunStats]] = {
        (n, kind): [] for n in config.n_list for kind in config.algorithms
    }
    for _, runs in sorted(played):  # task order, whoever played them
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
    """Run the whole suite; write_outputs writes its files.  The children
    are joined only after the reports are built, so their exit overlaps that
    work; on an error, each one still running is stopped first."""
    children: list = []
    summary_rows: list[dict] = []
    round_rows: list[dict] = []
    reports: list[LemmaReport] = []
    try:
        stats = _collect_stats(config, children)
        for n in config.n_list:
            for kind in config.algorithms:
                runs = stats[(n, kind)]
                lemma2_rep = empirical_report_from_stats(runs, config.seed)
                ratio_rep = ratio_report_from_stats(runs, config.seed)
                reports.extend((lemma2_rep, ratio_rep))
                summary_rows.append(_pair_summary(runs, (lemma2_rep, ratio_rep), config))
                round_rows.extend(_pair_round_rows(lemma2_rep))
    except BaseException:
        for child, _ in children:  # stop a child before closing the pipe it may send on
            if child.is_alive():
                child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return SuiteResult(config, stats, summary_rows, round_rows, reports)


# json.dumps with arguments builds a new encoder per call; this one is shared
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _json_line(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """rows as CSV under a header of the first row's keys; every row has
    those keys in that order, since one function builds each file's rows."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row.values()])


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
    _write_csv(summary_path, result.summary_rows)

    rounds_path = out / "rounds.csv"
    _write_csv(rounds_path, result.round_rows)

    reports_path = write_reports(out, {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "reports": [rep.to_json_dict() for rep in result.reports],
    })
    return [trials_path, summary_path, rounds_path, reports_path]


def write_reports(out_dir: str | Path, payload: dict) -> Path:
    """Write payload as out_dir/reports.json, indented, with a final newline.
    It is serialized before the file is opened, so a failed dump writes nothing."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = Path(out_dir) / "reports.json"
    path.write_text(text, encoding="utf-8")
    return path
