"""The trial runner: trial fan-out, aggregation, CSV/JSONL emission.

run_suite is the runner behind matchline run, the one command that plays
policies.  A suite runs every (n, algorithm) pair over a block of trials
and attaches the per-round floor report and the aggregate ratio report to
each pair; write_outputs writes it as four files into an output directory:

  trials.jsonl   a header record that names the schema and sampler
                 versions, then one record per trial, written by _trial_line
  summary.csv    one row per (n, algorithm)
  rounds.csv     one row per (n, algorithm, online round)
  reports.json   the checker reports plus the configuration

A block is (n, a contiguous run of trials): it samples and checks the
block's origins once, with one pass per round, and plays every configured
policy on the whole block (algorithms.play_block), so all policies of a
trial see the same requests.  workers counts the calling process: with
W = min(workers, trials) it forks W - 1 children, and process w, the parent
being 0, plays an even share of every n, trials T*w//W .. T*(w+1)//W - 1,
so each process plays at least one trial and shares differ by at most one.
Each child, forked by os.fork, pickles its results into its pipe once.  The
parent builds the reports before it reaps the children, so their exit overlaps
that work; on an error it stops and reaps them before raising.  Outputs are
byte-deterministic for a given configuration and seed: no trial's result
depends on its block or its process, results are regrouped by (n, algorithm)
in trial order, exact integer cost sums happen before any float conversion,
and neither the worker count nor the blocks appear in a file.  Floats
serialize via Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

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

# Cells one block may hold, about 50 MB of block state (see _block_size).
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
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ValueError(f"workers {self.workers} needs os.fork, which this platform lacks")
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
    summary_rows: list[dict]
    round_rows: list[dict]
    reports: list[LemmaReport]


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


def _block_size(n: int) -> int:
    """Trials per block: BLOCK_CELLS cells, n + 1 per trial, but at least one;
    a block holds about 175-195 bytes per server per trial."""
    return max(1, BLOCK_CELLS // (n + 1))


def _share(config: ExperimentConfig, w: int, workers: int) -> list[RunStats]:
    """The runs of process w of workers: trials T*w//workers .. T*(w+1)//workers - 1
    of every n, in n_list order, in blocks of at most _block_size(n) trials."""
    lo, hi = config.trials * w // workers, config.trials * (w + 1) // workers
    opts = (config.seed, config.grid_k, config.request_order, config.prefix_rounds)
    runs = []
    for n in config.n_list:
        size = _block_size(n)
        for t in range(lo, hi, size):
            for trial_runs in run_trials(n, config.algorithms, range(t, min(t + size, hi)), *opts):
                runs += trial_runs
    return runs


def _fork_share(config: ExperimentConfig, w: int, workers: int) -> tuple[int, BinaryIO]:
    """(pid, pipe read end) of a child that pickles into the pipe (share w's runs, None)
    or (its exception, or RuntimeError(repr(exc)) if that does not round-trip, its traceback
    text), then leaves by os._exit, code 1 on error: it never returns or flushes stdio."""
    reader, writer = map(open, os.pipe(), ("rb", "wb"))
    if pid := os.fork():
        writer.close()  # so a child that dies without sending reads as EOF
        return pid, reader
    code = 1
    try:
        reader.close()
        try:
            data = pickle.dumps((_share(config, w, workers), None))
        except Exception as exc:
            trace = traceback.format_exc()
            try:
                data = pickle.dumps((exc, trace))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((RuntimeError(repr(exc)), trace))
        with writer:
            writer.write(data)
        code = 0
    finally:
        os._exit(code)


def _collect_stats(config: ExperimentConfig, children: list) -> dict[tuple[int, str], list[RunStats]]:
    """The runs by (n, algorithm); each child it forks goes into children, for
    the caller to reap.  Process w plays share w of workers (see _share)."""
    workers = min(config.workers, config.trials)
    for w in range(1, workers):
        children.append(_fork_share(config, w, workers))
    runs = _share(config, 0, workers)
    # a child blocked on its write waits only for this loop: no cycle of waits
    for child in children:
        with child[1] as fh:
            data = fh.read()
        if not data:
            children.remove(child)  # reaped here, for its exit code
            code = os.waitstatus_to_exitcode(os.waitpid(child[0], 0)[1])
            raise RuntimeError(f"worker process exited with code {code} before sending results")
        payload, trace = pickle.loads(data)
        if trace is not None:
            raise payload from RuntimeError(f"in worker process:\n{trace}")
        runs += payload
    stats: dict[tuple[int, str], list[RunStats]] = {
        (n, kind): [] for n in config.n_list for kind in config.algorithms
    }
    for st in runs:  # shares in process order: trial order within each (n, algorithm)
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
    return [
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
        for row in lemma2_rep.details["per_round"]
    ]


def run_suite(config: ExperimentConfig) -> SuiteResult:
    """Run the whole suite; write_outputs writes its files.  The children
    are reaped only after the reports are built, so their exit overlaps that
    work; on an error, each one not yet reaped gets SIGTERM first."""
    children: list = []  # (pid, read end) of each child not yet reaped
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
        for pid, _ in children:  # stop a child before closing the pipe it may write to
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    return SuiteResult(config, stats, summary_rows, round_rows, reports)


# json.dumps with arguments builds a new encoder per call; this one is shared
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _json_line(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"


def _trial_line(st: RunStats) -> str:
    """st as one trial record: the shared encoder's bytes, costs as {"num", "k"}
    pairs.  The algorithm needs no escaping: check_play admits only ALGORITHM_KINDS."""
    k, trial = st.grid_k, "null" if st.trial is None else st.trial
    if st.ratio is not None and not math.isfinite(st.ratio):
        raise ValueError(f"trial {st.trial}: ratio {st.ratio} is not JSON compliant")
    ratio = "null" if st.ratio is None else float.__repr__(st.ratio)
    costs = ",".join([f'{{"num":{c},"k":{k}}}' for c in st.round_costs])
    return (
        f'{{"record":"trial","n":{st.n},"algorithm":"{st.algorithm}","trial":{trial},'
        f'"instance_seed":{st.instance_seed},"grid_k":{k},"prefix_rounds":{st.prefix_rounds},'
        f'"prefix_cost":{{"num":{st.prefix_cost},"k":{k}}},"round_costs":[{costs}],'
        f'"online_total":{{"num":{st.online_total},"k":{k}}},'
        f'"offline_total":{{"num":{st.offline_total},"k":{k}}},"ratio":{ratio}}}\n'
    )


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
                fh.write("".join(map(_trial_line, result.stats[(n, kind)])))

    summary_path, rounds_path = out / "summary.csv", out / "rounds.csv"
    _write_csv(summary_path, result.summary_rows)
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
