"""Suite runner: output files, determinism, prefix mode, aggregation."""

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from matchline import experiments
from matchline.adversary import instance_seed
from matchline.algorithms import RunStats
from matchline.experiments import (
    ExperimentConfig,
    ROUNDS_COLUMNS,
    SUMMARY_COLUMNS,
    run_suite,
    write_outputs,
)
from matchline.lemma_checks import ratio_report_from_stats

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_suite"

# each golden suite directory under DATA and the configuration that writes
# it; regen_goldens.py reads this table too
GOLDEN_SUITES = {
    "golden_suite": dict(n_list=(3,), trials=3, seed=7),
    # n = 255 reaches the vectorized kernels that n = 3 never does
    "golden_suite_n255_shuffled": dict(
        n_list=(7, 255), trials=2, seed=7, request_order="shuffled"
    ),
    "golden_suite_n255_prefix3": dict(n_list=(255,), trials=2, seed=7, prefix_rounds=3),
}


def test_config_validation():
    ExperimentConfig(n_list=(3,), trials=2)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(4,), trials=2)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(3,), trials=1)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(3,), trials=2, algorithms=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(
            n_list=(3,), trials=2,
            algorithms=("greedy_nearest", "greedy_nearest"),
        )
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(3,), trials=2, prefix_rounds=3)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(3,), trials=2, workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(3,), trials=2, request_order="sideways")
    # a repeated size would run each of its (n, trial) tasks twice
    with pytest.raises(ValueError, match="duplicate n"):
        ExperimentConfig(n_list=(7, 3, 7), trials=2)
    # the per-round floor is false on the integer grid (see
    # test_integer_grid_breaks_the_round_floor)
    ExperimentConfig(n_list=(7,), trials=2, grid_k=1)
    for grid_k in (0, -1):
        with pytest.raises(ValueError, match="strictly finer than the integers"):
            ExperimentConfig(n_list=(7,), trials=2, grid_k=grid_k)


def test_config_json_omits_local_machine_fields():
    cfg = ExperimentConfig(n_list=(3,), trials=2, workers=4)
    d = cfg.to_json_dict()
    assert "workers" not in d
    assert d["n_list"] == [3]


def test_suite_result_shapes():
    cfg = ExperimentConfig(
        n_list=(3, 7), algorithms=("greedy_nearest", "random_free"),
        trials=2, seed=0,
    )
    res = run_suite(cfg)
    assert set(res.stats) == {
        (3, "greedy_nearest"), (3, "random_free"),
        (7, "greedy_nearest"), (7, "random_free"),
    }
    assert len(res.summary_rows) == 4
    # two rounds at n=3, three at n=7, per algorithm
    assert len(res.round_rows) == (2 + 3) * 2
    assert len(res.reports) == 8
    for (n, kind), runs in res.stats.items():
        assert [st.trial for st in runs] == [0, 1]
        assert all(st.n == n and st.algorithm == kind for st in runs)


def test_golden_output_bytes(tmp_path):
    res = run_suite(ExperimentConfig(**GOLDEN_SUITES["golden_suite"]))
    paths = write_outputs(res, str(tmp_path))
    assert [p.name for p in paths] == [
        "trials.jsonl", "summary.csv", "rounds.csv", "reports.json",
    ]
    for p in paths:
        assert p.read_bytes() == (GOLDEN / p.name).read_bytes(), p.name


@pytest.mark.parametrize("name, kw", list(GOLDEN_SUITES.items())[1:])
def test_golden_n255_output_bytes(tmp_path, name, kw):
    paths = write_outputs(run_suite(ExperimentConfig(**kw)), str(tmp_path))
    for p in paths:
        assert p.read_bytes() == (DATA / name / p.name).read_bytes(), p.name


def test_suite_files_agree_on_one_mean_and_one_cap(tmp_path):
    # summary.csv's means are its theorem report's, every rounds.csv mean is
    # the exact mean of its trials, and every theorem report carries the one
    # offline cap n (sqrt(i) + 3) + n/2^grid_k and its verdict
    cfg = ExperimentConfig(**GOLDEN_SUITES["golden_suite_n255_shuffled"])
    res = run_suite(cfg)
    write_outputs(res, tmp_path)
    reports = json.loads((tmp_path / "reports.json").read_text(encoding="utf-8"))["reports"]
    theorem = {
        (rep["n"], rep["details"]["algorithm"]): rep["details"]
        for rep in reports
        if rep["lemma_id"] == "theorem_ratio"
    }
    with (tmp_path / "summary.csv").open(encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == len(theorem) == 8
    for row in summary:
        n, kind, k = int(row["n"]), row["algorithm"], int(row["grid_k"])
        details = theorem[(n, kind)]
        for key in ("mean_online", "mean_offline"):
            assert float(row[key]) == details[key], (n, kind, key)
        i = (n + 1).bit_length() - 1
        assert details["denominator_cap"] == n * (math.sqrt(i) + 3.0) + n / 2.0**k
        cap_at_3se = details["denominator_cap"] + 3.0 * details["se_offline"]
        assert details["denominator_pass"] == (details["mean_offline"] <= cap_at_3se)

    costs: dict[tuple, list[Fraction]] = {}  # (n, algorithm, round) -> costs
    for line in (tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()[1:]:
        rec = json.loads(line)
        for r, cost in enumerate(rec["round_costs"], rec["prefix_rounds"] + 1):
            key = (rec["n"], rec["algorithm"], r)
            costs.setdefault(key, []).append(Fraction(cost["num"], 1 << cost["k"]))
    with (tmp_path / "rounds.csv").open(encoding="utf-8") as fh:
        rounds = list(csv.DictReader(fh))
    assert len(rounds) == len(costs) == 4 * (3 + 8)
    for row in rounds:
        values = costs[(int(row["n"]), row["algorithm"], int(row["round"]))]
        assert float(row["mean_cost"]) == float(sum(values) / len(values)), row


class _RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its size and the
    (n, trials) block of every task it maps."""

    sizes: list[int] = []
    blocks: list[tuple[int, list[int]]] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.blocks.extend((task[0], list(task[2])) for task in tasks)
        return map(fn, tasks)


def test_pool_never_larger_than_task_count(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "blocks", [])
    kw = dict(n_list=(3, 7), trials=2, seed=5)  # four (n, one-trial block) tasks
    ref = write_outputs(run_suite(ExperimentConfig(**kw)), str(tmp_path / "w1"))
    for workers in (5000, 4, 3):
        out = write_outputs(
            run_suite(ExperimentConfig(workers=workers, **kw)), str(tmp_path / f"w{workers}")
        )
        for pa, pb in zip(ref, out):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
    assert _RecordingPool.sizes == [4, 4, 3]
    assert _RecordingPool.blocks == [(3, [0]), (3, [1]), (7, [0]), (7, [1])] * 3
    run_suite(ExperimentConfig(n_list=(3,), trials=2, workers=5000))
    assert _RecordingPool.sizes == [4, 4, 3, 2]
    # an even share per worker: 5 trials on 2 workers are blocks of 3 and 2
    _RecordingPool.blocks.clear()
    run_suite(ExperimentConfig(n_list=(3, 7), trials=5, workers=2))
    assert _RecordingPool.sizes[-1] == 2
    assert _RecordingPool.blocks == [
        (3, [0, 1, 2]), (3, [3, 4]), (7, [0, 1, 2]), (7, [3, 4])
    ]


def test_block_size_share_and_table_budget():
    # an even share per worker, capped by BLOCK_TABLE_BYTES over ((n + 1)/2)^2
    assert experiments.BLOCK_TABLE_BYTES == 8 << 20
    assert experiments._block_size(255, 32, 2) == 16
    assert experiments._block_size(255, 500, 1) == 500
    assert experiments._block_size(255, 1000, 1) == 512
    assert experiments._block_size(1023, 500, 2) == 32
    assert experiments._block_size(4095, 500, 1) == 2
    assert experiments._block_size(8191, 500, 1) == 1  # one table past the budget
    assert experiments._block_size(7, 5, 5000) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_block_partition_invariance(monkeypatch, tmp_path, workers):
    # default blocks against blocks of one trial: the same four files
    kw = dict(
        n_list=(7, 63), trials=5, seed=11, request_order="shuffled",
        prefix_rounds=2, workers=workers,
    )
    assert experiments._block_size(63, 5, workers) > 1
    default = write_outputs(run_suite(ExperimentConfig(**kw)), str(tmp_path / "default"))
    monkeypatch.setattr(experiments, "BLOCK_TABLE_BYTES", 0)
    assert experiments._block_size(63, 5, workers) == 1
    single = write_outputs(run_suite(ExperimentConfig(**kw)), str(tmp_path / "single"))
    for pa, pb in zip(default, single):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def _flat_run(trial, total_num):
    # n = 3 at grid_k 1 whose online total equals its offline total
    return RunStats(
        n=3, algorithm="greedy_nearest", instance_seed=0, grid_k=1, trial=trial,
        prefix_rounds=0, prefix_cost=0, round_costs=(0, total_num),
        online_total=total_num, offline_total=total_num, ratio=1.0,
    )


@pytest.mark.parametrize("total_num, failing", [(1, "numerator_pass"), (40, "denominator_pass")])
def test_theorem_gate_fails_with_either_inequality(monkeypatch, tmp_path, total_num, failing):
    # ratio 1 always clears sqrt(2)/12; online 1/2 is below the floor 2/3,
    # and offline 20 is above the cap 3 (sqrt(2) + 3) + 3/2 = 14.74 while
    # online 20 clears the floor
    runs = [_flat_run(t, total_num) for t in range(4)]
    rep = ratio_report_from_stats(runs, 0)
    assert rep.observed == 1.0 > rep.bound
    assert not rep.details[failing] and not rep.passed
    monkeypatch.setattr(
        experiments,
        "run_trials",
        lambda n, kinds, trials, *rest: [[_flat_run(t, total_num)] for t in trials],
    )
    res = run_suite(ExperimentConfig(n_list=(3,), algorithms=("greedy_nearest",), trials=4))
    assert not res.reports[1].passed
    write_outputs(res, tmp_path)
    with (tmp_path / "summary.csv").open(encoding="utf-8") as fh:
        assert next(csv.DictReader(fh))["theorem_pass"] == "false"


def test_worker_count_invariance(tmp_path):
    kw = dict(n_list=(3, 7), trials=6, seed=5)
    a = write_outputs(run_suite(ExperimentConfig(workers=1, **kw)), str(tmp_path / "w1"))
    b = write_outputs(run_suite(ExperimentConfig(workers=2, **kw)), str(tmp_path / "w2"))
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_trials_header_and_counts(tmp_path):
    cfg = ExperimentConfig(n_list=(3,), algorithms=("greedy_nearest",), trials=4, seed=9)
    write_outputs(run_suite(cfg), str(tmp_path))
    lines = (tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["schema_version"] == 2
    assert header["sampler"] == 2
    assert header["config"] == cfg.to_json_dict()
    trials = [json.loads(line) for line in lines[1:]]
    assert len(trials) == 4
    assert all(rec["record"] == "trial" for rec in trials)


def test_summary_recomputable_from_trials(tmp_path):
    cfg = ExperimentConfig(n_list=(7,), algorithms=("greedy_nearest",), trials=5, seed=3)
    res = run_suite(cfg)
    write_outputs(res, str(tmp_path))
    lines = (tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()
    recs = [json.loads(line) for line in lines[1:]]
    ks = {rec["online_total"]["k"] for rec in recs}
    assert len(ks) == 1
    k = ks.pop()
    sum_on = sum(rec["online_total"]["num"] for rec in recs)
    sum_off = sum(rec["offline_total"]["num"] for rec in recs)
    row = res.summary_rows[0]
    assert row["mean_online"] == float(Fraction(sum_on, 5 << k))
    assert row["mean_offline"] == float(Fraction(sum_off, 5 << k))
    assert row["aggregate_ratio"] == float(Fraction(sum_on, sum_off))
    # per-round mean: the exact mean of the same numerators
    col = [rec["round_costs"][0]["num"] for rec in recs]
    assert res.round_rows[0]["mean_cost"] == float(Fraction(sum(col), 5 << k))


def test_csv_headers_and_bools(tmp_path):
    res = run_suite(ExperimentConfig(n_list=(3,), algorithms=("greedy_nearest",), trials=2))
    write_outputs(res, str(tmp_path))
    summary = (tmp_path / "summary.csv").read_text(encoding="utf-8")
    rounds = (tmp_path / "rounds.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[0] == ",".join(SUMMARY_COLUMNS)
    assert rounds.splitlines()[0] == ",".join(ROUNDS_COLUMNS)
    assert ",true" in summary and "True" not in summary


def test_runs_draw_instances_by_the_one_seed_rule():
    cfg = ExperimentConfig(
        n_list=(7,), algorithms=("greedy_nearest", "random_free"), trials=3, seed=11
    )
    for runs in run_suite(cfg).stats.values():
        assert [st.instance_seed for st in runs] == [instance_seed(11, t) for t in range(3)]


def test_run_trials_checks_every_row_of_the_block(monkeypatch):
    sample = experiments.origin_round_numerators

    def one_origin_off(i, grid_k, seeds):
        rounds = sample(i, grid_k, seeds)
        rounds[1][3, 0] = rounds[1][3, 1]  # row 3, round 2: cell 0 given cell 1's origin
        return rounds

    monkeypatch.setattr(experiments, "origin_round_numerators", one_origin_off)
    with pytest.raises(ValueError, match="round 2: origin off its cell"):
        experiments.run_trials(7, ("greedy_nearest",), range(5), 3)


def test_rerun_identical_reports():
    cfg = ExperimentConfig(n_list=(7,), algorithms=("permutation",), trials=3, seed=42)
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.summary_rows == b.summary_rows
    assert [r.to_json_dict() for r in a.reports] == [r.to_json_dict() for r in b.reports]


def test_prefix_all_rounds_vacuous():
    cfg = ExperimentConfig(
        n_list=(3,), algorithms=("greedy_nearest",), trials=4, seed=2,
        prefix_rounds=2,
    )
    res = run_suite(cfg)
    assert res.round_rows == []
    emp = [r for r in res.reports if r.lemma_id == "lemma2_empirical"][0]
    assert emp.passed
    assert emp.details["rounds_checked"] == 0
    row = res.summary_rows[0]
    assert row["mean_online"] == row["mean_offline"]
    assert row["aggregate_ratio"] == 1.0


def test_prefix_suffix_rounds_keep_floor():
    # four rounds handed to the policy as a free batch; the rest still pay
    cfg = ExperimentConfig(
        n_list=(255,), algorithms=("greedy_nearest",), trials=150, seed=1,
        prefix_rounds=4,
    )
    res = run_suite(cfg)
    emp = [r for r in res.reports if r.lemma_id == "lemma2_empirical"][0]
    per_round = emp.details["per_round"]
    assert [row["round"] for row in per_round] == [5, 6, 7, 8]
    floor = 256 / 12.0
    for row in per_round:
        assert row["mean"] >= floor - 3.0 * row["se"]
    assert emp.passed


def test_prefix_zero_matches_plain_run():
    kw = dict(n_list=(7,), algorithms=("batch_round_optimal",), trials=4, seed=6)
    plain = run_suite(ExperimentConfig(**kw))
    pfx = run_suite(ExperimentConfig(prefix_rounds=0, **kw))
    assert plain.summary_rows == pfx.summary_rows
    assert plain.round_rows == pfx.round_rows
