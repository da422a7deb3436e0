"""Suite runner: output files, determinism, prefix mode, aggregation."""

import csv
import json
import math
import multiprocessing
import os
import pickle
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from matchline import experiments
from matchline.algorithms import RunStats, cost_ratio
from matchline.experiments import ExperimentConfig, run_suite, write_outputs
from matchline.lemma_checks import ratio_report_from_stats, render_reports
from matchline.rng import stream_key

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
    with pytest.raises(ValueError, match="strictly finer than the integers"):
        ExperimentConfig(n_list=(7,), trials=2, grid_k=0)
    # the rule judges the grid a size plays on, so the default grid 0 of
    # n = 2^30 - 1 is refused as an explicit 0 is
    with pytest.raises(ValueError, match="grid_k must be at least 1, got 0"):
        ExperimentConfig(n_list=((1 << 30) - 1,), trials=2)
    with pytest.raises(ValueError, match="grid_k must be non-negative, got -1"):
        ExperimentConfig(n_list=(7,), trials=2, grid_k=-1)
    with pytest.raises(ValueError, match="n_list must not be empty"):
        ExperimentConfig(n_list=(), trials=2)
    with pytest.raises(ValueError, match="algorithms must not be empty"):
        ExperimentConfig(n_list=(3,), trials=2, algorithms=())
    with pytest.raises(ValueError, match=r"prefix_rounds must be in 0\.\.1, got -1"):
        ExperimentConfig(n_list=(3,), trials=2, prefix_rounds=-1)
    # GenParams' seed and width rules refuse the config before any trial runs
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must be a 64-bit value"):
            ExperimentConfig(n_list=(3,), trials=2, seed=seed)
    with pytest.raises(ValueError, match="exceeds 61"):
        ExperimentConfig(n_list=(1023,), trials=2, grid_k=45)
    ExperimentConfig(n_list=(1023,), trials=2, grid_k=40)


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


class _SerialChild:
    """Serial stand-in for multiprocessing.Process: start() plays the child's
    share on the spot.  plays gets one (process, n, trials) entry per block
    played, process 0 being the parent and c the c-th child of its run."""

    started = 0  # children started in the current run
    playing = 0
    plays: list[tuple[int, int, list[int]]] = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        _SerialChild.started += 1
        _SerialChild.playing = _SerialChild.started
        try:
            self.target(*self.args)
        finally:
            _SerialChild.playing = 0

    def is_alive(self):
        return False

    def join(self):
        pass


class _Slot:
    """In-memory stand-in for both ends of a one-way Pipe, so a serial child's
    send never waits on a reader: send pickles into the slot, recv unpickles."""

    def __init__(self):
        self.items = []

    def send(self, obj):
        self.items.append(pickle.dumps(obj))

    def recv(self):
        if not self.items:
            raise EOFError
        return pickle.loads(self.items.pop(0))

    def close(self):
        pass


def _pipe(duplex=True):
    slot = _Slot()
    return slot, slot


def _record_fan_out(monkeypatch):
    block_task = experiments._block_task

    def recording(task):
        _SerialChild.plays.append((_SerialChild.playing, task[0], list(task[2])))
        return block_task(task)

    monkeypatch.setattr(experiments, "Process", _SerialChild)
    monkeypatch.setattr(experiments, "Pipe", _pipe)
    monkeypatch.setattr(experiments, "_block_task", recording)
    monkeypatch.setattr(_SerialChild, "started", 0)
    monkeypatch.setattr(_SerialChild, "plays", [])


def _fan_out(config):
    """(result, children started, blocks played in order) of run_suite(config)."""
    _SerialChild.started = 0
    _SerialChild.plays.clear()
    result = run_suite(config)
    return result, _SerialChild.started, list(_SerialChild.plays)


def test_pool_never_larger_than_task_count(monkeypatch, tmp_path):
    _record_fan_out(monkeypatch)
    kw = dict(n_list=(3, 7), trials=2, seed=5)  # four (n, one-trial block) tasks
    ref = write_outputs(run_suite(ExperimentConfig(**kw)), str(tmp_path / "w1"))
    blocks = [(3, [0]), (3, [1]), (7, [0]), (7, [1])]
    for workers, children in ((5000, 3), (4, 3), (3, 2)):
        result, started, plays = _fan_out(ExperimentConfig(workers=workers, **kw))
        out = write_outputs(result, str(tmp_path / f"w{workers}"))
        for pa, pb in zip(ref, out):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
        assert started == children
        # every block is played once, and process w plays task w first
        assert sorted(p[1:] for p in plays) == blocks
        assert all((w, *blocks[w]) in plays for w in range(children + 1))
    assert _fan_out(ExperimentConfig(n_list=(3,), trials=2, workers=5000))[1] == 1
    # an even share per worker: 5 trials on 2 workers are blocks of 3 and 2,
    # and the parent plays task 0
    _, started, plays = _fan_out(ExperimentConfig(n_list=(3, 7), trials=5, workers=2))
    assert started == 1
    assert sorted(p[1:] for p in plays) == [(3, [0, 1, 2]), (3, [3, 4]), (7, [0, 1, 2]), (7, [3, 4])]
    assert (0, 3, [0, 1, 2]) in plays


def test_play_tasks_takes_the_next_free_task(monkeypatch):
    # process 1 plays task 1, then takes tasks from the shared counter; while
    # it plays task 3, another process takes task 4
    next_task = multiprocessing.Value("q", 3)

    def block_task(task):
        if task == "t3":
            next_task.value += 1
        return [task]

    monkeypatch.setattr(experiments, "_block_task", block_task)
    tasks = [f"t{i}" for i in range(6)]
    played = experiments._play_tasks(tasks, 1, next_task)
    assert played == [(1, ["t1"]), (3, ["t3"]), (5, ["t5"])]
    assert next_task.value == 7


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="children must inherit the patched _block_task",
)


def _fail_in_block(monkeypatch, first_trial, fault):
    """Patch _block_task to call fault() on the block starting at first_trial."""
    block_task = experiments._block_task

    def faulty(task):
        if task[2][0] == first_trial:
            fault()
        return block_task(task)

    monkeypatch.setattr(experiments, "_block_task", faulty)


def _raise_value_error():
    raise ValueError("no such block")


# n = 3 and 6 trials at 3 workers: blocks [0, 1], [2, 3], [4, 5], three
# tasks, so process w plays task w and none is left to take
_FAN_OUT = ExperimentConfig(n_list=(3,), trials=6, workers=3)


@fork_only
def test_child_error_reaches_the_caller(monkeypatch):
    _fail_in_block(monkeypatch, 2, _raise_value_error)
    with pytest.raises(ValueError, match="no such block") as info:
        run_suite(_FAN_OUT)
    assert "in _raise_value_error" in str(info.value.__cause__)  # the child's traceback
    assert multiprocessing.active_children() == []


@fork_only
def test_parent_error_leaves_no_child(monkeypatch):
    _fail_in_block(monkeypatch, 0, _raise_value_error)
    with pytest.raises(ValueError, match="no such block"):
        run_suite(_FAN_OUT)
    assert multiprocessing.active_children() == []


@fork_only
def test_child_that_dies_silently_names_its_exit_code(monkeypatch):
    _fail_in_block(monkeypatch, 4, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="code 3"):
        run_suite(_FAN_OUT)
    assert multiprocessing.active_children() == []


@fork_only
def test_run_suite_leaves_no_child():
    assert len(run_suite(_FAN_OUT).stats[(3, "permutation")]) == 6
    assert multiprocessing.active_children() == []


@fork_only
def test_no_child_outlives_run_suite(monkeypatch):
    # a clean suite builds its reports before it joins its children; one whose
    # child raises or dies silently stops and joins them before it raises
    events = []

    class Recording(multiprocessing.Process):
        def join(self, timeout=None):
            events.append("join")
            super().join(timeout)

    report = experiments.ratio_report_from_stats

    def recording_report(runs, seed):
        events.append("report")
        return report(runs, seed)

    monkeypatch.setattr(experiments, "Process", Recording)
    monkeypatch.setattr(experiments, "ratio_report_from_stats", recording_report)
    run_suite(_FAN_OUT)
    assert multiprocessing.active_children() == []
    assert events == ["report"] * 4 + ["join"] * 2
    for fault, error in ((_raise_value_error, ValueError), (lambda: os._exit(3), RuntimeError)):
        events.clear()
        with monkeypatch.context() as patch:
            _fail_in_block(patch, 2, fault)
            with pytest.raises(error):
                run_suite(_FAN_OUT)
        assert multiprocessing.active_children() == []
        assert "report" not in events and events.count("join") >= 2


def _time_out(signum, frame):
    raise TimeoutError("run_suite took over 120 s")


@fork_only
def test_shared_counter_gives_each_task_to_one_process(monkeypatch):
    # 2000 one-trial tasks over more processes than cores: a lost update on
    # the shared counter would play a trial twice or not at all (without the
    # lock, 85 to 350 trials were played twice in each of eight runs)
    monkeypatch.setattr(experiments, "BLOCK_CELLS", 0)
    config = ExperimentConfig(n_list=(3,), trials=2000, workers=6, algorithms=("greedy_nearest",))
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(120)
    try:
        runs = run_suite(config).stats[(3, "greedy_nearest")]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [st.trial for st in runs] == list(range(2000))
    assert multiprocessing.active_children() == []


def test_block_size_share_and_cell_cap():
    # an even share per worker, capped at BLOCK_CELLS over n + 1 cells a trial
    assert experiments.BLOCK_CELLS == 1 << 18
    assert experiments._block_size(255, 32, 2) == 16
    assert experiments._block_size(255, 500, 1) == 500
    assert experiments._block_size(255, 2000, 1) == 1024
    assert experiments._block_size(1023, 500, 2) == 250
    assert experiments._block_size(1023, 500, 1) == 256
    assert experiments._block_size(4095, 64, 1) == 64
    assert experiments._block_size(4095, 500, 2) == 64
    assert experiments._block_size(65535, 500, 1) == 4
    assert experiments._block_size(262143, 500, 1) == 1  # one trial fills the cap
    assert experiments._block_size(524287, 500, 1) == 1  # and one past it still plays
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
    monkeypatch.setattr(experiments, "BLOCK_CELLS", 0)
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


@pytest.mark.parametrize("online_num, want, cell", [(0, 1.0, "1"), (8, None, "-")])
def test_theorem_ratio_of_zero_offline_totals(online_num, want, cell):
    # the aggregate follows the per-trial rule: 0/0 is 1, x/0 has no value
    runs = [
        RunStats(
            n=3, algorithm="random_free", instance_seed=0, grid_k=1, trial=t,
            prefix_rounds=0, prefix_cost=0, round_costs=(online_num, 0),
            online_total=online_num, offline_total=0, ratio=cost_ratio(online_num, 0),
        )
        for t in range(2)
    ]
    assert {st.ratio for st in runs} == {want}
    rep = ratio_report_from_stats(runs, 0)
    assert (rep.observed, rep.standard_error) == (want, 0.0)
    assert render_reports([rep]).splitlines()[2].split()[4] == cell


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
    assert header["sampler"] == 3
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
    # each header is the keys of its rows, in the order the rows hold them
    assert summary.splitlines()[0] == (
        "schema_version,n,algorithm,trials,grid_k,request_order,prefix_rounds,mean_online,"
        "se_online,mean_offline,se_offline,aggregate_ratio,ratio_bound,lemma2_pass,theorem_pass"
    )
    assert rounds.splitlines()[0] == (
        "schema_version,n,algorithm,round,trials,mean_cost,se_cost,floor,pass"
    )
    assert ",true" in summary and "True" not in summary


def test_runs_draw_instances_by_the_one_seed_rule():
    cfg = ExperimentConfig(
        n_list=(7,), algorithms=("greedy_nearest", "random_free"), trials=3, seed=11
    )
    for runs in run_suite(cfg).stats.values():
        assert [st.instance_seed for st in runs] == [stream_key(11, "trial", t) for t in range(3)]


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
    # a suite whose every round is the known prefix leaves the per-round
    # floor nothing to judge, so it is refused, at any n of its list
    for n_list, prefix, top in (((3,), 2, 1), ((7,), 3, 2), ((15, 3), 2, 1)):
        with pytest.raises(ValueError, match=rf"prefix_rounds must be in 0\.\.{top}, got {prefix}$"):
            ExperimentConfig(
                n_list=n_list, algorithms=("greedy_nearest",), trials=4, seed=2,
                prefix_rounds=prefix,
            )
    ExperimentConfig(n_list=(15, 7), trials=4, prefix_rounds=2)


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
