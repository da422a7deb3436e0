"""Command-line behavior: option merging, exit codes, file outputs."""

import ast
import dataclasses
import importlib
import importlib.util
import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import trial_dict

import matchline
import matchline.cli as cli
from matchline import adversary, experiments, lemma_checks
from matchline.adversary import GenParams, default_grid_k, generate, instance_from_jsonl
from matchline.algorithms import ALGORITHM_KINDS
from matchline.experiments import ExperimentConfig
from matchline.lemma_checks import LemmaReport

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# the argv behind golden_generate_n15.jsonl, without its --out
GENERATE_ARGV = ["generate", "--n", "15", "--seed", "7", "--order", "shuffled"]


def test_generate_to_file(tmp_path, capsys):
    out = tmp_path / "inst.jsonl"
    rc = cli.main(["generate", "--n", "7", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert "wrote 8 records" in capsys.readouterr().out
    inst = instance_from_jsonl(out.read_text(encoding="utf-8"))
    assert inst == generate(GenParams(i=3, grid_k=default_grid_k(7), seed=5))


def test_generate_golden_bytes(tmp_path):
    # pinned transcript: the writer's bytes, and the reader's view of them
    out = tmp_path / "inst.jsonl"
    rc = cli.main([*GENERATE_ARGV, "--out", str(out)])
    assert rc == 0
    golden = (DATA / "golden_generate_n15.jsonl").read_bytes()
    assert out.read_bytes() == golden
    params = GenParams(i=4, grid_k=default_grid_k(15), seed=7, request_order="shuffled")
    assert instance_from_jsonl(golden.decode("utf-8")) == generate(params)


# (command, argv) of every golden stdout.txt and reports.json pair;
# regen_goldens.py reads this table too
REPORT_GOLDENS = [
    ("lemma1", ["--n", "255", "--trials", "100"]),
    ("lemma2", ["--n", "255"]),
    ("oracle", ["--n", "7"]),
]


def golden_dir(command, data=DATA):
    return data / "golden_lemma_n255" / command


def test_lemma2_reads_neither_trials_nor_seed(tmp_path):
    runs = {}
    for flags in (("--trials", "1"), ("--trials", "300"), ("--seed", "0"), ("--seed", "9")):
        out = tmp_path / "-".join(flags)
        assert cli.main(["lemma2", "--n", "255", *flags, "--out", str(out)]) == 0
        runs[flags] = (out / "reports.json").read_bytes()
    assert len(set(runs.values())) == 1


@pytest.mark.parametrize("command, argv", REPORT_GOLDENS)
def test_lemma_golden_bytes(tmp_path, capsys, command, argv):
    # pinned stdout and reports.json of the lemma checks
    golden = golden_dir(command)
    assert cli.main([command, *argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text(encoding="utf-8")
    assert (tmp_path / "reports.json").read_bytes() == (golden / "reports.json").read_bytes()


def test_every_golden_file_comes_from_the_regen_tables(tmp_path):
    # a golden that regen_goldens.py does not write can never be regenerated
    import regen_goldens  # not at the top: it imports this module's tables

    regen_goldens.main(tmp_path)

    def files(root):
        return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}

    assert files(DATA) == files(tmp_path)


def test_generate_to_stdout(capsys):
    rc = cli.main(["generate", "--n", "3", "--seed", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(json.loads(line) for line in lines)


def test_run_summary_table(tmp_path, capsys):
    rc = cli.main([
        "run", "--n", "3", "--trials", "4", "--seed", "2",
        "--alg", "greedy_nearest", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "greedy_nearest" in out
    assert "lemma2_empirical" in out and "theorem_ratio" in out
    for name in ("trials.jsonl", "summary.csv", "rounds.csv", "reports.json"):
        assert (tmp_path / name).exists()


def test_run_with_zero_offline_totals_writes_valid_files(tmp_path, capsys):
    # every seed-44148 instance at grid_k = 1 has offline total 0 and online > 0,
    # so each trial ratio and the aggregate ratio have no value
    rc = cli.main([
        "run", "--n", "3", "--trials", "2", "--grid-k", "1", "--seed", "44148",
        "--alg", "random_free", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"\brandom_free +2 +3 +0 +- ", out)
    assert re.search(r"\btheorem_ratio +random_free +3 +2 +- ", out)
    for path in tmp_path.iterdir():
        assert not re.search(r"\b(inf|Infinity|NaN)\b", path.read_text(encoding="utf-8")), path.name
    trials = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
    assert [rec["ratio"] for rec in trials[1:]] == [None, None]
    assert all(rec["offline_total"]["num"] == 0 < rec["online_total"]["num"] for rec in trials[1:])
    reports = json.loads((tmp_path / "reports.json").read_text(encoding="utf-8"))["reports"]
    assert [rep["observed"] for rep in reports if rep["lemma_id"] == "theorem_ratio"] == [None]
    with (tmp_path / "summary.csv").open(newline="", encoding="utf-8") as fh:
        assert [row["aggregate_ratio"] for row in csv.DictReader(fh)] == [""]
    with (tmp_path / "rounds.csv").open(newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_failed_report_dump_leaves_no_file(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        experiments.write_reports(tmp_path, {"observed": float("inf")})
    assert not (tmp_path / "reports.json").exists()


def test_lemma1_reports_out(tmp_path, capsys):
    rc = cli.main(["lemma1", "--n", "7", "--trials", "150", "--out", str(tmp_path)])
    assert rc == 0
    assert "lemma1_exact" in capsys.readouterr().out
    payload = json.loads((tmp_path / "reports.json").read_text(encoding="utf-8"))
    assert [rep["pass"] for rep in payload["reports"]] == [True, True]


def test_oracle_command(capsys):
    rc = cli.main(["oracle", "--n", "3", "--grid-k", "5"])
    assert rc == 0
    assert "oracle_round_game" in capsys.readouterr().out


def test_oracle_grid_above_the_auto_grid_writes_the_auto_reports(tmp_path):
    # --grid-k caps each round's auto grid; 20 is above every round's at n = 7
    for name, flags in (("auto", []), ("capped", ["--grid-k", "20"])):
        assert cli.main(["oracle", "--n", "7", "--out", str(tmp_path / name), *flags]) == 0
    auto, capped = ((tmp_path / name / "reports.json").read_bytes() for name in ("auto", "capped"))
    assert capped == auto


def test_ratio_is_not_a_command(capsys):
    # run --alg greedy_nearest,batch_round_optimal writes its theorem reports
    assert _exit_code(["ratio", "--n", "7"]) == 2
    assert "invalid choice: 'ratio'" in capsys.readouterr().err


def test_ratio_samples_each_instance_once(monkeypatch, tmp_path):
    # every module binding is counted, so a second sampling pass would show
    calls = []
    sample = adversary.origin_round_numerators

    def counting(i, grid_k, seeds):
        calls.extend(seeds)
        return sample(i, grid_k, seeds)

    for module in (adversary, experiments, lemma_checks):
        monkeypatch.setattr(module, "origin_round_numerators", counting)
    argv = ["run", "--n", "7", "--alg", "greedy_nearest,batch_round_optimal"]
    assert cli.main([*argv, "--trials", "100"]) == 0
    assert len(calls) == 100
    # the theorem reports' offline cap covers exactly the suite's own trials
    assert cli.main([*argv, "--trials", "50", "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "reports.json").read_text(encoding="utf-8"))["reports"]
    ratios = [rep for rep in reports if rep["lemma_id"] == "theorem_ratio"]
    assert len(ratios) == 2 and all(rep["trials"] == 50 for rep in ratios)


def test_prefix_command(tmp_path, capsys):
    rc = cli.main([
        "run", "--n", "7", "--trials", "30", "--prefix-rounds", "1",
        "--alg", "greedy_nearest", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "lemma2_empirical" in capsys.readouterr().out
    header = json.loads((tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["config"]["prefix_rounds"] == 1


def test_run_prefix_rounds_out_of_range_exits_two(capsys):
    rc = cli.main(["run", "--n", "3", "--trials", "2", "--prefix-rounds", "5"])
    assert rc == 2
    assert "prefix_rounds must be in 0..1, got 5" in capsys.readouterr().err
    # every round a known prefix: no online round for the floor to judge
    rc = cli.main(["run", "--n", "7", "--trials", "3", "--prefix-rounds", "3", "--alg", "greedy_nearest"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prefix_rounds must be in 0..2, got 3" in captured.err


def _bench_module(stem):
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_checks():
    return _bench_module("checks")


# bench trace targets that name functions the package no longer defines; the
# trace records them as absent, so this set may shrink but never grow
ABSENT_SPANS = {
    "adversary.validate",
    "adversary.arrival_order",
    "algorithms.serve.greedy_nearest",
    "algorithms.serve.batch_round_optimal",
    "algorithms.serve.permutation",
    "algorithms.serve.random_free",
    "algorithms.run_with_prefix",
    "offline.rank_pairing",
}


def test_bench_trace_targets_resolve():
    spans = _bench_module("spans")
    targets = {**spans.SPANS, **spans.COUNTERS}
    absent = {name for name, target in targets.items() if spans._resolve(target) is None}
    assert absent <= ABSENT_SPANS, sorted(absent - ABSENT_SPANS)


def test_bench_checks_accept_real_output_and_catch_a_wrong_total(tmp_path):
    checks = _bench_checks()
    argv = ["run", "--n", "7,15", "--trials", "3", "--order", "shuffled", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert checks.check_run(argv, tmp_path / "run", 0) == []
    assert cli.main(["lemma1", "--n", "15", "--trials", "100", "--out", str(tmp_path / "lemma1")]) == 0
    assert checks.check_lemma1(tmp_path / "lemma1") == []

    path = tmp_path / "run" / "trials.jsonl"
    clean = path.read_text(encoding="utf-8").splitlines()

    def tampered(edit, indices):
        lines = list(clean)
        for idx in indices:
            rec = json.loads(lines[idx])
            rec["offline_total"] = edit(rec)
            lines[idx] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return checks.check_run(argv, tmp_path / "run", 0)

    # one trial's offline total raised past its online total
    above = tampered(lambda rec: {**rec["online_total"], "num": rec["online_total"]["num"] + 1}, [1])
    assert any("inconsistent totals" in p for p in above)
    # every offline total one grid step low: the recomputed sample disagrees
    below = tampered(
        lambda rec: {**rec["offline_total"], "num": rec["offline_total"]["num"] - 1},
        range(1, len(clean)),
    )
    assert any("offline total differs" in p for p in below)


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("n = 7\ntrials = 151  # file value loses to the flag\nseed=4\n")
    rc = cli.main(["lemma1", "--config", str(cfg), "--trials", "103"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "103" in out
    assert "151" not in out


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("n=3\ntrials=100\n")
    rc = cli.main(["lemma1", "--config", str(cfg)])
    assert rc == 0
    assert " 3" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("bogus = 1\n")
    rc = cli.main(["lemma1", "--config", str(cfg), "--n", "3"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("just some words\n")
    rc = cli.main(["lemma1", "--config", str(cfg), "--n", "3"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("text, key, line", [
    ("n=3\ntrials=100\nn=7\n", "n", 3),
    ("n=3\ngrid-k=3\n# both spell one key\ngrid_k=5\n", "grid_k", 4),
], ids=["same-spelling", "dash-and-underscore"])
def test_config_file_duplicate_key_exits_two(text, key, line, tmp_path, capsys):
    # a repeated key is an error, not a silent last-one-wins
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(text)
    assert cli.main(["lemma1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: duplicate key {key!r}\n"


def _exit_code(argv):
    # argparse exits on a bad flag or file value; the handlers return 2
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_file_precedence_on_suite(monkeypatch, tmp_path):
    # flag beats file beats default, for each kind of option a suite reads
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("n=7\nalg=greedy_nearest, permutation\norder=shuffled\nworkers=2\ntrials=9\n")
    configs = []
    real = cli.run_suite

    def recording(config):
        configs.append(config)
        return real(config)

    monkeypatch.setattr(cli, "run_suite", recording)
    assert cli.main(["run", "--config", str(cfg), "--trials", "3"]) == 0
    assert configs == [ExperimentConfig(
        n_list=(7,), algorithms=("greedy_nearest", "permutation"), trials=3, seed=0,
        grid_k=None, request_order="shuffled", prefix_rounds=0, workers=2,
    )]


@pytest.mark.parametrize("argv", [
    ["lemma1"], ["oracle", "--n", "3"], ["generate", "--n", "3"], ["lemma2", "--n", "7"],
])
def test_shared_config_file_serves_commands_that_ignore_its_keys(argv, tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("n=7\ntrials=100\nworkers=2\nalg=greedy_nearest\nprefix-rounds=1\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 0


@pytest.mark.parametrize("text, option", [
    pytest.param("n=7\ntrials=abc\n", "--trials", id="trials=abc---trials"),
    pytest.param("n=abc\n", "--n", id="n=abc---n"),
])
def test_config_file_malformed_value_exits_two(text, option, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(text)
    assert _exit_code(["lemma1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert option in err and "abc" in err
    assert "Traceback" not in err and "int()" not in err


# the flags a command does not read: each is a usage error, not ignored
UNREAD_FLAGS = [
    *[("generate", flag) for flag in ("--trials", "--alg", "--prefix-rounds", "--workers")],
    *[("lemma1", flag) for flag in ("--alg", "--order", "--prefix-rounds", "--workers")],
    *[("oracle", flag) for flag in ("--trials", "--alg", "--order", "--prefix-rounds", "--workers")],
    *[("lemma2", flag) for flag in ("--grid-k", "--alg", "--order", "--prefix-rounds", "--workers")],
]
FLAG_VALUES = {
    "--trials": "5", "--grid-k": "5", "--alg": "greedy_nearest", "--order": "shuffled",
    "--prefix-rounds": "1", "--workers": "2",
}


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_a_command_does_not_read_exits_two(command, flag, capsys):
    assert _exit_code([command, "--n", "3", flag, FLAG_VALUES[flag]]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_bad_n_exits_two(capsys):
    rc = cli.main(["lemma1", "--n", "4", "--trials", "100"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_lemma1_rejects_n_past_width_rule_before_exact_loop(monkeypatch, capsys):
    # lemma1_exact passes over all n ranks; the width rule rejects n before it
    def exact_loop(n):
        raise AssertionError("lemma1_exact ran before n was validated")

    monkeypatch.setattr(cli, "lemma1_exact", exact_loop)
    assert cli.main(["lemma1", "--n", "2147483647", "--trials", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: i = 31") and "exceeds 61" in err
    assert "Traceback" not in err


def test_bad_algorithm_exits_two(capsys):
    rc = cli.main(["run", "--n", "3", "--trials", "2", "--alg", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown algorithm" in err and "choose from" in err


@pytest.mark.parametrize("argv", [
    ["run", "--n", "3", "--trials", "1"],
    ["run", "--n", "3", "--trials", "1", "--alg", "greedy_nearest"],
    ["run", "--n", "7", "--trials", "1", "--order", "shuffled", "--prefix-rounds", "1"],
])
def test_one_trial_statistics_exit_two(argv, capsys):
    # one sample has no standard error, so a 3 SE check cannot be judged
    rc = cli.main(argv)
    assert rc == 2
    assert "at least 2 trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "--n", "7,7", "--trials", "2", "--alg", "greedy_nearest"], "duplicate n"),
    (
        ["run", "--n", "7", "--trials", "2", "--alg", "greedy_nearest,greedy_nearest"],
        "duplicate algorithm",
    ),
    (
        ["run", "--n", "7", "--alg", "greedy_nearest,batch_round_optimal",
         "--grid-k", "0", "--trials", "2000"],
        "strictly finer than the integers",
    ),
    (["run", "--n", "7", "--trials", "100", "--grid-k", "-1"], "grid_k must be non-negative, got -1"),
    (["lemma1", "--n", "7", "--trials", "100", "--grid-k", "-1"], "grid_k must be non-negative"),
    (["lemma2", "--n", "7,15"], "this command takes one size"),
    (["lemma1", "--n", "7,15", "--trials", "100"], "this command takes one size"),
    (["oracle", "--n", "3,7"], "this command takes one size"),
    (["generate", "--n", "7,15"], "this command takes one size"),
    (["lemma1", "--n", "abc", "--trials", "100"], "--n abc: a size must be an integer"),
    (["run", "--n", "7,abc", "--trials", "2"], "--n abc: a size must be an integer"),
    # --trials 0 is a count of zero, not "use the default", at every size
    (["lemma2", "--n", "31", "--trials", "0"], "--trials must be positive"),
    (["lemma2", "--n", "15", "--trials", "0"], "--trials must be positive"),
    (["run", "--n", ",", "--trials", "2"], "n_list must not be empty"),
    (["run", "--n", "7", "--trials", "2", "--alg", ","], "algorithms must not be empty"),
    (
        ["run", "--n", "7", "--trials", "2", "--prefix-rounds", "-1"],
        "prefix_rounds must be in 0..2, got -1",
    ),
    # GenParams' rules, judged when the config is built, before any trial
    (["run", "--n", "7", "--trials", "2", "--seed", "-1"], "seed must be a 64-bit value, got -1"),
    (["run", "--n", "1023", "--trials", "2", "--grid-k", "45"], "2 i + grid_k + 1 = 66 exceeds 61"),
    # the default grid of n = 2^30 - 1 is 0, refused before any instance is built
    (["run", "--n", "1073741823", "--trials", "2"], "grid_k must be at least 1, got 0"),
])
def test_bad_suite_input_exits_two(argv, message, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "shift count" not in err and "int()" not in err


@pytest.mark.parametrize("target, argv, detail", [
    (
        "lemma2_config_property",
        ["lemma2", "--n", "2147483647", "--trials", "2"],
        "Unable to allocate 16.0 GiB",
    ),
    ("run_suite", ["run", "--n", "4095", "--trials", "2"], ""),
])
def test_out_of_memory_exits_two(target, argv, detail, monkeypatch, capsys):
    # the allocation itself is never attempted: the command raises at once
    def exhausted(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, target, exhausted)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out of memory at --n {argv[2]}")
    assert detail in err and "Traceback" not in err


def test_generate_accepts_integer_grid(capsys):
    # only the commands that judge the per-round floor need grid_k >= 1
    assert cli.main(["generate", "--n", "3", "--grid-k", "0"]) == 0
    assert '"k":0' in capsys.readouterr().out


def test_grid_k_past_width_rule_exits_two(capsys):
    rc = cli.main(["run", "--n", "7", "--trials", "2", "--grid-k", "55"])
    assert rc == 2
    assert "exceeds 61" in capsys.readouterr().err


def test_workers_without_fork_exit_two(monkeypatch, tmp_path, capsys):
    # where os has no fork, a pool is refused before any trial; one process still runs
    monkeypatch.delattr(os, "fork", raising=False)
    with pytest.raises(ValueError, match="workers 2 needs os.fork"):
        ExperimentConfig(n_list=(7,), trials=2, workers=2)
    assert cli.main(["run", "--n", "7", "--trials", "2", "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: workers 2 needs os.fork, which this platform lacks\n"
    assert cli.main(["run", "--n", "7", "--trials", "2", "--out", str(tmp_path)]) == 0


def test_cli_import_leaves_multiprocessing_unloaded():
    # run forks its own workers: importing multiprocessing would cost every
    # start about 0.9 MB and 5-7 ms, forking or not
    code = "import sys, matchline.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_public_names_resolve():
    for name in matchline.__all__:
        assert hasattr(matchline, name), name
    for path in (Path(cli.__file__), ROOT / "bench" / "checks.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("matchline"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


LAYERS = (
    "geometry", "rng", "adversary", "offline", "algorithms",
    "lemma_checks", "oracle", "experiments", "cli",
)


def test_modules_import_only_lower_layers():
    # one trial runner: lemma_checks may never reach up into experiments
    src = Path(matchline.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted((*LAYERS, "__init__"))
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{name}: relative import"
                targets = [node.module or ""]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            for target in targets:
                parts = target.split(".")
                if parts[0] != "matchline":
                    continue
                assert len(parts) == 2, f"{name} imports {target}"
                assert LAYERS.index(parts[1]) < rank, f"{name} imports {target}"


def test_failing_report_exits_one(monkeypatch, capsys):
    failing = LemmaReport("lemma1_exact", 3, 0, 1.0, 0.5, 0.0, False, {})
    monkeypatch.setattr(cli, "lemma1_exact", lambda n: failing)
    rc = cli.main(["lemma1", "--n", "3", "--trials", "100"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# README table cells that show a default in words
README_DEFAULT_WORDS = {
    "none": None,
    "stdout": None,
    "all four": ",".join(ALGORITHM_KINDS),
    "0 (unread)": 0,
    "10000 (unread)": 10000,
}


def _readme_option_table():
    """{command: {option: cell}} from the README table under "Command line",
    leaving out the cells marked - (the command does not take the option)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Command line", 1)[1].splitlines()
    start = next(j for j, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    head, _, *rows = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    options = {c: {} for c in head[1:]}
    for flag, *cells in rows:
        key = flag.strip("`").removeprefix("--").replace("-", "_")
        for command, cell in zip(head[1:], cells):
            if cell != "-":
                options[command][key] = cell
    return options


def test_readme_option_table_matches_the_parser():
    table = _readme_option_table()
    assert list(table) == list(cli._COMMANDS)
    for command, (_, _, defaults) in cli._COMMANDS.items():
        assert table[command].keys() == defaults.keys(), command
        for key, cell in table[command].items():
            if cell in README_DEFAULT_WORDS:
                assert README_DEFAULT_WORDS[cell] == defaults[key], (command, key)
            else:
                assert cell == str(defaults[key]), (command, key)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the API examples and the transcript round trip, run as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    names = {"trials.jsonl", "summary.csv", "rounds.csv", "reports.json"}
    assert {p.name for p in (tmp_path / "results").iterdir()} == names


def test_package_exports_what_the_readme_documents():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    exported = set(matchline.__all__)
    assert exported <= set(re.findall(r"\w+", text))
    assert all(hasattr(matchline, name) for name in exported)
    imported = set()
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "matchline":
                imported |= {alias.name for alias in node.names}
    # every name a block imports is exported, and nothing else is
    assert imported == exported


def test_build_parser_reads_the_terminal_width_once(monkeypatch):
    calls = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    widest = []
    for columns in (60, 150):
        monkeypatch.setenv("COLUMNS", str(columns))
        calls.clear()
        parser = cli.build_parser()
        assert len(calls) == 1
        # help still wraps at the width read, less argparse's margin of 2
        run = parser._subparsers._group_actions[0].choices["run"]
        lines = (parser.format_help() + run.format_help()).splitlines()
        widest.append(max(map(len, lines)))
        assert widest[-1] <= columns - 2
        assert len(calls) == 1
    assert widest[1] > 58


def test_main_builds_one_parser_per_terminal_width(monkeypatch, capsys):
    builds = []
    real = cli.build_parser

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    for columns in (71, 71, 71, 93, 93):
        size = os.terminal_size((columns, 24))
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: size)
        assert cli.main(["oracle", "--n", "3"]) == 0
    assert builds == [(), ()]
    # --help after the resize wraps to the new width, less argparse's margin
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    lines = capsys.readouterr().out.splitlines()
    assert 71 - 2 < max(map(len, lines)) <= 93 - 2
    assert len(builds) == 2


def _report_count(out):
    return len(json.loads((out / "reports.json").read_text(encoding="utf-8"))["reports"])


def test_config_file_values_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("n = 15\n")
    assert cli.main(["lemma2", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert cli.main(["lemma2", "--out", str(tmp_path / "plain")]) == 0
    # n = 15 has 4 rounds, the built-in n = 1023 has 10
    assert [_report_count(tmp_path / d) for d in ("file", "plain")] == [4, 10]


def test_a_usage_error_leaves_the_next_parse_intact(tmp_path, capsys):
    assert _exit_code(["lemma2", "--n", "15", "--trials", "many"]) == 2
    assert _exit_code(["lemma2", "--n", "15", "--workers", "2"]) == 2
    assert cli.main(["lemma2", "--out", str(tmp_path)]) == 0
    assert _report_count(tmp_path) == 10


def test_parse_args_leaves_the_parser_unchanged():
    # main() reuses one parser: sound only while parse_args converts string
    # defaults (run's --alg) into the Namespace, never into the parser
    parser = cli.build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    defaults = [(a.dest, a.default) for a in run._actions], dict(run._defaults)
    first = parser.parse_args(["run", "--alg", "permutation", "--n", "7", "--trials", "3"])
    assert first.alg == ("permutation",)
    again = parser.parse_args(["run"])
    assert again.alg == tuple(ALGORITHM_KINDS)
    assert vars(again) == vars(cli.build_parser().parse_args(["run"]))
    assert ([(a.dest, a.default) for a in run._actions], dict(run._defaults)) == defaults


def test_shared_json_encoders_write_what_json_dumps_writes():
    stats = dataclasses.replace(experiments.run_trials(7, ("permutation",), [0], 3)[0][0], trial=None, ratio=1 / 3)
    rec = {"record": "trial", **trial_dict(stats)}
    assert rec["trial"] is None
    line = json.dumps(rec, separators=(",", ":"), allow_nan=False) + "\n"
    assert experiments._json_line(rec) == line
    assert experiments._trial_line(stats) == line
    with pytest.raises(ValueError):
        experiments._json_line({**rec, "ratio": float("nan")})
    with pytest.raises(ValueError):
        experiments._trial_line(dataclasses.replace(stats, ratio=float("nan")))
    text = adversary.instance_to_jsonl(generate(GenParams(i=3, grid_k=2, seed=1)))
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines == [json.dumps(json.loads(line), separators=(",", ":")) for line in lines]


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
