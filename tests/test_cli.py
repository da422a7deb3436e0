"""Command-line behavior: option merging, exit codes, file outputs."""

import ast
import importlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

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
    ("lemma2", ["--n", "255", "--trials", "50"]),
    ("oracle", ["--n", "7"]),
]


def golden_dir(command, data=DATA):
    return data / "golden_lemma_n255" / command


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
    assert "prefix_rounds=5" in capsys.readouterr().err


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


@pytest.mark.parametrize("line, option", [("trials=abc", "--trials"), ("n=abc", "--n")])
def test_config_file_malformed_value_exits_two(line, option, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"n=7\n{line}\n")
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
    # lemma1_exact is O(n); at n = 2^31 - 1 it would spin for hours
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
    (["run", "--n", "7", "--trials", "100", "--grid-k", "-1"], "grid_k must be at least 1"),
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


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
