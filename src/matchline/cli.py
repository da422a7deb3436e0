"""Command-line front end.

Subcommands: generate, run, lemma1, lemma2, oracle, ratio, prefix.  Options
can come from a flat key=value config file via --config; explicit flags win
over file values, file values win over built-in defaults.  Exit status is 0
when every emitted report passes, 1 when any fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from matchline.adversary import (
    GenParams,
    ORDER_LEFT_TO_RIGHT,
    REQUEST_ORDERS,
    default_grid_k,
    generate,
    instance_to_jsonl,
    rounds_for,
)
from matchline.algorithms import ALGORITHM_KINDS
from matchline.experiments import ExperimentConfig, SuiteResult, run_suite
from matchline.lemma_checks import (
    EXHAUSTIVE_N_LIMIT,
    LemmaReport,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    offline_report_from_stats,
    render_reports,
)
from matchline.oracle import auto_grid_k, oracle_report

_DEFAULTS = {
    "n": "1023",
    "trials": None,  # per-command default
    "seed": "0",
    "grid_k": None,
    "alg": None,
    "order": ORDER_LEFT_TO_RIGHT,
    "prefix_rounds": "0",
    "out": None,
    "workers": "1",
}


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blank lines ignored."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


class _Options:
    """Merged view of flags, config file, and defaults; flags win."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        cfg_path = self._args.get("config")
        self._file = _load_config_file(cfg_path) if cfg_path else {}

    def _raw(self, key: str, fallback: str | None = None) -> str | None:
        flag = self._args.get(key)
        if flag is not None:
            return str(flag)
        if key in self._file:
            return self._file[key]
        if fallback is not None:
            return fallback
        return _DEFAULTS.get(key)

    def int_value(self, key: str, fallback: str | None = None) -> int:
        raw = self._raw(key, fallback)
        if raw is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        if key == "n" and "," in raw:
            raise ValueError(f"--n {raw}: this command takes one size, not a list")
        return int(raw)

    def opt_int(self, key: str) -> int | None:
        raw = self._raw(key)
        if raw is None or raw.lower() == "none":
            return None
        return int(raw)

    def str_value(self, key: str, fallback: str | None = None) -> str | None:
        return self._raw(key, fallback)

    def int_list(self, key: str, fallback: str | None = None) -> tuple[int, ...]:
        raw = self._raw(key, fallback)
        if raw is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return tuple(int(part) for part in str(raw).split(",") if part.strip())

    def alg_list(self, fallback: str) -> tuple[str, ...]:
        raw = self._raw("alg", fallback)
        assert raw is not None
        return tuple(part.strip() for part in raw.split(",") if part.strip())


def _write_reports(reports: list[LemmaReport], out: str | None) -> None:
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"reports": [rep.to_json_dict() for rep in reports]}
    with (out_dir / "reports.json").open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finish(reports: list[LemmaReport], out: str | None) -> int:
    print(render_reports(reports))
    _write_reports(reports, out)
    return 0 if all(rep.passed for rep in reports) else 1


def _render_summary(rows: list[dict]) -> str:
    head = (
        f"{'n':>6}{'algorithm':>22}{'trials':>8}{'online':>12}{'offline':>12}"
        f"{'ratio':>10}{'bound':>10}  floor/ratio"
    )
    lines = [head, "-" * len(head)]
    for row in rows:
        verdict = ("pass" if row["lemma2_pass"] else "FAIL") + "/" + (
            "pass" if row["theorem_pass"] else "FAIL"
        )
        lines.append(
            f"{row['n']:>6}{row['algorithm']:>22}{row['trials']:>8}"
            f"{row['mean_online']:>12.4g}{row['mean_offline']:>12.4g}"
            f"{row['aggregate_ratio']:>10.4g}{row['ratio_bound']:>10.4g}  {verdict}"
        )
    return "\n".join(lines)


def _finish_suite(result: SuiteResult) -> int:
    print(_render_summary(result.summary_rows))
    print()
    print(render_reports(result.reports))
    return 0 if all(rep.passed for rep in result.reports) else 1


def _cmd_generate(opts: _Options) -> int:
    n = opts.int_value("n")
    i = rounds_for(n)
    grid_k = opts.opt_int("grid_k")
    params = GenParams(
        i=i,
        grid_k=default_grid_k(n) if grid_k is None else grid_k,
        seed=opts.int_value("seed"),
        request_order=opts.str_value("order") or ORDER_LEFT_TO_RIGHT,
    )
    text = instance_to_jsonl(generate(params))
    out = opts.str_value("out")
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {n + 1} records to {out}")
    return 0


def _suite_config(
    opts: _Options, algorithms: str, trials: str, out_dir: str | None = None
) -> ExperimentConfig:
    """The suite every policy-running command plays; algorithms and trials
    are the command's defaults for --alg and --trials."""
    return ExperimentConfig(
        n_list=opts.int_list("n"),
        algorithms=opts.alg_list(algorithms),
        trials=opts.int_value("trials", trials),
        seed=opts.int_value("seed"),
        grid_k=opts.opt_int("grid_k"),
        request_order=opts.str_value("order") or ORDER_LEFT_TO_RIGHT,
        prefix_known_rounds=opts.int_value("prefix_rounds"),
        out_dir=out_dir,
        workers=opts.int_value("workers"),
    )


def _cmd_run(opts: _Options) -> int:
    """run and prefix: the suite, with the leading --prefix-rounds (default 0)
    rounds served as one offline batch."""
    config = _suite_config(opts, ",".join(ALGORITHM_KINDS), "100", opts.str_value("out"))
    return _finish_suite(run_suite(config))


def _cmd_lemma1(opts: _Options) -> int:
    n = opts.int_value("n")
    # the sampled check validates n, grid_k and trials before its O(n) work,
    # so it runs first: lemma1_exact's O(n) loop would spin on an n out of range
    sampled = lemma1_distance_mc(
        n,
        trials=opts.int_value("trials", "1000"),
        seed=opts.int_value("seed"),
        grid_k=opts.opt_int("grid_k"),
    )
    return _finish([lemma1_exact(n), sampled], opts.str_value("out"))


def _cmd_lemma2(opts: _Options) -> int:
    """The configuration floor for every round, then with --alg the
    per-round floor of each policy's suite runs."""
    n = opts.int_value("n")
    i = rounds_for(n)
    seed = opts.int_value("seed")
    samples = opts.int_value("trials", "10000")
    alg = opts.str_value("alg")
    # the suite is validated before any configuration is checked
    config = None if alg is None else _suite_config(opts, alg, "500")
    exhaustive = n <= EXHAUSTIVE_N_LIMIT
    reports = [
        lemma2_config_property(n, r, samples=None if exhaustive else samples, seed=seed)
        for r in range(1, i + 1)
    ]
    if config is not None:
        reports += [rep for rep in run_suite(config).reports if rep.lemma_id == "lemma2_empirical"]
    return _finish(reports, opts.str_value("out"))


def _cmd_oracle(opts: _Options) -> int:
    n = opts.int_value("n", "7")
    i = rounds_for(n)
    cap = opts.opt_int("grid_k")
    reports = []
    for r in range(1, i + 1):
        k = auto_grid_k(n, r)
        if cap is not None:
            k = min(k, cap)
        reports.append(oracle_report(n, r, grid_k=k))
    return _finish(reports, opts.str_value("out"))


def _cmd_ratio(opts: _Options) -> int:
    """The offline cap, then each policy's aggregate ratio, from one suite;
    a trial's policies share its instance, so any policy's runs serve."""
    n = opts.int_value("n")
    config = _suite_config(opts, "greedy_nearest,batch_round_optimal", "500")
    result = run_suite(config)
    reports = [offline_report_from_stats(result.stats[(n, config.algorithms[0])], config.seed)]
    reports += [rep for rep in result.reports if rep.lemma_id == "theorem_ratio"]
    return _finish(reports, opts.str_value("out"))


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "lemma1": _cmd_lemma1,
    "lemma2": _cmd_lemma2,
    "oracle": _cmd_oracle,
    "ratio": _cmd_ratio,
    "prefix": _cmd_run,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value option file; flags override it")
    sub.add_argument("--n", help="problem size 2^i - 1; comma list where sizes repeat")
    sub.add_argument("--trials", type=int, help="trial or sample count")
    sub.add_argument("--seed", type=int, help="root seed (default 0)")
    sub.add_argument("--grid-k", dest="grid_k", help="request grid exponent, or 'none'")
    sub.add_argument(
        "--alg", help=f"comma list from: {', '.join(ALGORITHM_KINDS)}"
    )
    sub.add_argument("--order", choices=sorted(REQUEST_ORDERS), help="arrival order within a round")
    sub.add_argument(
        "--prefix-rounds", dest="prefix_rounds", type=int,
        help="leading rounds served as one offline batch",
    )
    sub.add_argument("--out", help="output file (generate) or directory (other commands)")
    sub.add_argument("--workers", type=int, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchline",
        description="online matching on the line: adversarial instances, policies, checkers",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    helps = {
        "generate": "emit one adversarial instance as JSON lines",
        "run": "run an experiment suite and print/aggregate results",
        "lemma1": "exact moment identities plus the sorted-distance bound",
        "lemma2": "per-round floor: configuration checks and policy runs",
        "oracle": "exact round game values at tiny sizes",
        "ratio": "aggregate online/offline ratio against its floor",
        "prefix": "advance-knowledge mode: leading rounds served offline",
    }
    for name, fn in _COMMANDS.items():
        sub = subs.add_parser(name, help=helps[name])
        _add_common(sub)
        sub.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        try:
            return args.handler(opts)
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise ValueError(f"out of memory at --n {opts.str_value('n')}{detail}") from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
