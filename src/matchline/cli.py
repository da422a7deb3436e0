"""Command-line front end.

Subcommands: generate, run, lemma1, lemma2, oracle.  run is the one command
that plays policies; the others check the construction without any.  Each
takes --config and the options it reads, with its own defaults (_COMMANDS);
any other flag is a usage error.  oracle also takes --seed, unread, so one
seed can go to every command.  --config names a flat key=value file whose
values become the command's defaults, so flags win over the file and the
file over built-in defaults; a key no command takes is an error, a key only
other commands take is ignored.  Exit status is 0 when every emitted report
passes, 1 when any fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
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
from matchline.experiments import ExperimentConfig, run_suite, write_outputs, write_reports
from matchline.lemma_checks import (
    EXHAUSTIVE_N_LIMIT,
    LemmaReport,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    render_reports,
)
from matchline.oracle import auto_grid_k, oracle_report


def _one_size(raw: str) -> int:
    """--n as one size; with _sizes the only parser of --n."""
    if "," in raw:
        raise ValueError(f"--n {raw}: this command takes one size, not a list")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--n {raw}: a size must be an integer") from None


def _sizes(raw: str) -> tuple[int, ...]:
    """--n as a comma list of sizes."""
    return tuple(_one_size(part) for part in raw.split(",") if part.strip())


def _grid_k(raw: str) -> int | None:
    return None if raw.lower() == "none" else int(raw)


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


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
        if key not in _FLAGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _finish(reports: list[LemmaReport], out: str | None) -> int:
    print(render_reports(reports))
    if out is not None:
        write_reports(out, {"reports": [rep.to_json_dict() for rep in reports]})
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


def _cmd_generate(args: argparse.Namespace) -> int:
    n = _one_size(args.n)
    params = GenParams(
        i=rounds_for(n),
        grid_k=default_grid_k(n) if args.grid_k is None else args.grid_k,
        seed=args.seed,
        request_order=args.order,
    )
    text = instance_to_jsonl(generate(params))
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {n + 1} records to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """The suite, with the leading --prefix-rounds (default 0) rounds served
    as one offline batch."""
    result = run_suite(ExperimentConfig(
        n_list=_sizes(args.n),
        algorithms=args.alg,
        trials=args.trials,
        seed=args.seed,
        grid_k=args.grid_k,
        request_order=args.order,
        prefix_rounds=args.prefix_rounds,
        workers=args.workers,
    ))
    if args.out is not None:
        write_outputs(result, args.out)
    print(_render_summary(result.summary_rows))
    print()
    print(render_reports(result.reports))
    return 0 if all(rep.passed for rep in result.reports) else 1


def _cmd_lemma1(args: argparse.Namespace) -> int:
    n = _one_size(args.n)
    # the sampled check validates n, grid_k and trials before its O(n) work,
    # so it runs first: lemma1_exact's O(n) loop would spin on an n out of range
    sampled = lemma1_distance_mc(n, trials=args.trials, seed=args.seed, grid_k=args.grid_k)
    return _finish([lemma1_exact(n), sampled], args.out)


def _cmd_lemma2(args: argparse.Namespace) -> int:
    """The configuration floor of every round: --trials sampled
    configurations per round, or every configuration at n <=
    EXHAUSTIVE_N_LIMIT, where --trials is not read."""
    n = _one_size(args.n)
    i = rounds_for(n)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    samples = None if n <= EXHAUSTIVE_N_LIMIT else args.trials
    reports = [
        lemma2_config_property(n, r, samples=samples, seed=args.seed) for r in range(1, i + 1)
    ]
    return _finish(reports, args.out)


def _cmd_oracle(args: argparse.Namespace) -> int:
    n = _one_size(args.n)
    reports = []
    for r in range(1, rounds_for(n) + 1):
        k = auto_grid_k(n, r)
        if args.grid_k is not None:
            k = min(k, args.grid_k)
        reports.append(oracle_report(n, r, grid_k=k))
    return _finish(reports, args.out)


# every option a command may take: its argparse keywords
_FLAGS = {
    "n": {"help": "problem size 2^i - 1; comma list where sizes repeat"},
    "trials": {"type": int, "help": "trial or sample count"},
    "seed": {"type": int, "help": "root seed"},
    "grid_k": {"type": _grid_k, "help": "request grid exponent, or 'none'"},
    "alg": {"type": _names, "help": f"comma list from: {', '.join(ALGORITHM_KINDS)}"},
    "order": {"choices": sorted(REQUEST_ORDERS), "help": "arrival order within a round"},
    "prefix_rounds": {"type": int, "help": "leading rounds served as one offline batch"},
    "out": {"help": "output file (generate) or directory (other commands)"},
    "workers": {"type": int, "help": "parallel worker processes"},
}

_BASE = {"n": "1023", "seed": 0, "grid_k": None, "out": None}

# command: (handler, help, the options it takes with their defaults)
_COMMANDS = {
    "generate": (_cmd_generate, "emit one adversarial instance as JSON lines",
                 {**_BASE, "order": ORDER_LEFT_TO_RIGHT}),
    "run": (_cmd_run, "run an experiment suite and print/aggregate results",
            {**_BASE, "trials": 100, "alg": ",".join(ALGORITHM_KINDS),
             "order": ORDER_LEFT_TO_RIGHT, "prefix_rounds": 0, "workers": 1}),
    "lemma1": (_cmd_lemma1, "exact moment identities plus the sorted-distance bound",
               {**_BASE, "trials": 1000}),
    "lemma2": (_cmd_lemma2, "per-round floor on free-server configurations",
               {"n": "1023", "seed": 0, "out": None, "trials": 10000}),
    "oracle": (_cmd_oracle, "exact round game values at tiny sizes", {**_BASE, "n": "7"}),
}


def build_parser(file_values: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The parser; file_values (from --config) replace the defaults of the
    commands that take those options, and string defaults go through the
    same type conversion as flags."""
    parser = argparse.ArgumentParser(
        prog="matchline",
        description="online matching on the line: adversarial instances, policies, checkers",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, defaults) in _COMMANDS.items():
        sub = subs.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        sub.add_argument("--config", help="flat key=value option file; flags override it")
        for key in defaults:
            sub.add_argument(f"--{key.replace('_', '-')}", **_FLAGS[key])
        file_defaults = {k: v for k, v in (file_values or {}).items() if k in defaults}
        sub.set_defaults(handler=handler, **{**defaults, **file_defaults})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            args = build_parser(_load_config_file(args.config)).parse_args(argv)
        try:
            return args.handler(args)
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise ValueError(f"out of memory at --n {args.n}{detail}") from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
