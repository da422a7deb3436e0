"""matchline benchmark: time to a verdict, end to end and per layer.

    python3 bench/bench.py --workload lemma_n1023 --seed 1 --seconds 45 --trace 0

Run it from the root of a matchline source checkout: it imports the package
from ./src and drives it through its public entry point, matchline.cli.main,
in this process with stdout captured.  Set-up time is measured separately in
fresh interpreters.  Every workload command gets --seed from the arguments,
so the same seed gives the same inputs and the same output bytes.

--trace 0 reports the end-to-end metrics.  Their times are scaled by a fixed
reference loop timed next to every command (reference_loop), because the
shared host's speed drifts by tens of percent between runs; the unscaled
times are in the record.  --trace 1 makes a separate traced
run (spans installed from bench/spans.py, at --workers 1) and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it is the full record: provenance, quartiles and sample counts, the
sha256 of every output file, span shares per command, and any problems.
With --out FILE the record is also written to FILE.  bench/README.md says
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
SETUP_REPEATS = 15
# Near the time of reference_loop() on the reference box (README.md).
# End-to-end times are scaled to it: they read as seconds on a box whose
# reference loop takes exactly this long.
REF_SECONDS = 0.04
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import matchline.cli; matchline.cli.build_parser()"
)


@dataclass(frozen=True)
class Workload:
    """CLI commands run in order as one repetition; --seed and --out are added.

    items is the work one repetition completes: plays (one policy run on one
    instance, offline cost included) where policies run, otherwise sampled
    instances and configurations checked.
    """

    commands: tuple[tuple[str, ...], ...]
    items: int


WORKLOADS = {
    # exact and sampled lemma checks at n = 1023: no online policy, no generate()
    "lemma_n1023": Workload(
        (
            ("lemma1", "--n", "1023", "--trials", "200"),
            ("lemma2", "--n", "1023", "--trials", "300"),
            ("oracle", "--n", "7"),
        ),
        # lemma1 instances + lemma2 configurations (round 1 has one) + the
        # C(7,7) + C(7,3) + C(7,1) oracle configurations
        items=200 + 1 + 9 * 300 + 1 + 35 + 7,
    ),
    # the run suite with all four policies, permutation dominating, on a
    # process pool: fan-out, pickling, shuffled arrivals, a large trials.jsonl
    "suite_n255_w2": Workload(
        (("run", "--n", "255", "--order", "shuffled", "--trials", "32", "--workers", "2"),),
        items=32 * 4,
    ),
}

POLICIES = ("greedy_nearest", "batch_round_optimal", "permutation", "random_free")
COUNT_METRICS = {
    "geometry.coord_objects": "count",
    "lemma_checks.configs_checked": "count",
    "experiments.bytes_written": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a --trace 1 run reports, with its unit."""
    units: dict[str, str] = {}
    for name in spans.SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNT_METRICS)
    units["cli.stdout_bytes"] = "bytes"
    for policy in POLICIES:
        units[f"algorithms.play_ms.{policy}.p50"] = "ms"
        units[f"algorithms.play_ms.{policy}.tail"] = "ms"
        units[f"algorithms.play_ms.{policy}.samples"] = "count"
    units["experiments.parallel_efficiency"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work matchline does:
    keyed BLAKE2b stream keys, 64-bit integer mixing, and edits of small
    sorted numpy arrays.

    The shared host's speed changes up to twofold within a minute, and the
    program's and this loop's times move together.  Timing this loop next to
    every command, and scaling each command's time by REF_SECONDS / (the
    loop's time), cancels most of that drift.  The loop does not depend on
    matchline, so a change to the package cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        h = hashlib.blake2b(digest_size=8, key=i.to_bytes(8, "little"))
        h.update(str(i).encode())
        z = int.from_bytes(h.digest(), "little")
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        acc ^= z ^ (z >> 31)
    arr = np.arange(0, 512, 2, dtype=np.int64)
    for x in range(1, 1400, 2):
        x %= 511
        pos = int(np.searchsorted(arr, x))
        grown = np.insert(arr, pos, x)
        acc += int(np.cumsum(np.abs(grown[1:] - grown[:-1]))[-1])
        arr = np.delete(grown, pos)
    if acc == 0:  # uses the result, and never holds
        raise AssertionError("reference loop produced no result")
    return time.perf_counter() - t0


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled to the reference box by the mean of the reference
    loop's times on either side of it; refs holds one more entry than times."""
    return [t * REF_SECONDS * 2 / (refs[idx] + refs[idx + 1]) for idx, t in enumerate(times)]


@dataclass
class Rep:
    """One repetition: every command of the workload, timed one by one.

    refs holds the reference loop's time before each command and after the
    last one, when the repetition was run with the reference loop."""

    walls: list[float]
    cpus: list[float]
    refs: list[float]
    codes: list
    stdout_bytes: int
    stderr: list[str]
    digests: list[dict[str, str]]

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)

    @property
    def norm_wall(self) -> float:
        return sum(scaled(self.walls, self.refs))

    @property
    def norm_cpu(self) -> float:
        return sum(scaled(self.cpus, self.refs))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, rep: Rep, ref: Rep | None, bad_commands: set[int]) -> None:
        for idx, code in enumerate(rep.codes):
            self.attempted += 1
            ok = code == 0 and idx not in bad_commands
            if ref is not None and rep.digests[idx] != ref.digests[idx]:
                ok = False
                self.problems.append(f"command {idx}: output bytes differ from the first repetition")
            if code != 0:
                self.problems.append(f"command {idx}: exit status {code}: {rep.stderr[idx][-2000:]}")
            if not ok:
                self.failed += 1


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _invoke(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # attribute lookup, so a traced main is seen
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_rep(
    cli,
    commands,
    seed: int,
    out_root: Path,
    tracer: spans.Tracer | None = None,
    reference: bool = False,
) -> Rep:
    shutil.rmtree(out_root, ignore_errors=True)
    argvs = [
        [*cmd, "--seed", str(seed), "--out", str(out_root / str(idx))]
        for idx, cmd in enumerate(commands)
    ]
    results, walls, cpus, refs = [], [], [], []
    for argv in argvs:
        if reference:
            refs.append(reference_loop())
        if tracer is not None:
            tracer.scope = argv[0]
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        results.append(_invoke(cli, argv))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_seconds() - cpu0)
    if reference:
        refs.append(reference_loop())
    return Rep(
        walls=walls,
        cpus=cpus,
        refs=refs,
        codes=[r[0] for r in results],
        stdout_bytes=sum(len(r[1].encode()) for r in results),
        stderr=[r[2] for r in results],
        digests=[checks.digests(out_root / str(idx)) for idx in range(len(commands))],
    )


def timed_reps(run, until: float, min_reps: int) -> list[Rep]:
    reps = [run()]
    while len(reps) < min_reps or time.perf_counter() < until:
        reps.append(run())
    return reps


def with_workers(commands, workers: int):
    out = []
    for cmd in commands:
        cmd = list(cmd)
        if "--workers" in cmd:
            cmd[cmd.index("--workers") + 1] = str(workers)
        out.append(tuple(cmd))
    return tuple(out)


def pool_workers(commands) -> int:
    return max(int(cmd[cmd.index("--workers") + 1]) if "--workers" in cmd else 1 for cmd in commands)


def check_outputs(commands, seed: int, ref_root: Path) -> tuple[set[int], list[str]]:
    """Content checks of the reference repetition: (bad command indices, problems)."""
    bad: set[int] = set()
    problems: list[str] = []
    for idx, cmd in enumerate(commands):
        argv, out_dir = list(cmd), ref_root / str(idx)
        try:
            if argv[0] == "run":
                found = checks.check_run(argv, out_dir, seed)
            elif argv[0] == "lemma1":
                found = checks.check_lemma1(out_dir)
            elif argv[0] == "lemma2":
                found = checks.check_lemma2(argv, out_dir)
            elif argv[0] == "oracle":
                found = checks.check_oracle(argv, out_dir)
            else:
                found = [f"no output check for {argv[0]}"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            bad.add(idx)
            problems.extend(f"command {idx} ({argv[0]}): {p}" for p in found)
    return bad, problems


def spread(values: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "samples": len(values),
        "unit": unit,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest sample with at least ten samples
    above it; the median when there are 20 samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_seconds(repeats: int) -> tuple[list[float], list[float]]:
    """(raw, scaled) set-up times of fresh interpreters, each scaled by the
    reference loop timed on either side of it."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    raw, refs = [], [reference_loop()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=120)
        raw.append(time.perf_counter() - t0)
        refs.append(reference_loop())
    return raw, scaled(raw, refs)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure_end_to_end(cli, wl: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    """(spread of each end-to-end metric, spread of the unscaled times,
    output digests)."""
    ref = run_rep(cli, wl.commands, seed, work / "ref")
    bad, problems = check_outputs(wl.commands, seed, work / "ref")
    tally.problems += problems
    tally.add(ref, None, bad)
    until = time.perf_counter() + seconds
    reps = timed_reps(
        lambda: run_rep(cli, wl.commands, seed, work / "rep", reference=True), until, MIN_REPS
    )
    peak = peak_rss_mb()
    for rep in reps:
        tally.add(rep, ref, bad)
    if pool_workers(wl.commands) > 1:
        # worker count must never reach an output byte
        tally.add(run_rep(cli, with_workers(wl.commands, 1), seed, work / "w1"), ref, bad)
    norm_walls = [r.norm_wall for r in reps]
    setup_raw, setup_scaled = setup_seconds(SETUP_REPEATS)
    spreads = {
        "norm_wall_s": spread(norm_walls, "s"),
        "norm_items_per_s": spread([wl.items / w for w in norm_walls], "items/s"),
        "norm_cpu_s": spread([r.norm_cpu for r in reps], "s"),
        "peak_rss_mb": spread([peak], "MB"),
        "setup_s": spread(setup_scaled, "s"),
    }
    raw = {
        "wall_s": spread([r.wall for r in reps], "s"),
        "cpu_s": spread([r.cpu for r in reps], "s"),
        "reference_loop_s": spread([t for r in reps for t in r.refs], "s"),
        "setup_s": spread(setup_raw, "s"),
    }
    return spreads, raw, ref.digests


def measure_layers(cli, wl: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    """(per-layer metrics, trace detail, output digests).

    Untraced and traced repetitions at --workers 1 (spans in pool workers
    are not visible from here); with a pool workload, also untraced
    repetitions at its own worker count for the parallel efficiency."""
    commands = with_workers(wl.commands, 1)
    workers = pool_workers(wl.commands)
    untraced_share = 0.4 if workers > 1 else 0.5
    start = time.perf_counter()
    ref = run_rep(cli, commands, seed, work / "ref")
    bad, problems = check_outputs(commands, seed, work / "ref")
    tally.problems += problems
    tally.add(ref, None, bad)

    plays = spans.Tracer()  # one span per play: negligible cost next to a play
    plays.install({spans.PLAY_SPAN: spans.SPANS[spans.PLAY_SPAN]}, {})
    try:
        untraced = timed_reps(
            lambda: run_rep(cli, commands, seed, work / "rep"), start + untraced_share * seconds, 2
        )
    finally:
        plays.uninstall()
    pooled = []
    if workers > 1:
        pooled = timed_reps(
            lambda: run_rep(cli, wl.commands, seed, work / "rep"), start + 0.6 * seconds, 2
        )
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = timed_reps(
            lambda: run_rep(cli, commands, seed, work / "rep", tracer), start + seconds, 2
        )
    finally:
        tracer.uninstall()
    for rep in untraced + pooled + traced:
        tally.add(rep, ref, bad)

    reps = len(traced)
    traced_wall = sum(r.wall for r in traced)
    untraced_median = statistics.median(r.wall for r in untraced)
    totals = tracer.totals()
    units = per_layer_units()
    metrics: dict[str, float] = {}
    for name in spans.SPANS:
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.self_s"] = self_s / reps
        metrics[f"{name}.calls"] = calls / reps
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts[name] / reps
    metrics["cli.stdout_bytes"] = statistics.median(r.stdout_bytes for r in traced)
    play_levels = {}
    for policy in POLICIES:
        samples = plays.plays.get(policy, [])
        if samples:
            level, value = tail(samples)
            metrics[f"algorithms.play_ms.{policy}.p50"] = 1e3 * statistics.median(samples)
            metrics[f"algorithms.play_ms.{policy}.tail"] = 1e3 * value
            play_levels[policy] = level
        else:
            metrics[f"algorithms.play_ms.{policy}.p50"] = 0.0
            metrics[f"algorithms.play_ms.{policy}.tail"] = 0.0
        metrics[f"algorithms.play_ms.{policy}.samples"] = len(samples)
    metrics["experiments.parallel_efficiency"] = (
        untraced_median / (workers * statistics.median(r.wall for r in pooled)) if pooled else 0.0
    )
    metrics["trace.overhead"] = statistics.median(r.wall for r in traced) / untraced_median - 1.0
    metrics["trace.wall_s"] = traced_wall / reps
    metrics["trace.unattributed_s"] = (traced_wall - sum(rec[2] for rec in totals.values())) / reps
    if set(metrics) != set(units):
        raise RuntimeError("per-layer metric list out of sync with per_layer_units()")
    detail = {
        "traced_reps": reps,
        "untraced_reps": len(untraced),
        "pooled_reps": len(pooled),
        "pool_workers": workers,
        "absent": tracer.absent,
        "play_tail_percentile": play_levels,
        "share": {
            name: rec[2] / traced_wall
            for name, rec in sorted(totals.items(), key=lambda kv: -kv[1][2])
        },
        "self_s_by_command": tracer.by_scope(reps),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail, ref.digests


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy
    import matchline

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "matchline": matchline.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "argv": sys.argv,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="workload seed, passed to every command")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record to this file")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        p.error("--seed must be a 64-bit value")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "matchline" / "cli.py").is_file():
        print(f"error: {SRC / 'matchline'} not found; run from a matchline checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchline.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: matchline imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, trace_detail, outputs = measure_layers(cli, wl, args.seed, args.seconds, work, tally)
            detail = {"trace": trace_detail}
        else:
            spreads, raw, outputs = measure_end_to_end(cli, wl, args.seed, args.seconds, work, tally)
            metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in spreads.items()}
            detail = {"end_to_end": spreads, "unscaled": raw}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "commands": [list(c) for c in wl.commands],
        "items_per_rep": wl.items,
        "provenance": provenance(args.seed),
        "outputs_sha256": {
            f"{idx}/{name}": digest
            for idx, files in enumerate(outputs)
            for name, digest in files.items()
        },
        "problems": tally.problems,
        **detail,
        "result": result,
    }
    print(json.dumps(record))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
