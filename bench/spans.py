"""Spans around matchline functions, installed from outside the package.

A span wraps one function of a matchline module.  Installing a span looks
the function up by name at run time and swaps every module attribute bound
to that function object (``from x import f`` copies the binding, so the name
is replaced in each importing module too).  Nothing under ``src/`` changes,
and a name that a later version of the package no longer defines is recorded
as absent instead of failing the run.

Span names follow ``<module>.<function>``.  They are the stage vocabulary of
this repository: later runtime timings reuse them.  Spans nest; a span's self
time is its duration minus the time covered by its direct child spans, so the
self times of one traced call add up to the outermost span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> target "module:attribute[.attribute]" under the matchline package
SPANS: dict[str, str] = {
    "rng.stream_key": "rng:stream_key",
    "adversary.origin_round_numerators": "adversary:origin_round_numerators",
    "adversary.generate": "adversary:generate",
    "adversary.validate": "adversary:Instance.validate",
    "adversary.arrival_order": "adversary:arrival_order",
    "adversary.g_moments": "adversary:g_moments",
    "algorithms.serve.greedy_nearest": "algorithms:serve_request_greedy",
    "algorithms.serve.batch_round_optimal": "algorithms:serve_round_batch_optimal",
    "algorithms.serve.permutation": "algorithms:serve_request_permutation",
    "algorithms.serve.random_free": "algorithms:serve_request_random_free",
    "algorithms.run_with_prefix": "algorithms:run_with_prefix",
    "offline.rank_pairing": "algorithms:_offline_total_num",
    "lemma_checks.lemma1_exact": "lemma_checks:lemma1_exact",
    "lemma_checks.lemma1_distance_mc": "lemma_checks:lemma1_distance_mc",
    "lemma_checks.lemma2_config_property": "lemma_checks:lemma2_config_property",
    "lemma_checks.segment_sums": "lemma_checks:_sum_squared_segments",
    "lemma_checks.empirical_report": "lemma_checks:empirical_report_from_stats",
    "lemma_checks.ratio_report": "lemma_checks:ratio_report_from_stats",
    "oracle.oracle_report": "oracle:oracle_report",
    "oracle.exact_round_game_value": "oracle:exact_round_game_value",
    "experiments.run_suite": "experiments:run_suite",
    "experiments.write_outputs": "experiments:write_outputs",
    "cli.main": "cli:main",
}

# count name -> target; counted calls are not timed, so hot constructors
# can be counted without the cost of a span.
COUNTERS: dict[str, str] = {
    "geometry.coord_objects": "geometry:Coord.__post_init__",
}

PLAY_SPAN = "algorithms.run_with_prefix"


def _on_config_property(tracer: "Tracer", result, seconds: float) -> None:
    tracer.counts["lemma_checks.configs_checked"] += getattr(result, "trials", 0)


def _on_write_outputs(tracer: "Tracer", result, seconds: float) -> None:
    tracer.counts["experiments.bytes_written"] += sum(Path(p).stat().st_size for p in result)


def _on_play(tracer: "Tracer", result, seconds: float) -> None:
    tracer.plays[getattr(result, "algorithm", "unknown")].append(seconds)


# span name -> hook(tracer, result, seconds), run after the span's clock stops
RESULT_HOOKS = {
    "lemma_checks.lemma2_config_property": _on_config_property,
    "experiments.write_outputs": _on_write_outputs,
    PLAY_SPAN: _on_play,
}


def _resolve(target: str):
    """(owner, attribute, original) for 'module:attr.path', or None if absent."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(f"matchline.{mod_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # class attributes must be plain functions defined on that class
    original = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


class Tracer:
    """In-memory span and count aggregation; written out once, by the caller."""

    def __init__(self) -> None:
        self.scope = ""
        # (scope, span name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.plays: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._child = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def install(self, spans: dict = SPANS, counters: dict = COUNTERS) -> None:
        for name, target in spans.items():
            self._install(name, target, self._span)
        for name, target in counters.items():
            self._install(name, target, self._counter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, name: str, target: str, make) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, original = found
        wrapper = make(name, original)
        if inspect.isclass(owner):
            self._swap(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "matchline" or mod_name.startswith("matchline."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn):
        tracer = self
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = tracer._child
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                rec = tracer.spans[(tracer.scope, name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
            if hook is not None:
                hook(tracer, result, dt)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict[str, list]:
        """Span records summed over scopes: name -> [calls, total_s, self_s]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), rec in self.spans.items():
            agg = out[name]
            for idx in range(3):
                agg[idx] += rec[idx]
        return dict(out)

    def by_scope(self, divisor: float = 1.0) -> dict[str, dict[str, float]]:
        """Self seconds / divisor per span, largest first, per scope (one
        scope per CLI command)."""
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for (scope, name), rec in self.spans.items():
            out[scope][name] = rec[2] / divisor
        return {scope: dict(sorted(v.items(), key=lambda kv: -kv[1])) for scope, v in out.items()}
