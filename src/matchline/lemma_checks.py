"""Exact and statistical checkers for the distribution's cost guarantees.

Three claims about the construction are verified, referenced by id:

  lemma1   (offline proximity) For every ell, the expected distance between
           the ell-th leftmost origin and the ell-th leftmost server is at
           most sqrt(log2(n+1)) + 3.  The exact ingredients, checked with
           zero tolerance, are E[g_ell] = ell - ell/(n+1) and
           Var[g_ell] <= log2(n+1)/4 for g_ell = #origins left of server ell.

  lemma2   (per-round floor) Any policy pays, in expectation, more than
           (n+1)/12 per round.  Exact ingredient: free servers split each
           round-r cell into segments of integer lengths d, a request landing
           in a segment costs at least its distance to the closer endpoint,
           so the round costs at least sum d^2/(4*2^r); that exceeds
           (n+1)/12 for every configuration of the reachable size.

  theorem  (ratio floor) Combining the two, the aggregate online/offline
           cost ratio is at least sqrt(log2(n+1))/12.  At desk scales the
           checker verifies the two finite-n aggregate inequalities behind
           it rather than the asymptotic statement; the ratio and its floor
           are reported for information.

lemma1_distance_mc draws its own instances; the per-round floor and
theorem reports of each policy are built from RunStats the trial runner
already holds, so the theorem's offline cap reads the suite's own trials.
lemma2_config_property is exact at every n: the least sum d^2 over all
configurations of a round has a closed form (min_segment_sum), and the
configuration attaining it is built and measured by the segment code.

Statistical checks use a 3-standard-error margin and need at least two
trials; exact checks use none.

Multiple comparisons: each 3-SE comparison is one-sided, so it falsely
fails with probability about 0.00135 when the true mean sits exactly at
its bound.  The lemma2_empirical report makes one comparison per round
and policy; the acceptance gate's per-round criterion makes 72 (4
policies x 18 rounds over n = 255 and 1023), so its family-wise
false-fail rate is at most 72 x 0.00135 = 9.7 % by the Bonferroni
bound.  That bound applies only if every true round mean sat exactly at
(n+1)/12; at the gate's seed the smallest of the 72 round means is 1.624
times (n+1)/12, and none is closer than 22.4 standard errors above it
(both batch_round_optimal at n = 1023), so a false fail is far less likely
than that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from matchline.adversary import (
    GenParams,
    g_moment_nums,
    instance_seeds,
    origin_round_numerators,
    reachable_free_count,
    round_cells,
    rounds_for,
)
from matchline.algorithms import RunStats, cost_ratio

# Bytes of int64 distances one block of lemma1 trials holds: 64 rows at n = 1023.
BLOCK_DRAW_BYTES = 1 << 19

# Ranks lemma1_exact takes in one numpy pass: each int64 temporary is 512 KiB.
RANK_CHUNK = 1 << 16


def round_floor(n: int) -> Fraction:
    """lemma2's per-round floor (n+1)/12: every round of every policy costs
    more than this in expectation."""
    return Fraction(n + 1, 12)


@dataclass(frozen=True)
class RoundConfig:
    """Free-server configuration at the start of round r on [0, n+1]."""

    n: int
    r: int
    free_servers: tuple[int, ...]

    def __post_init__(self) -> None:
        round_cells(self.n, self.r)
        _free_mask(self.n, [self.free_servers])


def _free_mask(n: int, configs) -> np.ndarray:
    """(rows, n) mask of each row's free servers among 1..n.  Refuses rows
    of unequal length or of other than integers, and any row that does not
    climb strictly within 1..n, checked at once as positive steps from 0
    through the row to n+1; RoundConfig checks its one row here too."""
    free = np.zeros((len(configs), n), dtype=bool)
    if not len(configs):
        return free
    try:
        servers = np.asarray(configs)
    except ValueError:  # numpy refuses ragged rows
        servers = np.zeros(0)
    # an int64 cast would truncate 1.5 to server 1
    if servers.ndim != 2 or (servers.size and servers.dtype.kind not in "iu"):
        raise ValueError("configurations must be rows of integer free servers, all of one length")
    servers = servers.astype(np.int64, copy=False)
    steps = np.diff(servers, axis=1, prepend=0, append=n + 1)
    if bad := np.flatnonzero((steps <= 0).any(axis=1)).tolist():
        raise ValueError(
            f"free servers must be strictly increasing within 1..{n}, got {configs[bad[0]]}"
        )
    free[np.arange(len(configs))[:, None], servers - 1] = True
    return free


def _sum_squared_segments(n: int, r: int, free: np.ndarray) -> np.ndarray:
    """Per row of a (rows, n) free-server mask: the sum of squared segment
    lengths over all cells."""
    present = np.zeros((len(free), n + 2), dtype=bool)  # positions 0..n+1
    present[:, 1:-1] = free
    present[:, :: 1 << r] = True  # the cell bounds; n+1 is one
    counts = present.sum(axis=1)
    pos = np.nonzero(present)[1]  # each row's points, ascending
    d = np.diff(pos)
    d[d < 0] = 0  # the step from one row's n+1 back to the next row's 0
    return np.add.reduceat(d * d, np.cumsum(counts) - counts)


def segment_square_sums(n: int, r: int, configs) -> np.ndarray:
    """Sum d^2 of squared segment lengths over round r's cells, as int64, for
    each configuration, given as integer free-server tuples of one size; a
    round outside 1..i or a row that is not a configuration raises
    ValueError.  sum d^2/(4*2^r) floors the expected cost of the round: a
    request pays at least d/4 on average on a segment of length d, where it
    lands with probability d/2^r."""
    round_cells(n, r)
    return _sum_squared_segments(n, r, _free_mask(n, configs))


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one checker: estimate vs bound with its error margin.

    trials == 0 marks an exact check (standard_error is 0 and the comparison
    has no tolerance).  details carries JSON-safe per-check extras.
    """

    lemma_id: str
    n: int
    trials: int
    observed: float | None  # None only for a cost_ratio with no value
    bound: float
    standard_error: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "n": self.n,
            "trials": self.trials,
            "observed": self.observed,
            "bound": self.bound,
            "standard_error": self.standard_error,
            "pass": self.passed,
            "details": self.details,
        }


def _report_context(rep: LemmaReport) -> str:
    if "algorithm" in rep.details:
        return str(rep.details["algorithm"])
    if "r" in rep.details:
        return f"r={rep.details['r']}"
    return ""


def format_cell(value: float | None, width: int, spec: str) -> str:
    """value in format spec, right-aligned to width; None shows as "-"."""
    return f"{'-' if value is None else format(value, spec):>{width}}"


def render_reports(reports: list[LemmaReport]) -> str:
    head = (
        f"{'check':<24}{'context':<21}{'n':>6}{'trials':>8}"
        f"{'observed':>14}{'bound':>14}{'se':>12}  verdict"
    )
    lines = [head, "-" * len(head)]
    for rep in reports:
        lines.append(
            f"{rep.lemma_id:<24}{_report_context(rep):<21}{rep.n:>6}{rep.trials:>8}"
            f"{format_cell(rep.observed, 14, '.6g')}{rep.bound:>14.6g}{rep.standard_error:>12.3g}"
            f"  {'pass' if rep.passed else 'FAIL'}"
        )
    return "\n".join(lines)


def _mean_se(nums: list[int], k: int) -> tuple[float, float]:
    """Mean and standard error of integer numerators at scale 2^-k; the mean
    is exact, rounded once."""
    xs = np.array(nums, dtype=np.float64) / float(1 << k)
    return float(Fraction(sum(nums), len(nums) << k)), math.sqrt(float(xs.var(ddof=1)) / xs.size)


# ---------------------------------------------------------------------------
# lemma1: distribution geometry


def _rank_bound(i: int) -> float:
    """lemma1's bound on each rank's expected distance: sqrt(i) + 3."""
    return math.sqrt(i) + 3.0


def lemma1_exact(n: int) -> LemmaReport:
    """Zero-tolerance check of the mean identity and the variance bound at
    every rank, RANK_CHUNK ranks per numpy pass."""
    i = rounds_for(n)
    if i > 30:
        raise ValueError(f"n = {n}: the variance numerators overflow int64 past n = 2**30 - 1")
    max_var_num, argmax_ell = 0, 0  # the largest variance's numerator over 4**i
    identity_ok = variance_ok = True
    for lo in range(1, n + 1, RANK_CHUNK):
        ell = np.arange(lo, min(lo + RANK_CHUNK, n + 1), dtype=np.int64)
        mean_num, var_num = g_moment_nums(ell, i)
        # mean_num / 2**i == ell n / (n + 1) with n + 1 = 2**i, and
        # var_num / 4**i <= i / 4
        identity_ok &= bool(np.all(mean_num == ell * n))
        variance_ok &= bool(np.all(var_num <= i << (2 * i - 2)))
        top = int(np.argmax(var_num))
        if var_num[top] > max_var_num:
            max_var_num, argmax_ell = int(var_num[top]), lo + top
    max_var = Fraction(max_var_num, 1 << (2 * i))
    return LemmaReport(
        lemma_id="lemma1_exact",
        n=n,
        trials=0,
        observed=float(max_var),
        bound=i / 4,
        standard_error=0.0,
        passed=identity_ok and variance_ok,
        details={
            "mean_identity": identity_ok,
            "variance_bound": variance_ok,
            "max_variance": f"{max_var.numerator}/{max_var.denominator}",
            "argmax_ell": argmax_ell,
        },
    )


def lemma1_distance_mc(
    n: int, trials: int, seed: int, grid_k: int | None = None
) -> LemmaReport:
    """Monte Carlo check that max_ell E|origin_(ell) - ell| <= sqrt(i) + 3.

    origin_(ell) is the ell-th leftmost origin.  Distances accumulate as
    exact integers per ell; only the final means and standard errors are
    floats.  Pass rule: observed max <= bound + 3 * SE(argmax ell).  Trials
    are drawn in blocks of BLOCK_DRAW_BYTES // (8 n) rows, 64 at n = 1023;
    sumsq adds one trial's squares at a time, in trial order, because a float
    sum rounds by its order and the block size must not change a result.
    """
    p = GenParams.for_size(n, grid_k, seed)  # validates grid_k before 2**k is formed
    i, k = p.i, p.grid_k
    if trials < 100:
        raise ValueError("need at least 100 trials for a stable standard error")
    # exact integer accumulation: each distance is below 2**(i + k), so the
    # sum of trials of them is below 2**(i + k + trials.bit_length())
    if i + k + trials.bit_length() > 63:
        raise ValueError("trials too large for exact accumulation at this grid")
    servers = np.arange(1, n + 1, dtype=np.int64) << np.int64(k)
    sums = np.zeros(n, dtype=np.int64)
    sumsq = np.zeros(n, dtype=np.float64)
    scale = float(1 << k)
    rows = max(1, BLOCK_DRAW_BYTES // (8 * n))
    for a in range(0, trials, rows):
        block = instance_seeds(seed, range(a, min(a + rows, trials)))
        d = np.concatenate(origin_round_numerators(i, k, block), axis=1)
        d.sort(axis=1)
        d -= servers
        np.abs(d, out=d)  # |origin_(ell) - ell| at scale k, one row per trial
        sums += d.sum(axis=0)
        for row in d:
            df = row / scale
            df *= df
            sumsq += df
    means = sums / scale / trials
    var = (sumsq - trials * means * means) / (trials - 1)
    se = np.sqrt(np.maximum(var, 0.0) / trials)
    ell_star = int(np.argmax(means))
    observed = float(means[ell_star])
    se_star = float(se[ell_star])
    bound = _rank_bound(i)
    return LemmaReport(
        lemma_id="lemma1_distance_mc",
        n=n,
        trials=trials,
        observed=observed,
        bound=bound,
        standard_error=se_star,
        passed=observed <= bound + 3.0 * se_star,
        details={"argmax_ell": ell_star + 1, "grid_k": k, "seed": seed},
    )


# ---------------------------------------------------------------------------
# lemma2: per-round cost floor


def _least_part_squares(w: int, p: int) -> int:
    """The least sum of squares of p positive integers that sum to w: the
    parts as even as they go."""
    q, rem = divmod(w, p)
    return (p - rem) * q * q + rem * (q + 1) * (q + 1)


def min_segment_sum(n: int, r: int) -> int:
    """The least sum d^2 over every configuration of round r's reachable size.

    Round r has c = (n+1)/2^r cells of width w = 2^r.  A free server on a
    cell bound adds no segment, so at most c (w-1) of the f free servers
    count, and a cell holding m of them contributes at least
    _least_part_squares(w, m + 1).  That is convex and decreasing in m, so
    the minimum puts as many servers inside cells as fit, spread evenly.
    """
    c, w = (n + 1) >> r, 1 << r
    inner = min(reachable_free_count(n, r), c * (w - 1))
    base, extra = divmod(inner, c)
    return extra * _least_part_squares(w, base + 2) + (c - extra) * _least_part_squares(w, base + 1)


def _min_free_mask(n: int, r: int) -> np.ndarray:
    """(1, n) mask of a configuration attaining min_segment_sum: the extra
    servers in the leftmost cells, each cell cut into even parts with the
    smaller parts first, and the servers that fit inside no cell on the
    leftmost cell bounds."""
    c, w = (n + 1) >> r, 1 << r
    f = reachable_free_count(n, r)
    inner = min(f, c * (w - 1))
    base, extra = divmod(inner, c)
    free = np.zeros((1, n), dtype=bool)
    free[0, w * np.arange(1, f - inner + 1) - 1] = True
    for cells, m in ((np.arange(extra), base + 1), (np.arange(extra, c), base)):
        q, rem = divmod(w, m + 1)
        k = np.arange(1, m + 1)
        cuts = k * q + np.maximum(k - (m + 1 - rem), 0)  # ends of the first k parts
        free[0, (cells[:, None] * w + cuts).ravel() - 1] = True
    return free


def lemma2_config_property(n: int, r: int) -> LemmaReport:
    """Exact check of the per-round floor over every configuration of round r.

    The gate is sum d^2/(4*2^r) > round_floor(n) at the least sum d^2 of
    every configuration of the reachable size (floor_strict), taken from
    min_segment_sum's closed form.  The configuration attaining it is built
    as a mask and measured by _sum_squared_segments; the report passes only
    when that measurement equals the closed form, so each checks the other.
    Two facts behind the floor are identities, not gates: with f free
    servers there are at most s_r = (n+1)/2^r + f segments, since each free
    server adds at most one, and sum d^2 >= (n+1)^2 / s_r by Cauchy-Schwarz.
    """
    f = reachable_free_count(n, r)
    min_sum_d2 = min_segment_sum(n, r)
    min_lower_bound = Fraction(min_sum_d2, 4 << r)
    free = _min_free_mask(n, r)
    # sum_d2 <= (n+1) 2^r: int64 is exact for n < 2^30
    measured = int(_sum_squared_segments(n, r, free)[0])
    floor_ok = min_lower_bound > round_floor(n)
    min_config = (np.flatnonzero(free[0]) + 1).tolist() if f <= 32 else []
    return LemmaReport(
        lemma_id="lemma2_config_property",
        n=n,
        trials=0,
        observed=float(min_lower_bound),
        bound=float(round_floor(n)),
        standard_error=0.0,
        passed=floor_ok and measured == min_sum_d2,
        details={
            "r": r,
            "mode": "exact",
            "free_count": f,
            "floor_strict": floor_ok,
            "min_config": min_config,
            "min_lower_bound": f"{min_sum_d2}/{4 << r}",
        },
    )


def empirical_report_from_stats(stats: list[RunStats], seed: int) -> LemmaReport:
    """Per-round floor report from already-collected runs: every round's
    mean cost must be >= (n+1)/12 - 3 SE."""
    first = stats[0]
    n = first.n
    floor = float(round_floor(n))
    rows = []
    for idx in range(len(first.round_costs)):  # play leaves at least one
        mean, se = _mean_se([s.round_costs[idx] for s in stats], first.grid_k)
        rows.append({
            "round": first.prefix_rounds + 1 + idx, "mean": mean, "se": se,
            "pass": mean >= floor - 3.0 * se,
        })
    # observed is the round closest to failing; the first of equals wins
    worst = min(rows, key=lambda row: row["mean"] - (floor - 3.0 * row["se"]))
    return LemmaReport(
        lemma_id="lemma2_empirical",
        n=n,
        trials=len(stats),
        observed=worst["mean"],
        bound=floor,
        standard_error=worst["se"],
        passed=all(row["pass"] for row in rows),
        details={
            "algorithm": first.algorithm,
            "prefix_rounds": first.prefix_rounds,
            "rounds_checked": len(rows),
            "per_round": rows,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# theorem


def ratio_report_from_stats(stats: list[RunStats], seed: int) -> LemmaReport:
    """Aggregate-ratio report computed from already-collected runs.

    Passes when both finite-n inequalities behind the ratio floor hold:
    mean online total >= (n+1) i/12 - 3 SE, and the offline cap, mean
    offline total <= n (sqrt(i) + 3) + n 2^-grid_k + 3 SE.  The offline
    optimum is the rank pairing of sorted requests to servers, so the cap
    is lemma1's per-rank bound summed over the n ranks plus the snapping
    slack.  The aggregate ratio sum online / sum offline and its floor
    sqrt(i)/12 are information only, since any ratio is at least 1.
    """
    first = stats[0]
    n, k = first.n, first.grid_k
    i = rounds_for(n)
    on_nums = [s.online_total for s in stats]
    off_nums = [s.offline_total for s in stats]
    sum_on, sum_off = sum(on_nums), sum(off_nums)
    mean_on, se_on = _mean_se(on_nums, k)
    mean_off, se_off = _mean_se(off_nums, k)
    t = len(stats)
    agg = cost_ratio(sum_on, sum_off)
    se_ratio = 0.0
    if sum_off:
        scale = float(1 << k)
        on = np.array(on_nums, dtype=np.float64) / scale
        off = np.array(off_nums, dtype=np.float64) / scale
        cov = float(np.cov(on, off, ddof=1)[0, 1]) / t
        var_ratio = max(se_on**2 - 2 * agg * cov + agg * agg * se_off**2, 0.0)
        se_ratio = math.sqrt(var_ratio) / mean_off
    numerator_floor = float(round_floor(n) * i)
    numerator_pass = mean_on >= numerator_floor - 3.0 * se_on
    denominator_cap = n * _rank_bound(i) + n / float(1 << k)
    denominator_pass = mean_off <= denominator_cap + 3.0 * se_off
    return LemmaReport(
        lemma_id="theorem_ratio",
        n=n,
        trials=t,
        observed=agg,
        bound=math.sqrt(i) / 12.0,
        standard_error=se_ratio,
        passed=numerator_pass and denominator_pass,
        details={
            "algorithm": first.algorithm,
            "mean_online": mean_on,
            "se_online": se_on,
            "numerator_floor": numerator_floor,
            "numerator_pass": numerator_pass,
            "mean_offline": mean_off,
            "se_offline": se_off,
            "denominator_cap": denominator_cap,
            "denominator_pass": denominator_pass,
            "note": (
                "the ratio floor sqrt(log2(n+1))/12 only exceeds 1 past n=2^144;"
                " at desk sizes the informative checks are the aggregate"
                " numerator floor and denominator cap above"
            ),
            "seed": seed,
        },
    )
