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
lemma2_config_property checks configurations a block at a time, as the
rows of one free-server mask, in sampled and exhaustive mode alike; sampled
configurations of round r are consecutive rows of one seeded stream.

Statistical checks use a 3-standard-error margin and need at least two
trials; exact checks use none.

Multiple comparisons: each 3-SE comparison is one-sided, so it falsely
fails with probability about 0.00135 when the true mean sits exactly at
its bound.  The lemma2_empirical report makes one comparison per round
and policy; the acceptance gate's per-round criterion makes 72 (4
policies x 18 rounds over n = 255 and 1023), so its family-wise
false-fail rate is at most 72 x 0.00135 = 9.7 % by the Bonferroni
bound.  That bound applies only if every true round mean sat exactly at
(n+1)/12; at the gate's seed the smallest of the 72 round means is 1.627
times (n+1)/12 and 22.7 standard errors above it, so a false fail is far
less likely than that bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from matchline.adversary import (
    GenParams,
    default_grid_k,
    g_moment_nums,
    instance_seed,
    origin_round_numerators,
    reachable_free_count,
    rounds_for,
)
from matchline.algorithms import RunStats
from matchline.rng import Stream

_TAG_CONFIG = "config"

EXHAUSTIVE_CAP = 2_000_000
# worst round of n=15 enumerates C(15,7) = 6435 configs; n=31 is out of reach
EXHAUSTIVE_N_LIMIT = 15
# Bytes of uint64 draws one block of sampled configurations holds: 64 rows at n = 1023.
BLOCK_DRAW_BYTES = 1 << 19


@dataclass(frozen=True)
class RoundConfig:
    """Free-server configuration at the start of round r on [0, n+1]."""

    n: int
    r: int
    free_servers: tuple[int, ...]

    def __post_init__(self) -> None:
        i = rounds_for(self.n)
        if not 1 <= self.r <= i:
            raise ValueError(f"round must be in 1..{i}, got {self.r}")
        prev = 0
        for s in self.free_servers:
            if not 1 <= s <= self.n:
                raise ValueError(f"free server {s} outside 1..{self.n}")
            if s <= prev:
                raise ValueError("free servers must be strictly increasing")
            prev = s


def _free_mask(n: int, chunk) -> np.ndarray:
    """(rows, n) mask of each row's free servers among 1..n."""
    free = np.zeros((len(chunk), n), dtype=bool)
    np.put_along_axis(free, np.asarray(chunk, dtype=np.intp) - 1, True, axis=1)
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


def config_lower_bound(config: RoundConfig) -> Fraction:
    """Exact floor on the expected cost of serving round r from this config.

    A request is uniform on its cell; conditioned on a segment of length d it
    pays at least the distance to the closer endpoint, d/4 on average, and
    lands there with probability d/2^r.
    """
    free = _free_mask(config.n, [config.free_servers])
    sum_d2 = _sum_squared_segments(config.n, config.r, free)
    return Fraction(int(sum_d2[0]), 4 << config.r)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one checker: estimate vs bound with its error margin.

    trials == 0 marks an exact check (standard_error is 0 and the comparison
    has no tolerance).  details carries JSON-safe per-check extras.
    """

    lemma_id: str
    n: int
    trials: int
    observed: float
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


def render_reports(reports: list[LemmaReport]) -> str:
    head = (
        f"{'check':<24}{'context':<21}{'n':>6}{'trials':>8}"
        f"{'observed':>14}{'bound':>14}{'se':>12}  verdict"
    )
    lines = [head, "-" * len(head)]
    for rep in reports:
        lines.append(
            f"{rep.lemma_id:<24}{_report_context(rep):<21}{rep.n:>6}{rep.trials:>8}"
            f"{rep.observed:>14.6g}{rep.bound:>14.6g}{rep.standard_error:>12.3g}"
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
    """Zero-tolerance check of the mean identity and the variance bound."""
    i = rounds_for(n)
    max_var_num, argmax_ell = 0, 0  # the largest variance's numerator over 4**i
    identity_ok = variance_ok = True
    for ell in range(1, n + 1):
        mean_num, var_num = g_moment_nums(ell, i)
        # mean_num / 2**i == ell n / (n + 1), and var_num / 4**i <= i / 4
        identity_ok &= mean_num * (n + 1) == (ell * n) << i
        variance_ok &= 4 * var_num <= i << (2 * i)
        if var_num > max_var_num:
            max_var_num, argmax_ell = var_num, ell
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
    i = rounds_for(n)
    if trials < 100:
        raise ValueError("need at least 100 trials for a stable standard error")
    k = default_grid_k(n) if grid_k is None else grid_k
    GenParams(i=i, grid_k=k, seed=0)  # validates grid_k before 2**k is formed
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
        seeds = [instance_seed(seed, t) for t in range(a, min(a + rows, trials))]
        d = np.concatenate(origin_round_numerators(i, k, seeds), axis=1)
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


def lemma2_config_property(
    n: int, r: int, samples: int | None = None, seed: int = 0
) -> LemmaReport:
    """Check the per-round floor on free-server configurations of round r.

    samples=None enumerates every configuration of the reachable size
    (errors out above EXHAUSTIVE_CAP); otherwise that many uniform
    configurations are drawn from one seeded stream.  The one gate is the
    exact floor sum d^2/(4*2^r) > (n+1)/12 on every configuration
    (floor_strict).  Two facts behind it are identities, not gates: with f
    free servers there are at most s_r = (n+1)/2^r + f segments, since each
    free server adds at most one, and sum d^2 >= (n+1)^2 / s_r by
    Cauchy-Schwarz.  The checks run on blocks of configurations sized to
    BLOCK_DRAW_BYTES of draws; min_config is the first minimizer found.
    """
    if samples is not None and samples < 1:
        raise ValueError("samples must be positive")
    f = reachable_free_count(n, r)
    width = 1 << r
    # strict floor: sum_d2 / (4*2^r) > (n+1)/12  <=>  3*sum_d2 > (n+1)*2^r
    floor_rhs = (n + 1) << r

    rows = max(1, BLOCK_DRAW_BYTES // (8 * n))
    if samples is None or f == n:
        count = math.comb(n, f)
        if count > EXHAUSTIVE_CAP:
            raise ValueError(
                f"{count} configurations at n={n}, r={r}; pass samples= to sample instead"
            )
        combos = itertools.combinations(range(1, n + 1), f)
        chunks = iter(lambda: list(itertools.islice(combos, rows)), [])
        blocks = (_free_mask(n, chunk) for chunk in chunks)
        mode = f"exhaustive:{count}"
        total = count
    else:
        # sample s frees the f servers with the smallest of draws
        # s n + 1 .. (s + 1) n of Stream(seed, _TAG_CONFIG, r); a stream's
        # draws are distinct, so those f are one set, and rows are read in
        # order, so the block size cannot change a sample
        stream = Stream(seed, _TAG_CONFIG, r)
        draws = (
            stream.u64_block(n * min(rows, samples - a)).reshape(-1, n)
            for a in range(0, samples, rows)
        )
        blocks = (d <= np.partition(d, f - 1, axis=1)[:, f - 1 : f] for d in draws)
        mode = f"sampled:{samples}"
        total = samples

    min_sum_d2 = None
    min_config: tuple[int, ...] = ()
    floor_ok = True
    for free in blocks:
        # sum_d2 <= (n+1) 2^r: int64 is exact for n < 2^30
        sum_d2 = _sum_squared_segments(n, r, free)
        floor_ok &= bool((3 * sum_d2 > floor_rhs).all())
        j = int(sum_d2.argmin())  # the first minimum, as a one-by-one scan keeps it
        if min_sum_d2 is None or sum_d2[j] < min_sum_d2:
            min_sum_d2 = int(sum_d2[j])
            min_config = tuple((np.flatnonzero(free[j]) + 1).tolist())

    observed = float(Fraction(min_sum_d2, 4 * width))
    return LemmaReport(
        lemma_id="lemma2_config_property",
        n=n,
        trials=total,
        observed=observed,
        bound=float(Fraction(n + 1, 12)),
        standard_error=0.0,
        passed=floor_ok,
        details={
            "r": r,
            "mode": mode,
            "free_count": f,
            "floor_strict": floor_ok,
            "min_config": list(min_config) if len(min_config) <= 32 else [],
            "min_lower_bound": f"{min_sum_d2}/{4 * width}",
            "seed": seed,
        },
    )


def empirical_report_from_stats(stats: list[RunStats], seed: int) -> LemmaReport:
    """Per-round floor report from already-collected runs: every round's
    mean cost must be >= (n+1)/12 - 3 SE."""
    first = stats[0]
    n = first.n
    floor = (n + 1) / 12.0
    rounds_played = len(first.round_costs)
    first_label = first.prefix_rounds + 1
    rows = []
    passed = True
    observed, se_at_min = 0.0, 0.0
    if rounds_played:
        worst_margin = None
        for idx in range(rounds_played):
            mean, se = _mean_se([s.round_costs[idx] for s in stats], first.grid_k)
            ok = mean >= floor - 3.0 * se
            passed = passed and ok
            rows.append(
                {"round": first_label + idx, "mean": mean, "se": se, "pass": ok}
            )
            margin = mean - (floor - 3.0 * se)
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
                observed, se_at_min = mean, se
    return LemmaReport(
        lemma_id="lemma2_empirical",
        n=n,
        trials=len(stats),
        observed=observed,
        bound=floor,
        standard_error=se_at_min,
        passed=passed,
        details={
            "algorithm": first.algorithm,
            "prefix_rounds": first.prefix_rounds,
            "rounds_checked": rounds_played,
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
    if sum_off:
        agg = float(Fraction(sum_on, sum_off))
        scale = float(1 << k)
        on = np.array(on_nums, dtype=np.float64) / scale
        off = np.array(off_nums, dtype=np.float64) / scale
        cov = float(np.cov(on, off, ddof=1)[0, 1]) / t
        var_ratio = max(se_on**2 - 2 * agg * cov + agg * agg * se_off**2, 0.0)
        se_ratio = math.sqrt(var_ratio) / mean_off
    else:
        agg, se_ratio = (1.0 if sum_on == 0 else math.inf), 0.0
    numerator_floor = (n + 1) * i / 12.0
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
