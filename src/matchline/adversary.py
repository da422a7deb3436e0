"""Randomized request instances on the segment [0, n+1].

For n = 2**i - 1 the servers sit at the integers 1..n.  Requests arrive in i
rounds; round r partitions [0, n+1] into (n+1)/2**r half-open cells of width
2**r and draws one origin per cell, uniformly over the cell's grid of
multiples of 2**-grid_k.  Each request is its origin: sampling directly on
the grid keeps every event probability an exact dyadic rational.  Round r's
origins are consecutive draws of the one stream (seed, "origin", r), and
a shuffled round arrives in the order permutation_rows gives the key
(seed, "order", r).  A block of seeds is drawn in one numpy pass per round,
with the same draws as one seed at a time.

An Instance is the params plus one int64 numerator array per round, at scale
grid_k and in cell order; servers are implicit (server j sits at j << grid_k).
generate() and the JSONL reader build this one form; the run path builds none.
The JSON records write each value as {"num", "k"} integers, and only
Instance.servers and all_requests build Coords from it.

Key exact facts used by the checkers, with g_ell = number of origins strictly
left of server ell:

  E[g_ell]   = ell - ell/(n+1)          (also a sum of per-origin clamps)
  Var[g_ell] = sum p(1-p) <= log2(n+1)/4

Both are computed here in integer arithmetic with zero tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from matchline.geometry import Coord
from matchline.rng import permutation_rows, stream_key_rows, stream_keys, u64_rows

ORDER_LEFT_TO_RIGHT = "left_to_right"
ORDER_SHUFFLED = "shuffled"
REQUEST_ORDERS = (ORDER_LEFT_TO_RIGHT, ORDER_SHUFFLED)

# Version of the rules that turn a seed into origins, shuffled arrival
# orders and random_free's picks; the trials.jsonl header and generate's
# params record carry it, since a new rule changes sampled outputs.
SAMPLER_VERSION = 3

# Key label tags. One stream key per (seed, tag, ...coords); draws never mix.
_TAG_ORIGIN = "origin"
_TAG_ORDER = "order"
_TAG_TRIAL = "trial"

# Exact sums on the run path add at most n distances, each at most
# (n + 1) << grid_k = 2**(i + grid_k), so they stay below 2**(2 i + grid_k);
# requiring 2 i + grid_k + 1 <= MAX_SUM_BITS keeps them inside int64.
MAX_SUM_BITS = 61


def rounds_for(n: int) -> int:
    """The round count i with n = 2**i - 1; rejects other n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    i = (n + 1).bit_length() - 1
    if (1 << i) != n + 1:
        raise ValueError(f"n must be 2**i - 1 for some i >= 1, got {n}")
    return i


def round_cells(n: int, r: int) -> int:
    """Cells, and so requests, of round r: (n+1)/2**r.  The one check that
    r is a round of n, 1 <= r <= i."""
    i = rounds_for(n)
    if not 1 <= r <= i:
        raise ValueError(f"round must be in 1..{i}, got {r}")
    return (n + 1) >> r


def reachable_free_count(n: int, r: int) -> int:
    """Free servers at the start of round r: (n+1)/2**(r-1) - 1."""
    return 2 * round_cells(n, r) - 1


def instance_seeds(root_seed: int, trials: Iterable[int]) -> list[int]:
    """Seeds of the instances every sampled check draws for these trials."""
    return stream_keys(root_seed, (_TAG_TRIAL,), trials)


def default_grid_k(n: int) -> int:
    """Default grid exponent: fine enough to be negligible, capped so that
    GenParams' width rule holds."""
    return max(0, min(n, 40, MAX_SUM_BITS - 1 - 2 * rounds_for(n)))


@dataclass(frozen=True)
class GenParams:
    """Generation parameters; (seed, params) fully determine an instance."""

    i: int
    grid_k: int
    seed: int
    request_order: str = ORDER_LEFT_TO_RIGHT

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError(f"round count i must be >= 1, got {self.i}")
        if self.grid_k < 0:
            raise ValueError(f"grid_k must be non-negative, got {self.grid_k}")
        # a sum of n distances on the scale-grid_k grid must fit int64
        if 2 * self.i + self.grid_k + 1 > MAX_SUM_BITS:
            raise ValueError(
                f"i = {self.i}, grid_k = {self.grid_k}: 2 i + grid_k + 1 ="
                f" {2 * self.i + self.grid_k + 1} exceeds {MAX_SUM_BITS}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")
        if self.request_order not in REQUEST_ORDERS:
            raise ValueError(f"unknown request order {self.request_order!r}")

    @classmethod
    def for_size(
        cls, n: int, grid_k: int | None, seed: int, request_order: str = ORDER_LEFT_TO_RIGHT
    ) -> GenParams:
        """The params of size n: grid_k, or default_grid_k(n) when it is
        None.  The one place a default grid is picked."""
        return cls(rounds_for(n), default_grid_k(n) if grid_k is None else grid_k, seed, request_order)

    @property
    def n(self) -> int:
        return (1 << self.i) - 1


@dataclass(frozen=True, eq=False)
class Instance:
    """One instance as integers: origins[r - 1] holds round r's origin
    numerators at scale grid_k, one per cell in cell order.  Requests equal
    their origins, and server j sits at j << grid_k.  Instances compare by
    value; building one that breaks check_round_numerators raises."""

    params: GenParams
    origins: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        check_round_numerators(self.params, self.origins)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def grid_k(self) -> int:
        return self.params.grid_k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.params == other.params
            and len(self.origins) == len(other.origins)
            and all(np.array_equal(a, b) for a, b in zip(self.origins, other.origins))
        )

    @property
    def servers(self) -> tuple[Coord, ...]:
        return tuple(Coord(j << self.grid_k, self.grid_k) for j in range(1, self.n + 1))

    def all_requests(self) -> list[Coord]:
        return [Coord(x, self.grid_k) for nums in self.origins for x in nums.tolist()]


def origin_round_numerators(i: int, grid_k: int, seeds: Sequence[int]) -> list[np.ndarray]:
    """Per-round origin numerators at scale grid_k, one row per seed: round r
    is a (len(seeds), cells) int64 array at index r-1.

    This is the single sampling path: one stream per (seed, round), draw m
    for cell m, the top r+grid_k bits giving the offset inside the cell.  Row
    b depends on seeds[b] alone, so the block cannot change an instance.
    """
    # keys[b, r - 1]: the key of stream (seeds[b], "origin", r)
    keys = stream_key_rows(seeds, (_TAG_ORIGIN,), range(1, i + 1))
    out = []
    for r in range(1, i + 1):
        cells = 1 << (i - r)
        width = r + grid_k
        u = u64_rows(keys[:, r - 1], cells)
        u >>= np.uint64(64 - width)
        nums = u.view(np.int64)  # GenParams keeps width below 63 bits
        nums += np.arange(cells, dtype=np.int64) << np.int64(width)
        out.append(nums)
    return out


def check_round_numerators(params: GenParams, rounds: Sequence[np.ndarray]) -> None:
    """The instance invariants: i rounds, round r with (n+1)/2**r int64
    origins, origin m inside cell m.  Raises ValueError on the first breach,
    with every round's length and dtype checked before any cell.  Rounds of
    (T, cells) rows check T instances at once and name the first round any
    row breaks."""
    if len(rounds) != params.i:
        raise ValueError(f"expected {params.i} rounds, got {len(rounds)}")
    counts = [(params.n + 1) >> r for r in range(1, params.i + 1)]
    for r, (nums, cells) in enumerate(zip(rounds, counts), start=1):
        if nums.shape[-1] != cells:
            raise ValueError(f"round {r}: expected {cells} requests")
        if nums.dtype != np.int64:
            raise ValueError(f"round {r}: origins must be int64, got {nums.dtype}")
    # origin m of round r lies in [m << width, (m + 1) << width), width =
    # r + grid_k, iff its top bits are m; one pass over every round at once
    rnd = np.repeat(np.arange(1, params.i + 1), counts)  # each origin's round
    cell = np.arange(len(rnd)) - np.repeat(np.cumsum(counts) - counts, counts)
    off = (np.concatenate(rounds, axis=-1) >> (rnd + params.grid_k)) != cell
    if (col := np.flatnonzero(off.reshape(-1, len(rnd)).any(axis=0))).size:
        raise ValueError(f"round {rnd[col[0]]}: origin off its cell")


def generate(params: GenParams) -> Instance:
    """Draw a full instance; deterministic in (seed, params)."""
    rounds = origin_round_numerators(params.i, params.grid_k, [params.seed])
    return Instance(params, tuple(nums[0] for nums in rounds))


def arrival_orders(params: Sequence[GenParams]) -> Iterator[np.ndarray]:
    """For r = 1..i, the cell indices of round r in arrival order for each
    of a block of params of one i, as a (len(params), cells) int64 array:
    left to right, or permutation_rows of the key (seed, "order", r).  A
    seed's round keys come from one keyed BLAKE2b state, and a round orders
    every shuffled instance in one pass; row b depends on params[b] alone."""
    i = params[0].i
    shuffled = [b for b, p in enumerate(params) if p.request_order == ORDER_SHUFFLED]
    keys = stream_key_rows([params[b].seed for b in shuffled], (_TAG_ORDER,), range(1, i + 1))
    for r in range(1, i + 1):
        cells = 1 << (i - r)
        orders = np.tile(np.arange(cells), (len(params), 1))
        orders[shuffled] = permutation_rows(keys[:, r - 1], cells)
        yield orders


def g_moment_nums(ell: int | np.ndarray, i: int) -> tuple:
    """Exact (sum p, sum p(1-p)) over all origins, p = P(origin < ell), as
    integer numerators over 2**i and 4**i, for n = 2**i - 1.  ell is one int
    or an int64 array of ranks, and the numerators match it; an array's
    numerators reach i 4**i / 4, so int64 holds them for i <= 30.

    For the cell [a, a + 2**r) the half-open grid has exactly (ell - a) * 2**k
    of its 2**(r+k) points in [a, ell), so p = clamp((ell - a) / 2**r, 0, 1)
    holds exactly, independent of grid_k.  In round r the ell >> r cells left
    of ell have p = 1, the cell holding ell has p = c / 2**r with
    c = ell mod 2**r, and the cells right of it have p = 0; only that one
    cell adds variance.
    """
    ranks = np.atleast_1d(ell)
    bad = ranks[(ranks < 1) | (ranks >= 1 << i)]
    if bad.size:
        raise ValueError(f"ell must be in 1..{(1 << i) - 1}, got {bad[0]}")
    mean_num = var_num = 0
    for r in range(1, i + 1):
        width = 1 << r
        full = ell >> r
        c = ell & (width - 1)
        mean_num += (full * width + c) << (i - r)
        var_num += (c * (width - c)) << (2 * (i - r))
    return mean_num, var_num


def g_moments(ell: int, n: int) -> tuple[Fraction, Fraction]:
    """g_moment_nums as Fractions: (E[g_ell], Var[g_ell]) for n = 2**i - 1."""
    i = rounds_for(n)
    mean_num, var_num = g_moment_nums(ell, i)
    return Fraction(mean_num, 1 << i), Fraction(var_num, 1 << (2 * i))


# ---------------------------------------------------------------------------
# JSON Lines transcripts: one params header record, one record per entry.

# one encoder for every line: json.dumps with arguments builds one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def instance_to_jsonl(instance: Instance) -> str:
    p = instance.params
    lines = [
        _ENCODER.encode(
            {
                "record": "params",
                "i": p.i,
                "n": p.n,
                "grid_k": p.grid_k,
                "seed": p.seed,
                "request_order": p.request_order,
                "sampler": SAMPLER_VERSION,
            }
        )
    ]
    for r, nums in enumerate(instance.origins, start=1):
        for m, num in enumerate(nums.tolist()):
            point = {"num": num, "k": p.grid_k}
            lines.append(
                _ENCODER.encode(
                    {"record": "entry", "round": r, "subinterval": m, "origin": point, "request": point}
                )
            )
    return "\n".join(lines) + "\n"


def _json_int(value: object) -> int:
    if type(value) is not int:  # int() would truncate 5.9 and accept true
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _entry_num(obj: dict, r: int, m: int, k: int) -> int:
    """Origin numerator of the entry due at round r, cell m, at scale k."""
    if obj["record"] != "entry":
        raise ValueError(f"unexpected record {obj['record']!r}")
    if (_json_int(obj["round"]), _json_int(obj["subinterval"])) != (r, m):
        raise ValueError(f"round {obj['round']} cell {obj['subinterval']} where round {r} cell {m} is due")
    origin, request = ((_json_int(p["num"]), _json_int(p["k"])) for p in (obj["origin"], obj["request"]))
    if origin[1] != k:
        raise ValueError(f"round {r} cell {m}: scale {origin[1]}, expected grid_k = {k}")
    if request != origin:
        raise ValueError(f"round {r} cell {m}: request is not the origin")
    return origin[0]


def instance_from_jsonl(text: str) -> Instance:
    """Read what instance_to_jsonl writes: a params header of this
    SAMPLER_VERSION, then exactly n entries in round order and cell order
    within a round, each origin its own request as {"num", "k"} integers
    with k = grid_k.  Instance checks that each origin lies in its cell.
    Raises ValueError on any other input."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty transcript")
    try:
        head = json.loads(lines[0])
        if head["record"] != "params":
            raise ValueError("transcript must start with a params record")
        # another sampler's shuffled transcript would replay in this one's order
        sampler = head.get("sampler")
        if type(sampler) is not int or sampler != SAMPLER_VERSION:
            raise ValueError(
                f"transcript of sampler {sampler!r}; this reader takes sampler {SAMPLER_VERSION}"
            )
        params = GenParams(
            i=_json_int(head["i"]),
            grid_k=_json_int(head["grid_k"]),
            seed=_json_int(head["seed"]),
            request_order=str(head["request_order"]),
        )
        if _json_int(head["n"]) != params.n:
            raise ValueError(f"header n={head['n']} does not match i={params.i}")
        if len(lines) - 1 != params.n:
            raise ValueError(f"expected {params.n} entries, got {len(lines) - 1}")
        entries = iter(lines[1:])
        origins = []
        for r in range(1, params.i + 1):
            cells = range((params.n + 1) >> r)
            nums = [_entry_num(json.loads(next(entries)), r, m, params.grid_k) for m in cells]
            origins.append(np.array(nums, dtype=np.int64))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed transcript: {type(exc).__name__}: {exc}") from exc
    return Instance(params, tuple(origins))
