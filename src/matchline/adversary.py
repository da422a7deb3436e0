"""Randomized request instances on the segment [0, n+1].

For n = 2**i - 1 the servers sit at the integers 1..n.  Requests arrive in i
rounds; round r partitions [0, n+1] into (n+1)/2**r half-open cells of width
2**r and draws one origin per cell, uniformly over the cell's grid of
multiples of 2**-grid_k.  The request is the origin snapped to that grid,
which on the grid itself is the identity; sampling directly on the grid keeps
every event probability an exact dyadic rational.

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
from typing import Iterator

import numpy as np

from matchline.geometry import Coord, coord_from_integer, snap_to_grid
from matchline.rng import GAMMA, Stream, mix64_array, stream_key

ORDER_LEFT_TO_RIGHT = "left_to_right"
ORDER_SHUFFLED = "shuffled"
REQUEST_ORDERS = (ORDER_LEFT_TO_RIGHT, ORDER_SHUFFLED)

# Stream name tags. One stream per (seed, tag, ...coords); draws never mix.
_TAG_ORIGIN = "origin"
_TAG_ORDER = "order"

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

    @property
    def n(self) -> int:
        return (1 << self.i) - 1


@dataclass(frozen=True)
class RoundEntry:
    subinterval: int
    origin: Coord
    request: Coord


@dataclass(frozen=True)
class Round:
    r: int
    entries: tuple[RoundEntry, ...]

    @property
    def subinterval_length(self) -> int:
        return 1 << self.r


@dataclass(frozen=True)
class Instance:
    params: GenParams
    servers: tuple[Coord, ...]
    rounds: tuple[Round, ...]

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def grid_k(self) -> int:
        return self.params.grid_k

    def all_entries(self) -> Iterator[RoundEntry]:
        for rnd in self.rounds:
            yield from rnd.entries

    def all_requests(self) -> list[Coord]:
        return [e.request for e in self.all_entries()]

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on the first breach."""
        p = self.params
        n, k = p.n, p.grid_k
        if len(self.servers) != n:
            raise ValueError(f"expected {n} servers, got {len(self.servers)}")
        for j, s in enumerate(self.servers, start=1):
            if s.at_scale(k) != j << k:
                raise ValueError(f"server {j} is misplaced: {s!r}")
        if len(self.rounds) != p.i:
            raise ValueError(f"expected {p.i} rounds, got {len(self.rounds)}")
        top = (n + 1) << k
        for idx, rnd in enumerate(self.rounds, start=1):
            if rnd.r != idx:
                raise ValueError(f"round {idx} mislabelled as {rnd.r}")
            cells = (n + 1) >> rnd.r
            if len(rnd.entries) != cells:
                raise ValueError(f"round {rnd.r}: expected {cells} requests")
            width = rnd.r + k
            for m, e in enumerate(rnd.entries):
                if e.subinterval != m:
                    raise ValueError(f"round {rnd.r}: cell index {e.subinterval} != {m}")
                if e.origin.k <= k:
                    # on-grid origin: containment and snapping are integer checks
                    onum = e.origin.at_scale(k)
                    if not (m << width) <= onum < ((m + 1) << width):
                        raise ValueError(f"round {rnd.r} cell {m}: origin off its cell")
                    snapped = onum
                else:
                    frac = e.origin.as_fraction()
                    if not (m << rnd.r) <= frac < ((m + 1) << rnd.r):
                        raise ValueError(f"round {rnd.r} cell {m}: origin off its cell")
                    snapped = snap_to_grid(frac, k).num
                rnum = e.request.at_scale(k)
                if rnum != snapped:
                    raise ValueError(f"round {rnd.r} cell {m}: request is not the snapped origin")
                if not 0 <= rnum <= top:
                    raise ValueError(f"round {rnd.r} cell {m}: request out of [0, n+1]")


def origin_round_numerators(params: GenParams) -> list[np.ndarray]:
    """Per-round origin numerators at scale grid_k (round r at index r-1).

    This is the single sampling path: one stream per (seed, round, cell), one
    draw per stream, the top r+grid_k bits giving the offset inside the cell.
    generate() and the fast Monte Carlo paths both call it.
    """
    out = []
    for r in range(1, params.i + 1):
        cells = 1 << (params.i - r)
        width = r + params.grid_k
        keys = np.fromiter(
            (stream_key(params.seed, _TAG_ORIGIN, r, m) for m in range(cells)),
            dtype=np.uint64,
            count=cells,
        )
        u = mix64_array(keys + np.uint64(GAMMA))  # first draw of each stream
        offsets = (u >> np.uint64(64 - width)).astype(np.int64)
        bases = np.arange(cells, dtype=np.int64) << np.int64(width)
        out.append(bases + offsets)
    return out


def check_round_numerators(params: GenParams, rounds: list[np.ndarray]) -> None:
    """Instance.validate's cell-count and containment checks on the sampled
    numerators; raises ValueError on the first breach."""
    if len(rounds) != params.i:
        raise ValueError(f"expected {params.i} rounds, got {len(rounds)}")
    for r, nums in enumerate(rounds, start=1):
        cells = (params.n + 1) >> r
        if len(nums) != cells:
            raise ValueError(f"round {r}: expected {cells} requests")
        # origin m lies in [m << width, (m + 1) << width) iff its top bits are m
        if np.any((nums >> (r + params.grid_k)) != np.arange(cells)):
            raise ValueError(f"round {r}: origin off its cell")


def generate(params: GenParams) -> Instance:
    """Draw a full instance; deterministic in (seed, params)."""
    k = params.grid_k
    nums_by_round = origin_round_numerators(params)
    check_round_numerators(params, nums_by_round)
    servers = tuple(coord_from_integer(j, k) for j in range(1, params.n + 1))
    rounds = []
    for r, nums in enumerate(nums_by_round, start=1):
        entries = []
        for m, num in enumerate(nums.tolist()):
            origin = Coord(num, k)
            # origins already sit on the grid, so the snapped request equals them
            entries.append(RoundEntry(m, origin, origin))
        rounds.append(Round(r, tuple(entries)))
    return Instance(params, servers, tuple(rounds))


def arrival_indices(params: GenParams, r: int) -> list[int]:
    """Cell indices of round r in arrival order (left-to-right or a seeded shuffle)."""
    order = list(range((params.n + 1) >> r))
    if params.request_order == ORDER_SHUFFLED:
        Stream(params.seed, _TAG_ORDER, r).shuffle(order)
    return order


def g_moments(ell: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact (sum p, sum p(1-p)) over all origins, p = P(origin < ell).

    For the cell [a, a + 2**r) the half-open grid has exactly (ell - a) * 2**k
    of its 2**(r+k) points in [a, ell), so p = clamp((ell - a) / 2**r, 0, 1)
    holds exactly, independent of grid_k.  Sums are accumulated as integers
    at scales 2**i and 4**i.
    """
    _check_ell(ell, n)
    i = rounds_for(n)
    mean_num = 0
    var_num = 0
    for r in range(1, i + 1):
        width = 1 << r
        for m in range((n + 1) >> r):
            c = ell - (m << r)
            if c < 0:
                c = 0
            elif c > width:
                c = width
            mean_num += c << (i - r)
            var_num += (c * (width - c)) << (2 * (i - r))
    return Fraction(mean_num, 1 << i), Fraction(var_num, 1 << (2 * i))


def _check_ell(ell: int, n: int) -> None:
    rounds_for(n)
    if not 1 <= ell <= n:
        raise ValueError(f"ell must be in 1..{n}, got {ell}")


# ---------------------------------------------------------------------------
# JSON Lines transcripts: one params header record, one record per entry.

def instance_to_jsonl(instance: Instance) -> str:
    p = instance.params
    lines = [
        json.dumps(
            {
                "record": "params",
                "i": p.i,
                "n": p.n,
                "grid_k": p.grid_k,
                "seed": p.seed,
                "request_order": p.request_order,
            },
            separators=(",", ":"),
        )
    ]
    for rnd in instance.rounds:
        for e in rnd.entries:
            lines.append(
                json.dumps(
                    {
                        "record": "entry",
                        "round": rnd.r,
                        "subinterval": e.subinterval,
                        "origin": e.origin.to_json(),
                        "request": e.request.to_json(),
                    },
                    separators=(",", ":"),
                )
            )
    return "\n".join(lines) + "\n"


def instance_from_jsonl(text: str) -> Instance:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty transcript")
    head = json.loads(lines[0])
    if head.get("record") != "params":
        raise ValueError("transcript must start with a params record")
    params = GenParams(
        i=int(head["i"]),
        grid_k=int(head["grid_k"]),
        seed=int(head["seed"]),
        request_order=str(head["request_order"]),
    )
    if int(head["n"]) != params.n:
        raise ValueError(f"header n={head['n']} does not match i={params.i}")
    per_round: dict[int, list[RoundEntry]] = {r: [] for r in range(1, params.i + 1)}
    for line in lines[1:]:
        obj = json.loads(line)
        if obj.get("record") != "entry":
            raise ValueError(f"unexpected record {obj.get('record')!r}")
        r = int(obj["round"])
        if r not in per_round:
            raise ValueError(f"entry for unknown round {r}")
        per_round[r].append(
            RoundEntry(
                subinterval=int(obj["subinterval"]),
                origin=Coord.from_json(obj["origin"]),
                request=Coord.from_json(obj["request"]),
            )
        )
    k = params.grid_k
    servers = tuple(coord_from_integer(j, k) for j in range(1, params.n + 1))
    rounds = tuple(Round(r, tuple(per_round[r])) for r in range(1, params.i + 1))
    inst = Instance(params, servers, rounds)
    inst.validate()
    return inst

