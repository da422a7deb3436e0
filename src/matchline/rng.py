"""Deterministic counter-based random streams.

A stream is identified by a 64-bit key derived from (seed, labels...) with
BLAKE2b.  Draw j of a stream is the SplitMix64 output function applied to
key + j * GAMMA, so any draw depends only on (key, j), and the draws of one
stream are distinct (GAMMA is odd and the mixer a bijection).  Streams can
therefore be evaluated out of order, in parallel workers, or in numpy
blocks, always reproducing the same values on any platform.  There is no
global state.  This module is the only place that knows the key and draw
formats: callers read draws through Stream, or many streams at once by
u64_rows, whose keys stream_keys derives from one keyed BLAKE2b state.
Bounded draws and shuffles of a block of streams that share their bounds
take one read-ahead for the block (randbelow_rows, shuffle_rows); a
Stream's own randbelow_each and shuffle are their one-row case.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijection on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 of a uint64 array, in place; returns it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _seeded(seed: int) -> hashlib.blake2b:
    """An 8-byte BLAKE2b state keyed by the 64-bit seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))


def stream_keys(seed: int, labels: Sequence[int | str], lasts: Iterable[int | str]) -> list[int]:
    """The 64-bit stream key of (seed, *labels, last) for each last in lasts.

    A key is BLAKE2b keyed by the seed, absorbing each label as str(label)
    followed by 0x1f.  The shared labels are absorbed once, and each key
    finishes its own copy of that state.  Distinct label tuples give
    independent-looking keys; the mapping is pure BLAKE2b, hence stable
    across platforms and processes.
    """
    shared = _seeded(seed)
    for label in labels:
        shared.update(str(label).encode() + b"\x1f")
    keys = []
    for last in lasts:
        h = shared.copy()
        h.update(str(last).encode() + b"\x1f")
        keys.append(int.from_bytes(h.digest(), "little"))
    return keys


def stream_key(seed: int, *labels: int | str) -> int:
    """64-bit stream key for (seed, labels...): stream_keys' one-element
    case, or with no labels the digest of the bare keyed state."""
    if not labels:
        return int.from_bytes(_seeded(seed).digest(), "little")
    return stream_keys(seed, labels[:-1], labels[-1:])[0]


def u64_rows(keys: Sequence[int], count: int) -> np.ndarray:
    """The first `count` draws of each key as a (len(keys), count) uint64
    array: row b holds u64() 1..count of a fresh stream with key keys[b]."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    return mix64_array(np.array(keys, dtype=np.uint64).reshape(-1, 1) + steps)


def _read_ahead(streams: Sequence[Stream], bounds: int) -> Iterator[list[int]]:
    """Draws for `bounds` more bounds of each stream, one int list per stream
    and counters untouched: half again as many past 16 (a bound takes under
    two on average), scalar below 16 in all, where numpy's overhead wins."""
    count = bounds + bounds // 2 if bounds > 16 else bounds
    if len(streams) * count <= 16:
        for s in streams:
            yield [mix64(s.key + j * GAMMA) for j in range(s.counter + 1, s.counter + count + 1)]
    else:
        for row in u64_rows([(s.key + s.counter * GAMMA) & MASK64 for s in streams], count):
            yield row.tolist()


def randbelow_rows(streams: Sequence[Stream], bounds: Sequence[int]) -> list[list[int]]:
    """randbelow(m) for each m in bounds, per stream (distinct objects), with
    one read-ahead for all: the top (m-1).bit_length() bits of each draw
    until they fall below m (m = 1 takes none).  A stream that runs out
    refills alone, and its counter ends where one randbelow per m leaves it."""
    if min(bounds, default=1) <= 0:
        raise ValueError(f"randbelow needs positive bounds, got {min(bounds)}")
    shifts = [64 - (m - 1).bit_length() for m in bounds]
    out = []
    for s, draws in zip(streams, _read_ahead(streams, len(bounds))):
        start, used, picks = s.counter, 0, []
        for idx, m in enumerate(bounds):
            v = m if m > 1 else 0
            while v >= m:
                if used == len(draws):
                    s.counter = start + used
                    draws += next(_read_ahead([s], len(bounds) - idx))
                v = draws[used] >> shifts[idx]
                used += 1
            picks.append(v)
        s.counter = start + used
        out.append(picks)
    return out


def shuffle_rows(streams: Sequence[Stream], rows: Sequence[list]) -> None:
    """Fisher-Yates shuffle of each rows[b] in place, driven by streams[b];
    the rows have one length, so their draws share one randbelow_rows."""
    last = len(rows[0]) - 1 if rows else 0
    for items, picks in zip(rows, randbelow_rows(streams, range(last + 1, 1, -1))):
        for idx, j in zip(range(last, 0, -1), picks):
            items[idx], items[j] = items[j], items[idx]


class Stream:
    """A named stream of 64-bit draws with a position counter."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *labels: int | str):
        self.key = stream_key(seed, *labels)
        self.counter = 0

    @classmethod
    def from_key(cls, key: int) -> Stream:
        """The stream with this key (as from stream_keys), at counter 0."""
        stream = cls.__new__(cls)
        stream.key, stream.counter = key, 0
        return stream

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GAMMA) & MASK64)

    def randbelow(self, m: int) -> int:
        """Uniform integer in [0, m), unbiased via rejection."""
        return self.randbelow_each((m,))[0]

    def randbelow_each(self, bounds: Sequence[int]) -> list[int]:
        """randbelow(m) for each m in bounds: randbelow_rows of this stream."""
        return randbelow_rows([self], bounds)[0]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        shuffle_rows([self], [items])
