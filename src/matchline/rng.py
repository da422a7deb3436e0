"""Deterministic counter-based random streams.

A stream is identified by a 64-bit key derived from (seed, labels...) with
BLAKE2b.  Draw j of a stream is the SplitMix64 output function applied to
key + j * GAMMA, so any draw depends only on (key, j), and the draws of one
stream are distinct (GAMMA is odd and the mixer a bijection).  Streams can
therefore be evaluated out of order, in parallel workers, or in numpy
blocks, always reproducing the same values on any platform.  There is no
global state.  This module is the only place that knows the draw format:
callers read draws through Stream, or many streams at once by u64_rows.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

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


def stream_key(seed: int, *labels: int | str) -> int:
    """64-bit stream key for (seed, labels...): BLAKE2b keyed by the seed,
    absorbing each label as str(label) followed by 0x1f.

    Distinct label tuples give independent-looking keys; the mapping is pure
    BLAKE2b, hence stable across platforms and processes.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")
    h = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))
    for label in labels:
        h.update(str(label).encode() + b"\x1f")
    return int.from_bytes(h.digest(), "little")


def u64_rows(keys: Sequence[int], count: int) -> np.ndarray:
    """The first `count` draws of each key as a (len(keys), count) uint64
    array: row b is u64_block(count) of a fresh stream with key keys[b]."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
    return mix64_array(np.array(keys, dtype=np.uint64).reshape(-1, 1) + steps)


class Stream:
    """A named stream of 64-bit draws with a position counter."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *labels: int | str):
        self.key = stream_key(seed, *labels)
        self.counter = 0

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GAMMA) & MASK64)

    def randbelow(self, m: int) -> int:
        """Uniform integer in [0, m), unbiased via rejection."""
        return self.randbelow_each((m,))[0]

    def randbelow_each(self, bounds: Sequence[int]) -> list[int]:
        """randbelow(m) for each m in bounds: the top (m-1).bit_length() bits
        of each draw until they fall below m (m = 1 takes none).  Draws are
        read ahead; the counter ends where one randbelow per m leaves it."""
        if min(bounds, default=1) <= 0:
            raise ValueError(f"randbelow needs positive bounds, got {min(bounds)}")
        start, used = self.counter, 0
        draws: list[int] = []
        out: list[int] = []
        for idx, m in enumerate(bounds):
            shift = 64 - (m - 1).bit_length()
            v = m if m > 1 else 0
            while v >= m:
                if used == len(draws):
                    count = len(bounds) - idx
                    # a bound takes under two draws on average; below about 16
                    # draws numpy's call overhead outweighs the scalar loop
                    if count > 16:
                        draws += self.u64_block(count + count // 2).tolist()
                    else:
                        draws += [self.u64() for _ in range(count)]
                v = draws[used] >> shift
                used += 1
            out.append(v)
        self.counter = start + used
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        last = len(items) - 1
        for idx, j in zip(range(last, 0, -1), self.randbelow_each(range(last + 1, 1, -1))):
            items[idx], items[j] = items[j], items[idx]

    def u64_block(self, count: int) -> np.ndarray:
        """The next `count` draws as a uint64 array; matches u64() bit for bit."""
        key = (self.key + self.counter * GAMMA) & MASK64  # draw counter + j is j of key
        self.counter += count
        return u64_rows([key], count)[0]
