"""Deterministic counter-based random streams.

A stream is identified by a 64-bit key derived from (seed, labels...) with
BLAKE2b.  Draw j of a stream is the SplitMix64 output function applied to
key + j * GAMMA, so any draw depends only on (key, j).  Streams can therefore
be evaluated out of order, in parallel workers, or in numpy blocks, always
reproducing the same values on any platform.  There is no global state.

stream_keys(seed, labels, count) gives the keys of the sibling streams
(seed, *labels, m) for m = 0..count-1 as one uint64 array: it keys BLAKE2b
and absorbs the shared labels once, then copies that state per m, so a
batch costs one hash finalization per key instead of a full keyed hash.
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
    """Vectorized mix64 over a uint64 array (wrapping arithmetic)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _keyed_hash(seed: int, labels: Sequence[int | str]) -> hashlib.blake2b:
    """BLAKE2b keyed by seed with every label absorbed: the one definition
    of the key format (each label is str(label) followed by 0x1f)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")
    h = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))
    for label in labels:
        h.update(str(label).encode() + b"\x1f")
    return h


def stream_key(seed: int, *labels: int | str) -> int:
    """64-bit stream key for (seed, labels...).

    Distinct label tuples give independent-looking keys; the mapping is pure
    BLAKE2b, hence stable across platforms and processes.
    """
    return int.from_bytes(_keyed_hash(seed, labels).digest(), "little")


def stream_keys(seed: int, labels: Sequence[int | str], count: int) -> np.ndarray:
    """stream_key(seed, *labels, m) for m in range(count), as a uint64 array."""
    prefix = _keyed_hash(seed, labels)
    digests = []
    for m in range(count):
        h = prefix.copy()
        h.update(b"%d\x1f" % m)  # the encoding of the integer label m
        digests.append(h.digest())
    # little-endian, as stream_key reads its digest; astype gives a writable copy
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


class Stream:
    """A named stream of 64-bit draws with a position counter."""

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *labels: int | str):
        self.key = stream_key(seed, *labels)
        self.counter = 0

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GAMMA) & MASK64)

    def bits(self, b: int) -> int:
        """Uniform integer in [0, 2**b), taking the top b bits of one draw."""
        if not 1 <= b <= 64:
            raise ValueError(f"bit width out of range: {b}")
        return self.u64() >> (64 - b)

    def randbelow(self, m: int) -> int:
        """Uniform integer in [0, m), unbiased via rejection."""
        if m <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {m}")
        if m == 1:
            return 0
        b = (m - 1).bit_length()
        while True:
            v = self.bits(b)
            if v < m:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for idx in range(len(items) - 1, 0, -1):
            j = self.randbelow(idx + 1)
            items[idx], items[j] = items[j], items[idx]

    def u64_block(self, count: int) -> np.ndarray:
        """The next `count` draws as a uint64 array; matches u64() bit for bit."""
        start = self.counter + 1
        self.counter += count
        counters = np.arange(start, start + count, dtype=np.uint64)
        return mix64_array(np.uint64(self.key) + counters * np.uint64(GAMMA))
