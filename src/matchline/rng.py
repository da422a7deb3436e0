"""Deterministic counter-based random draws.

A stream is identified by a 64-bit key derived from (seed, labels...) with
BLAKE2b.  Draw j of a stream is the SplitMix64 output function applied to
key + j * GAMMA, so any draw depends only on (key, j), and the draws of one
stream are distinct (GAMMA is odd and the mixer a bijection).  Draws can
therefore be evaluated out of order, in parallel workers, or in numpy
blocks, always reproducing the same values on any platform.  There is no
global state and no counter: u64_rows reads the first draws of many keys
at once, stream_keys derives many keys from one keyed BLAKE2b state, and
permutation_rows turns a key into a random order by sorting its draws.
This module is the only place that knows the key and draw formats.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# the numpy scalars of the above and of the shifts, built once, not per call
_U_GAMMA, _U_M1, _U_M2, _U30, _U27, _U31 = map(np.uint64, (GAMMA, _M1, _M2, 30, 27, 31))


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection on 64-bit words, applied to a
    uint64 array in place; returns it."""
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
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


def stream_key(seed: int, label: int | str, *labels: int | str) -> int:
    """64-bit stream key for (seed, label, labels...): stream_keys' one-element case."""
    *shared, last = label, *labels
    return stream_keys(seed, shared, [last])[0]


def u64_rows(keys: Sequence[int], count: int) -> np.ndarray:
    """The first `count` draws of each key as a (len(keys), count) uint64
    array: row b holds draws 1..count of the stream with key keys[b]."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * _U_GAMMA
    return mix64_array(np.array(keys, dtype=np.uint64).reshape(-1, 1) + steps)


def permutation_rows(keys: Sequence[int], m: int) -> np.ndarray:
    """A uniformly random order of 0..m-1 per key, as a (len(keys), m) int64
    array: row b lists the indices sorted by the first m draws of keys[b].
    The sort is stable, so a tie (probability below m**2 / 2**65) keeps
    index order, and a row depends on its key alone."""
    return np.argsort(u64_rows(keys, m), axis=1, kind="stable")
