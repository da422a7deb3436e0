"""Counter-based RNG draws: determinism, block equivalence, uniform orders."""

import random

import numpy as np
import pytest

from matchline import rng
from matchline.rng import GAMMA, mix64_array, permutation_rows, stream_key, stream_keys, u64_rows
from oracles import CALIBRATION_Z, MASK64, binomial_z, mix64

# reference sequence for the mixing function: outputs for seed 0 of the
# well-known splitmix64 generator, whose step is mix(seed += gamma)
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_mix64_reference_vectors():
    x = 0
    for want in SPLITMIX64_SEED0:
        x = (x + GAMMA) & MASK64
        assert mix64(x) == want


def test_mix64_array_matches_scalar():
    zs = np.arange(0, 3000, 7, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    got = mix64_array(zs.copy())
    for z, g in zip(zs.tolist(), got.tolist()):
        assert mix64(z) == g


def test_stream_key_frozen_values():
    # pinned so an accidental change to the derivation scheme is loud
    assert stream_key(0, "origin", 1, 0) == 0x5C9FEACF8DD94C86
    assert stream_key(12345, "alg", "greedy_nearest", 7) == 0x2A20145B9A472B11


def test_stream_keys_frozen_values():
    assert stream_keys(0, ("origin", 1), [0, 1]) == [0x5C9FEACF8DD94C86, stream_key(0, "origin", 1, 1)]
    assert stream_keys(12345, ("alg", "greedy_nearest"), [7]) == [0x2A20145B9A472B11]


def test_stream_keys_are_one_stream_key_per_last():
    rnd = random.Random(2305)

    def label():
        return rnd.randrange(1 << 20) if rnd.random() < 0.5 else f"tag{rnd.randrange(10)}"

    for _ in range(200):
        seed = rnd.getrandbits(64)
        labels = tuple(label() for _ in range(rnd.randrange(4)))
        lasts = [label() for _ in range(rnd.randrange(6))]
        assert stream_keys(seed, labels, lasts) == [stream_key(seed, *labels, x) for x in lasts]
    assert stream_keys(5, ("a", 1), []) == []
    assert stream_keys(5, (), ["a", 1]) == [stream_key(5, "a"), stream_key(5, 1)]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
@pytest.mark.parametrize("lasts", [[], [0, 1]])
def test_stream_keys_reject_a_seed_past_64_bits(seed, lasts):
    with pytest.raises(ValueError, match="64-bit"):
        stream_keys(seed, ("origin", 1), lasts)


def test_stream_key_distinct_per_label():
    keys = {
        stream_key(1, "a"),
        stream_key(1, "b"),
        stream_key(1, "a", 0),
        stream_key(1, "a", 1),
        stream_key(2, "a"),
    }
    assert len(keys) == 5
    # labels are stringified, so 0 and "0" name the same stream by design
    assert stream_key(1, "a", 0) == stream_key(1, "a", "0")


def test_stream_key_labels_do_not_collide_across_boundaries():
    # separator must keep ("ab", "c") apart from ("a", "bc")
    assert stream_key(9, "ab", "c") != stream_key(9, "a", "bc")


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
@pytest.mark.parametrize("labels", [("trial",), ("origin", 3), (7, "alg", "greedy_nearest", 0)])
@pytest.mark.parametrize("count", [0, 1, 512, 1023])
def test_stream_keys_match_stream_key(seed, labels, count):
    """A stream's block of draws is mix64(stream_key + j GAMMA), j = 1..count.

    Origins read a whole round as one block, so this pins the block path to
    the documented format, keyed by stream_key, at the block sizes a round
    takes (up to 1023 cells).
    """
    key = stream_key(seed, *labels)
    got = u64_rows([key], count)
    assert got.dtype == np.uint64 and got.shape == (1, count)
    assert got[0].tolist() == [mix64(key + j * GAMMA) for j in range(1, count + 1)]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_keys_reject_seed_like_stream_key(seed):
    with pytest.raises(ValueError, match="64-bit"):
        stream_key(seed, "origin", 1, 0)


def test_stream_deterministic_and_stateless_between_instances():
    # draw j depends on (key, j) alone: a longer read extends a shorter one
    key = stream_key(77, "x", 3)
    assert u64_rows([key], 5).tolist() == u64_rows([key], 5).tolist()
    assert u64_rows([key], 9)[:, :5].tolist() == u64_rows([key], 5).tolist()


def test_u64_rows_match_scalar_draws():
    keys = [stream_key(5, "block"), stream_key(6, "block"), stream_key(5, "block")]
    block = u64_rows(keys, 257)
    assert block.dtype == np.uint64 and block.shape == (3, 257)
    assert block.tolist() == [[mix64(k + j * GAMMA) for j in range(1, 258)] for k in keys]


def test_shuffle_is_permutation_and_seeded():
    key = stream_key(8, "sh")
    row = permutation_rows([key], 30)
    assert row.shape == (1, 30) and row.dtype == np.int64
    assert sorted(row[0].tolist()) == list(range(30))
    assert row.tolist() == permutation_rows([key], 30).tolist()
    assert row.tolist() != permutation_rows([stream_key(9, "sh")], 30).tolist()


@pytest.mark.parametrize("m", [0, 1, 2, 9, 128])
def test_permutation_rows_sort_each_key_draws(m):
    # row b lists 0..m-1 by the first m draws of keys[b]; a block of keys,
    # a repeated one and 2**64 - 1 among them, gives the one-key rows
    keys = [stream_key(seed, "fy-rows") for seed in (3, 4, 5, 3)] + [(1 << 64) - 1]
    rows = permutation_rows(keys, m)
    assert rows.shape == (len(keys), m)
    for key, row in zip(keys, rows.tolist()):
        draws = [mix64(key + j * GAMMA) for j in range(1, m + 1)]
        assert row == sorted(range(m), key=draws.__getitem__)
        assert [row] == permutation_rows([key], m).tolist()
    assert permutation_rows([], m).shape == (0, m)


def _top_bits(monkeypatch, bits):
    """Make permutation_rows sort by the top `bits` bits of each draw."""
    full = rng.u64_rows
    monkeypatch.setattr(rng, "u64_rows", lambda keys, count: full(keys, count) >> np.uint64(64 - bits))


def test_permutation_rows_keep_index_order_on_ties(monkeypatch):
    # ties are too rare to meet with 64-bit draws; with 2-bit draws most
    # rows hold some, and each must list its tied indices in order
    keys = [stream_key(seed, "ties") for seed in range(50)]
    draws = u64_rows(keys, 12) >> np.uint64(62)
    _top_bits(monkeypatch, 2)
    for d, row in zip(draws.tolist(), permutation_rows(keys, 12).tolist()):
        assert row == sorted(range(12), key=lambda j: (d[j], j))


def _worst_calibration_z(keys, m):
    """The largest |z| over every (place, index) count of permutation_rows
    against the uniform rate 1/m."""
    rows = permutation_rows(keys, m)
    return max(
        abs(binomial_z(c, len(keys), 1 / m))
        for place in rows.T
        for c in np.bincount(place, minlength=m).tolist()
    )


CALIBRATION_KEYS = stream_keys(2025, ("calibrate",), range(1 << 14))


def test_permutation_rows_are_calibrated():
    """Each place of a row holds each index with probability 1/m.

    2**14 keys at m = 6: 36 (place, index) counts, each two-sided at
    CALIBRATION_Z = 4.5 SE, so a correct rule fails the family with
    probability at most 36 x 6.8e-6 = 0.025 %.
    """
    assert _worst_calibration_z(CALIBRATION_KEYS, 6) <= CALIBRATION_Z


def test_permutation_calibration_fails_on_top_4_bit_draws(monkeypatch):
    # with 16 draw values ties keep index order, so index 0 leads a row
    # with probability sum(k**5 for k in 1..16) / 16**6 = 0.200, not 1/6:
    # about 11 SE at 2**14 keys
    _top_bits(monkeypatch, 4)
    assert _worst_calibration_z(CALIBRATION_KEYS, 6) > CALIBRATION_Z
