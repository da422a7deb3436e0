"""Counter-based RNG streams: determinism, block equivalence, uniformity."""

import random

import numpy as np
import pytest

from matchline.rng import (
    GAMMA,
    MASK64,
    Stream,
    mix64,
    mix64_array,
    randbelow_rows,
    shuffle_rows,
    stream_key,
    stream_keys,
    u64_rows,
)

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
@pytest.mark.parametrize("labels", [(), ("origin", 3), (7, "alg", "greedy_nearest", 0)])
@pytest.mark.parametrize("count", [0, 1, 512, 1023])
def test_stream_keys_match_stream_key(seed, labels, count):
    """A stream's block of draws is mix64(stream_key + j GAMMA), j = 1..count.

    Origins read a whole round as one block, so this pins the block path to
    the documented format, keyed by stream_key, at the block sizes a round
    takes (up to 1023 cells).
    """
    s = Stream(seed, *labels)
    assert s.key == stream_key(seed, *labels)
    got = u64_rows([s.key], count)
    assert got.dtype == np.uint64 and got.shape == (1, count)
    assert got[0].tolist() == [mix64(s.key + j * GAMMA) for j in range(1, count + 1)]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_keys_reject_seed_like_stream_key(seed):
    with pytest.raises(ValueError, match="64-bit"):
        stream_key(seed, "origin", 1, 0)


def test_stream_deterministic_and_stateless_between_instances():
    a = Stream(77, "x", 3)
    b = Stream(77, "x", 3)
    assert [a.u64() for _ in range(5)] == [b.u64() for _ in range(5)]


def test_u64_rows_match_scalar_draws():
    streams = [Stream(5, "block"), Stream(6, "block"), Stream(5, "block")]
    block = u64_rows([s.key for s in streams], 257)
    assert block.dtype == np.uint64 and block.shape == (3, 257)
    assert block.tolist() == [[s.u64() for _ in range(257)] for s in streams]


def test_randbelow_bounds_and_determinism():
    s = Stream(31, "rb")
    draws = [s.randbelow(10) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 9
    t = Stream(31, "rb")
    assert draws == [t.randbelow(10) for _ in range(2000)]


def test_randbelow_one_consumes_nothing():
    s = Stream(1, "one")
    before = s.counter
    assert s.randbelow(1) == 0
    assert s.counter == before


def test_randbelow_rejects_bad_bound():
    s = Stream(1, "bad")
    with pytest.raises(ValueError):
        s.randbelow(0)


def test_randbelow_roughly_uniform():
    s = Stream(202, "freq")
    counts = [0] * 4
    for _ in range(100_000):
        counts[s.randbelow(4)] += 1
    for c in counts:
        # 25% within 1 percentage point; sd is about 0.14pp here
        assert abs(c / 100_000 - 0.25) < 0.01


def test_shuffle_is_permutation_and_seeded():
    items = list(range(30))
    s = Stream(8, "sh")
    s.shuffle(items)
    assert sorted(items) == list(range(30))
    again = list(range(30))
    Stream(8, "sh").shuffle(again)
    assert items == again
    other = list(range(30))
    Stream(9, "sh").shuffle(other)
    assert other != items


def _randbelow_per_draw(stream, m):
    """Oracle: the per-draw rejection loop, one u64() at a time."""
    if m == 1:
        return 0
    b = (m - 1).bit_length()
    while True:
        v = stream.u64() >> (64 - b)
        if v < m:
            return v


@pytest.mark.parametrize(
    "bounds",
    [
        [1],
        [1, 1, 1],
        [2, 4, 8, 1 << 20, 1 << 63, 1 << 64],
        [3, 5, 9, 17, (1 << 40) + 1, (1 << 63) + 1],
        # 2^b + 1 rejects almost half its draws, so the first read-ahead of
        # 1.5 draws per bound runs out and the draws are read again
        [(1 << 12) + 1] * 300,
        [1, 2, 1, 3, 1] * 40,
        list(range(500, 0, -1)),
        [],
    ],
)
def test_randbelow_each_matches_per_draw_loop(bounds):
    for seed in (0, 7, (1 << 64) - 1):
        block, oracle = Stream(seed, "each"), Stream(seed, "each")
        block.u64()  # start mid-stream
        oracle.u64()
        got = block.randbelow_each(bounds)
        assert got == [_randbelow_per_draw(oracle, m) for m in bounds]
        assert block.counter == oracle.counter
        # later draws continue from the same place
        assert block.u64() == oracle.u64()
        assert block.randbelow(1000) == _randbelow_per_draw(oracle, 1000)


def test_randbelow_each_refills_past_its_first_block():
    s = Stream(3, "refill")
    bounds = [(1 << 12) + 1] * 300
    s.randbelow_each(bounds)
    assert s.counter > 450  # past the first read-ahead of 1.5 draws per bound


def test_randbelow_each_rejects_bad_bound():
    with pytest.raises(ValueError):
        Stream(1, "bad").randbelow_each([3, 0, 2])


def test_shuffle_matches_per_draw_fisher_yates():
    for size in (0, 1, 2, 3, 64, 257):
        items, want = list(range(size)), list(range(size))
        Stream(12, "fy", size).shuffle(items)
        oracle = Stream(12, "fy", size)
        for idx in range(size - 1, 0, -1):
            j = _randbelow_per_draw(oracle, idx + 1)
            want[idx], want[j] = want[j], want[idx]
        assert items == want


@pytest.mark.parametrize(
    "bounds",
    [
        [2, 3],  # 3 streams x 2 draws: the scalar read-ahead
        [(1 << 12) + 1] * 300,  # about 600 draws: every row refills
        # about 450 draws, the read-ahead: some rows refill and some do not
        [(1 << 12) + 1] * 150 + [1 << 12] * 150,
        [1, 5, 1, 1, (1 << 33) + 1, 7, 1] * 10,
        [1, 1],
        [],
    ],
)
def test_randbelow_rows_matches_per_draw_loop(bounds):
    # streams at different counters share one bound list and one read-ahead
    starts = (0, 1, 5, 40, 1000, 3)
    rows = [Stream(seed, "rows") for seed in (0, 7, (1 << 64) - 1, 7, 9, 11)]
    oracles = [Stream(seed, "rows") for seed in (0, 7, (1 << 64) - 1, 7, 9, 11)]
    for s, o, start in zip(rows, oracles, starts):
        s.counter = o.counter = start
    used = []
    for width in (3, 6):
        before = [s.counter for s in rows[:width]]
        got = randbelow_rows(rows[:width], bounds)
        assert got == [[_randbelow_per_draw(o, m) for m in bounds] for o in oracles[:width]]
        assert [s.counter for s in rows] == [o.counter for o in oracles]
        used += [s.counter - c for s, c in zip(rows, before)]
    assert [s.u64() for s in rows] == [o.u64() for o in oracles]
    if len(bounds) == 300:
        refilled = {u > 450 for u in used}
        assert refilled == ({True} if len(set(bounds)) == 1 else {True, False}), used


def test_randbelow_rows_of_no_streams_and_bad_bounds():
    assert randbelow_rows([], [3, 4]) == []
    assert randbelow_rows([], []) == []
    with pytest.raises(ValueError):
        randbelow_rows([Stream(1, "bad")], [3, 0, 2])


@pytest.mark.parametrize("size", [0, 1, 2, 9, 128])
def test_shuffle_rows_is_a_shuffle_per_stream(size):
    seeds = (3, 4, 5, 3)
    rows = [list(range(size)) for _ in seeds]
    shuffle_rows([Stream(seed, "fy-rows") for seed in seeds], rows)
    for seed, row in zip(seeds, rows):
        want = list(range(size))
        Stream(seed, "fy-rows").shuffle(want)
        assert row == want
    shuffle_rows([], [])
