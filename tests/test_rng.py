"""Counter-based RNG streams: determinism, block equivalence, uniformity."""

import numpy as np
import pytest

from matchline.rng import GAMMA, MASK64, Stream, mix64, mix64_array, stream_key

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

    Origins and sampled configurations read a whole round as one block, so
    this pins the block path to the documented format, keyed by stream_key,
    at the block sizes a round takes (up to 1023 cells).
    """
    s = Stream(seed, *labels)
    assert s.key == stream_key(seed, *labels)
    got = s.u64_block(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [mix64(s.key + j * GAMMA) for j in range(1, count + 1)]
    assert s.counter == count


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_stream_keys_reject_seed_like_stream_key(seed):
    with pytest.raises(ValueError, match="64-bit"):
        stream_key(seed, "origin", 1, 0)


def test_stream_deterministic_and_stateless_between_instances():
    a = Stream(77, "x", 3)
    b = Stream(77, "x", 3)
    assert [a.u64() for _ in range(5)] == [b.u64() for _ in range(5)]


def test_u64_block_matches_scalar_draws():
    s = Stream(5, "block")
    block = s.u64_block(257)
    t = Stream(5, "block")
    scalars = [t.u64() for _ in range(257)]
    assert block.dtype == np.uint64
    assert block.tolist() == scalars
    # the stream continues after a block draw without repeating
    assert s.u64() == t.u64()


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
