"""Instance generation and the exact origin statistics."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from matchline.adversary import (
    GenParams,
    Instance,
    ORDER_SHUFFLED,
    SAMPLER_VERSION,
    arrival_orders,
    check_round_numerators,
    default_grid_k,
    g_moment_nums,
    g_moments,
    generate,
    instance_from_jsonl,
    instance_seeds,
    instance_to_jsonl,
    origin_round_numerators,
    rounds_for,
)
from matchline.rng import GAMMA, stream_key
from oracles import CALIBRATION_Z, binomial_z, mix64


def test_rounds_for():
    assert rounds_for(1) == 1
    assert rounds_for(7) == 3
    assert rounds_for(1023) == 10
    for bad in (0, 2, 4, 6, -1, 1024):
        with pytest.raises(ValueError):
            rounds_for(bad)


def test_default_grid_k():
    assert default_grid_k(3) == 3
    assert default_grid_k(1023) == 40
    assert default_grid_k(2047) == 38
    for i in range(1, 31):
        n = (1 << i) - 1
        k = default_grid_k(n)
        assert 0 <= k and 2 * i + k + 1 <= 61
        GenParams(i=i, grid_k=k, seed=0)
        if i <= 10:
            assert k == min(n, 40)


def test_params_width_rule():
    # a sum of n distances, each at most (n + 1) << grid_k, must fit int64
    GenParams(i=3, grid_k=54, seed=0)
    with pytest.raises(ValueError):
        GenParams(i=3, grid_k=55, seed=0)
    GenParams(i=10, grid_k=40, seed=0)
    with pytest.raises(ValueError):
        GenParams(i=10, grid_k=41, seed=0)
    GenParams(i=30, grid_k=0, seed=0)
    with pytest.raises(ValueError, match="exceeds 61"):
        GenParams(i=31, grid_k=default_grid_k((1 << 31) - 1), seed=0)


def test_params_validation():
    GenParams(i=1, grid_k=0, seed=0)
    with pytest.raises(ValueError):
        GenParams(i=0, grid_k=4, seed=0)
    with pytest.raises(ValueError):
        GenParams(i=3, grid_k=-1, seed=0)
    with pytest.raises(ValueError):
        GenParams(i=10, grid_k=52, seed=0)  # 2 * 10 + 52 + 1 > 61
    with pytest.raises(ValueError):
        GenParams(i=2, grid_k=4, seed=-1)
    with pytest.raises(ValueError):
        GenParams(i=2, grid_k=4, seed=1 << 64)
    with pytest.raises(ValueError):
        GenParams(i=2, grid_k=4, seed=0, request_order="sorted")


def test_smallest_instance():
    inst = generate(GenParams(i=1, grid_k=6, seed=9))
    assert inst.n == 1
    assert [s.at_scale(6) for s in inst.servers] == [1 << 6]
    assert len(inst.origins) == 1
    (num,) = inst.origins[0].tolist()
    assert 0 <= num < 2 << 6


def test_n3_layout():
    inst = generate(GenParams(i=2, grid_k=8, seed=4))
    assert [s.at_scale(8) for s in inst.servers] == [1 << 8, 2 << 8, 3 << 8]
    r1, r2 = inst.origins
    assert r1.dtype == r2.dtype == np.int64
    assert len(r1) == 2 and len(r2) == 1
    # round r has cells of width 2**r, i.e. 2**(r + 8) grid units
    for m, num in enumerate(r1.tolist()):
        assert (2 * m) << 8 <= num < (2 * (m + 1)) << 8
    assert 0 <= int(r2[0]) < 4 << 8


def test_round_sizes_sum_to_n():
    inst = generate(GenParams(i=5, grid_k=10, seed=1))
    sizes = [len(nums) for nums in inst.origins]
    assert sizes == [(inst.n + 1) >> r for r in range(1, 6)]
    assert sum(sizes) == inst.n


def test_generate_is_deterministic():
    params = GenParams(i=3, grid_k=12, seed=777)
    a, b = generate(params), generate(params)
    assert a == b
    assert instance_to_jsonl(a) == instance_to_jsonl(b)
    c = generate(dataclasses.replace(params, seed=778))
    assert c != a
    moved = dataclasses.replace(a, origins=(a.origins[0] + 1,) + a.origins[1:])
    assert moved != a and moved.params == a.params


def test_requests_sit_on_sampled_origins():
    # origins are drawn on the grid itself, so each request is its origin
    inst = generate(GenParams(i=4, grid_k=9, seed=31))
    nums = np.concatenate(inst.origins).tolist()
    requests = inst.all_requests()
    assert [c.num for c in requests] == nums
    assert all(c.k == 9 for c in requests)


def test_validate_rejects_tampering():
    # round-1 cell 0 is [0, 2); value 3 is outside, in the arrays and in a transcript
    inst = generate(GenParams(i=2, grid_k=5, seed=2))
    moved = [a.copy() for a in inst.origins]
    moved[0][0] = 3 << 5
    with pytest.raises(ValueError, match="off its cell"):
        check_round_numerators(inst.params, moved)
    with pytest.raises(ValueError, match="off its cell"):
        Instance(inst.params, tuple(moved))
    head, entry, rest = instance_to_jsonl(inst).split("\n", 2)
    record = json.loads(entry)
    assert (record["round"], record["subinterval"]) == (1, 0)
    record["origin"] = record["request"] = {"num": 3 << 5, "k": 5}
    with pytest.raises(ValueError, match="off its cell"):
        instance_from_jsonl("\n".join([head, json.dumps(record), rest]))


def test_check_round_numerators_rejects_tampering():
    params = GenParams(i=3, grid_k=5, seed=2)
    nums = [block[0] for block in origin_round_numerators(3, 5, [2])]
    check_round_numerators(params, nums)
    moved = [a.copy() for a in nums]
    moved[0][1] = moved[0][0]  # round-1 cell 1 given a cell-0 origin
    short = [nums[0][:-1]] + nums[1:]
    unsigned = [a.astype(np.uint64) for a in nums]  # |x - s| would wrap
    for bad in (moved, short, nums[:-1], unsigned):
        with pytest.raises(ValueError):
            check_round_numerators(params, bad)


def test_check_round_numerators_names_the_first_breach():
    params = GenParams(i=3, grid_k=5, seed=2)
    nums = [block[0] for block in origin_round_numerators(3, 5, [2])]

    def message(rounds):
        with pytest.raises(ValueError) as err:
            check_round_numerators(params, rounds)
        return str(err.value)

    def moved(*edits):
        rounds = [a.copy() for a in nums]
        for r, m, value in edits:
            rounds[r - 1][m] = value
        return rounds

    # round 2's cells are [0, 4 << 5) and [4 << 5, 8 << 5); a round 1 cell
    # is half as wide, so round 1's last origin is the first one past it
    assert message(moved((2, 0, 4 << 5), (3, 0, -1))) == "round 2: origin off its cell"
    assert message(moved((3, 0, -1), (1, 3, 8 << 5))) == "round 1: origin off its cell"
    assert message(moved((3, 0, 8 << 5))) == "round 3: origin off its cell"
    assert message(moved((2, 1, (4 << 5) - 1))) == "round 2: origin off its cell"
    # every length and dtype is checked before any cell
    short = moved((1, 0, 1 << 10))
    short[2] = short[2][:0]
    assert message(short) == "round 3: expected 1 requests"
    wide = nums[:2] + [nums[2].astype(np.int32)]
    assert message(wide) == "round 3: origins must be int64, got int32"
    assert message(nums[:2]) == "expected 3 rounds, got 2"


def test_origin_round_numerators_match_generate():
    params = GenParams(i=4, grid_k=7, seed=55)
    inst = generate(params)
    nums = origin_round_numerators(4, 7, [55])
    assert len(inst.origins) == len(nums)
    for got, want in zip(inst.origins, nums):
        assert want.shape == (1, len(got))
        assert got.tolist() == want[0].tolist()


@pytest.mark.parametrize("i,grid_k", [(1, 0), (3, 6), (10, 40)])
def test_block_sampler_rows_are_the_one_seed_instances(i, grid_k):
    # (10, 40) shifts by up to r + grid_k = 50 bits
    seeds = instance_seeds(8, range(5)) + [0, (1 << 64) - 1]
    rounds = origin_round_numerators(i, grid_k, seeds)
    assert [nums.shape for nums in rounds] == [(len(seeds), 1 << (i - r)) for r in range(1, i + 1)]
    assert all(nums.dtype == np.int64 for nums in rounds)
    for b, seed in enumerate(seeds):
        inst = generate(GenParams(i, grid_k, seed))
        assert [nums[b].tolist() for nums in rounds] == [x.tolist() for x in inst.origins]


def test_instance_seeds_match_stream_key():
    assert instance_seeds(8, range(40)) == [stream_key(8, "trial", t) for t in range(40)]
    assert instance_seeds(8, [7, 3]) == [stream_key(8, "trial", 7), stream_key(8, "trial", 3)]
    assert instance_seeds(8, []) == []


@pytest.mark.parametrize("seed", [0, 77, (1 << 64) - 1])
def test_round_origins_are_the_documented_stream(seed):
    # round r reads draw m of stream (seed, "origin", r) for cell m
    i, grid_k = 4, 5
    rounds = origin_round_numerators(i, grid_k, [seed])
    for r, nums in enumerate(rounds, start=1):
        cells, width = 1 << (i - r), r + grid_k
        key = stream_key(seed, "origin", r)
        draws = [mix64(key + j * GAMMA) for j in range(1, cells + 1)]
        assert nums[0].tolist() == [(m << width) + (u >> (64 - width)) for m, u in enumerate(draws)]


def test_block_sampler_on_no_seeds_gives_empty_rounds():
    rounds = origin_round_numerators(3, 6, [])
    assert [nums.shape for nums in rounds] == [(0, 4), (0, 2), (0, 1)]


def test_expected_g_examples():
    assert g_moments(2, 3)[0] == Fraction(3, 2)
    assert g_moments(4, 7)[0] == Fraction(7, 2)
    for n in (1, 3, 7, 31):
        assert g_moments(n, n)[0] == Fraction(n * n, n + 1)


def test_variance_g_examples():
    assert g_moments(2, 3)[1] == Fraction(1, 4)
    assert g_moments(1, 1)[1] == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 3, 7, 15, 63])
def test_variance_bound_all_ell(n):
    i = rounds_for(n)
    for ell in range(1, n + 1):
        assert g_moments(ell, n)[1] <= Fraction(i, 4)


def test_per_round_variance_contribution():
    # each round has at most one cell with 0 < p < 1, worth at most 1/4
    n = 31
    for ell in range(1, n + 1):
        for r in range(1, 6):
            width = 1 << r
            contrib = Fraction(0)
            straddlers = 0
            for m in range((n + 1) >> r):
                p = Fraction(min(max(ell - m * width, 0), width), width)
                if 0 < p < 1:
                    straddlers += 1
                contrib += p * (1 - p)
            assert straddlers <= 1
            assert contrib <= Fraction(1, 4)


def test_g_moments_consistency():
    mean, var = g_moments(5, 7)
    assert mean == Fraction(5) - Fraction(5, 8)
    # p = 1/2, 1/4 and 5/8 in the cells of rounds 1, 2 and 3 that hold ell = 5
    assert var == Fraction(1, 4) + Fraction(3, 16) + Fraction(15, 64)
    with pytest.raises(ValueError):
        g_moments(0, 7)
    with pytest.raises(ValueError):
        g_moments(8, 7)


@pytest.mark.parametrize("i", [1, 3, 6])
def test_g_moment_nums_of_an_array_are_the_per_rank_values(i):
    ranks = np.arange(1, 1 << i, dtype=np.int64)
    mean_num, var_num = g_moment_nums(ranks, i)
    assert mean_num.dtype == var_num.dtype == np.int64
    assert list(zip(mean_num.tolist(), var_num.tolist())) == [
        g_moment_nums(ell, i) for ell in ranks.tolist()
    ]


@pytest.mark.parametrize("bad", [0, -1, 8])
def test_g_moment_nums_rejects_an_array_entry_like_an_int(bad):
    with pytest.raises(ValueError, match=f"ell must be in 1..7, got {bad}$"):
        g_moment_nums(bad, 3)
    with pytest.raises(ValueError, match=f"ell must be in 1..7, got {bad}$"):
        g_moment_nums(np.array([1, 7, bad, 2], dtype=np.int64), 3)


def _g_moments_by_clamps(ell, n):
    # reference: clamp every origin's p = P(origin < ell) cell by cell
    i = rounds_for(n)
    mean_num = 0
    var_num = 0
    for r in range(1, i + 1):
        width = 1 << r
        for m in range((n + 1) >> r):
            c = min(max(ell - (m << r), 0), width)
            mean_num += c << (i - r)
            var_num += (c * (width - c)) << (2 * (i - r))
    return Fraction(mean_num, 1 << i), Fraction(var_num, 1 << (2 * i))


def test_g_moments_match_per_origin_clamps():
    for i in range(1, 11):
        n = (1 << i) - 1
        for ell in range(1, n + 1):
            assert g_moments(ell, n) == _g_moments_by_clamps(ell, n), (ell, n)


def test_g_sample_mean_tracks_expectation():
    n, ell, trials = 7, 4, 4000
    mean, var = g_moments(ell, n)
    total = 0
    for t in range(trials):
        nums = np.concatenate(origin_round_numerators(3, 8, [stream_key(90, "gmc", t)]), axis=1)
        total += int((nums < (ell << 8)).sum())
    sample = Fraction(total, trials)
    slack = 4 * float(var / trials) ** 0.5
    assert abs(float(sample - mean)) <= slack


def test_origin_sampler_calibration():
    """Origins are uniform on their cell's grid, and independent across cells.

    4096 instances at n = 7, grid_k = 2: every (round, cell, offset) count,
    96 in all, against uniform, and round 1's rate of equal offsets in cells
    0 and 1 against 1/8.  Each of the 97 comparisons is two-sided at
    CALIBRATION_Z = 4.5 SE, so a correct sampler fails the family with
    probability at most 97 x 6.8e-6 = 0.07 %.
    """
    trials, grid_k = 4096, 2
    seeds = instance_seeds(99, range(trials))
    offsets = [
        nums - (np.arange(nums.shape[1]) << (r + grid_k))
        for r, nums in enumerate(origin_round_numerators(3, grid_k, seeds), start=1)
    ]
    zs = []
    for r, offs in enumerate(offsets, start=1):
        size = 1 << (r + grid_k)
        for cell in offs.T:
            zs += [binomial_z(c, trials, 1 / size) for c in np.bincount(cell, minlength=size)]
    assert len(zs) == 96
    equal = int((offsets[0][:, 0] == offsets[0][:, 1]).sum())
    zs.append(binomial_z(equal, trials, 1 / 8))
    worst = max(zs, key=abs)
    assert abs(worst) <= CALIBRATION_Z, (zs.index(worst), worst)


def one_instance_orders(params):
    """arrival_orders of a block of one instance: round r's order at r - 1."""
    return [orders[0].tolist() for orders in arrival_orders([params])]


def test_arrival_order_modes():
    params = GenParams(i=4, grid_k=8, seed=66)
    assert one_instance_orders(params) == [list(range(8 >> r)) for r in range(4)]

    shuffled = dataclasses.replace(params, request_order=ORDER_SHUFFLED)
    got = one_instance_orders(shuffled)[0]
    assert sorted(got) == list(range(8))
    assert got == one_instance_orders(shuffled)[0]  # stable under repetition
    other = dataclasses.replace(shuffled, seed=67)
    assert one_instance_orders(other)[0] != got


def test_block_arrival_orders_are_the_one_instance_orders():
    # shuffled and left-to-right instances mixed in one block, seeds repeated
    params = [
        GenParams(i=6, grid_k=3, seed=seed, request_order=order)
        for seed, order in [
            (1, ORDER_SHUFFLED), (2, "left_to_right"), (3, ORDER_SHUFFLED),
            (1, "left_to_right"), (1, ORDER_SHUFFLED), ((1 << 64) - 1, ORDER_SHUFFLED),
        ]
    ]
    orders = [[row.tolist() for row in rows] for rows in zip(*arrival_orders(params))]
    assert [len(rows) for rows in orders] == [6] * 6  # orders[b][r - 1]
    for p, rows in zip(params, orders):
        assert rows == one_instance_orders(p)
        # round r lists its cells by the draws of the key (seed, "order", r)
        for r, row in enumerate(rows, start=1):
            want = list(range(64 >> r))
            if p.request_order == ORDER_SHUFFLED:
                key = stream_key(p.seed, "order", r)
                want.sort(key=lambda j: mix64(key + (j + 1) * GAMMA))
            assert row == want
    assert orders[0] == orders[4] and orders[0] != orders[3]


def test_shuffled_arrival_order_frozen_values():
    # pinned with SAMPLER_VERSION: a new draw rule must bump the version
    assert SAMPLER_VERSION == 3
    params = GenParams(i=4, grid_k=8, seed=66, request_order=ORDER_SHUFFLED)
    assert one_instance_orders(params)[0] == [4, 7, 3, 2, 0, 6, 5, 1]


def test_jsonl_round_trip_bit_exact():
    inst = generate(GenParams(i=3, grid_k=11, seed=123, request_order=ORDER_SHUFFLED))
    text = instance_to_jsonl(inst)
    back = instance_from_jsonl(text)
    assert back == inst
    assert instance_to_jsonl(back) == text
    head, rest = text.split("\n", 1)
    fields = json.loads(head)
    assert fields["sampler"] == SAMPLER_VERSION == 3
    del fields["sampler"]  # a transcript that names no sampler is refused
    with pytest.raises(ValueError, match="transcript of sampler None; this reader takes sampler 3"):
        instance_from_jsonl(json.dumps(fields) + "\n" + rest)


@pytest.mark.parametrize("sampler", [2, 99, 3.5, "3"])
def test_jsonl_refuses_another_sampler(sampler):
    # a shuffled transcript of another sampler would replay in sampler 3's order
    inst = generate(GenParams(i=3, grid_k=11, seed=123, request_order=ORDER_SHUFFLED))
    text = _edit_line(instance_to_jsonl(inst), 0, _with("sampler", sampler))
    message = rf"transcript of sampler {sampler!r}; this reader takes sampler 3$"
    with pytest.raises(ValueError, match=message):
        instance_from_jsonl(text)


def test_file_round_trip(tmp_path):
    inst = generate(GenParams(i=2, grid_k=4, seed=5))
    path = tmp_path / "inst.jsonl"
    path.write_text(instance_to_jsonl(inst), encoding="utf-8")
    assert instance_from_jsonl(path.read_text(encoding="utf-8")) == inst


def _edit_line(text, index, edit):
    """text with line `index` replaced by edit(record) (a dict), re-serialized."""
    lines = text.splitlines()
    lines[index] = json.dumps(edit(json.loads(lines[index])))
    return "\n".join(lines) + "\n"


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


def _with(key, value):
    return lambda rec: {**rec, key: value}


def _move_line(text, src, dst):
    """text with line `src` moved to index `dst`."""
    lines = text.splitlines()
    lines.insert(dst, lines.pop(src))
    return "\n".join(lines) + "\n"


def _drop_last_entry(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _repeat_last_entry(text):
    return text + text.splitlines()[-1] + "\n"


def _at(point):
    """Edit that puts origin and request both at `point`."""
    return lambda rec: {**rec, "origin": point, "request": point}


def _finer_on_grid(rec):
    # the same origin and request, written two bits finer than grid_k
    return _at({"num": rec["origin"]["num"] << 2, "k": rec["origin"]["k"] + 2})(rec)


def _off_grid(rec):
    # half a grid step right of the origin, same point for the request
    return _at({"num": 2 * rec["origin"]["num"] + 1, "k": rec["origin"]["k"] + 1})(rec)


def _fractional_numerator(rec):
    return _at({"num": rec["origin"]["num"] + 0.5, "k": rec["origin"]["k"]})(rec)


def _fractional_request(rec):
    return {**rec, "request": {"num": rec["origin"]["num"] + 0.5, "k": rec["origin"]["k"]}}


def _other_request(rec):
    return {**rec, "request": {"num": rec["origin"]["num"] + 1, "k": rec["origin"]["k"]}}


# The transcript is i = 2, grid_k = 3: line 0 is the header, lines 1 and 2
# are round 1's cells 0 and 1, and line 3 is round 2's cell 0.
@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda t: _edit_line(t, 0, _without("seed")), "KeyError"),
        (lambda t: _edit_line(t, 1, _without("origin")), "KeyError"),
        (lambda t: _edit_line(t, 1, lambda rec: [1, 2]), "TypeError"),
        (lambda t: _edit_line(t, 0, lambda rec: None), "TypeError"),
        (lambda t: _edit_line(t, 1, _with("origin", 5)), "TypeError"),
        (lambda t: _edit_line(t, 1, _at({"num": 1 << 69, "k": 3})), "OverflowError"),
        (lambda t: _edit_line(t, 1, _at({"num": 0, "k": -1})), "scale -1, expected grid_k = 3"),
        (lambda t: _move_line(t, 2, 1), "round 1 cell 1 where round 1 cell 0 is due"),
        (lambda t: _edit_line(t, 1, _other_request), "request is not the origin"),
        (lambda t: _edit_line(t, 1, _off_grid), "scale 4, expected grid_k = 3"),
        (lambda t: _edit_line(t, 1, _with("subinterval", 0.5)), "JSON integer"),
        (lambda t: _edit_line(t, 1, _fractional_numerator), "JSON integer"),
        (lambda t: "", "empty transcript"),
        (lambda t: "\n \n", "empty transcript"),
        (lambda t: _move_line(t, 1, 0), "must start with a params record"),
        (lambda t: _edit_line(t, 0, _with("n", 7)), "header n=7 does not match i=2"),
        (lambda t: _edit_line(t, 1, _with("record", "params")), "unexpected record 'params'"),
        (lambda t: _move_line(t, 3, 1), "round 2 cell 0 where round 1 cell 0 is due"),
        (lambda t: _edit_line(t, 1, _finer_on_grid), "scale 5, expected grid_k = 3"),
        (lambda t: _edit_line(t, 1, _at({"num": 1, "k": 0})), "scale 0, expected grid_k = 3"),
        (lambda t: _edit_line(t, 1, _at({"num": 0, "k": 10**9})), "scale 1000000000, expected grid_k = 3"),
        (_drop_last_entry, "expected 3 entries, got 2"),
        (_repeat_last_entry, "expected 3 entries, got 4"),
        (lambda t: _edit_line(t, 1, _fractional_request), "JSON integer"),
    ],
    ids=[
        "missing-header-key", "missing-entry-key", "list-line", "null-line", "int-origin",
        "70-bit-numerator", "negative-scale", "subinterval-out-of-order", "request-not-origin", "off-grid-origin",
        "float-subinterval", "float-numerator", "empty", "blank-lines", "entry-before-header",
        "header-n-mismatch", "second-params-record", "round-2-before-round-1", "finer-scale-on-grid",
        "coarser-scale", "huge-scale-zero", "too-few-entries", "too-many-entries", "float-request-numerator",
    ],
)
def test_malformed_transcript_raises_value_error(tamper, message):
    text = instance_to_jsonl(generate(GenParams(i=2, grid_k=3, seed=1)))
    instance_from_jsonl(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        instance_from_jsonl(tamper(text))
