"""Instance generation and the exact origin statistics."""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from matchline.adversary import (
    GenParams,
    Instance,
    ORDER_SHUFFLED,
    SAMPLER_VERSION,
    _grid_num,
    arrival_indices,
    check_round_numerators,
    default_grid_k,
    g_moments,
    generate,
    instance_from_jsonl,
    instance_seed,
    instance_to_jsonl,
    origin_round_numerators,
    rounds_for,
)
from matchline.rng import stream_key
from oracles import CALIBRATION_Z, binomial_z


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
    seeds = [instance_seed(8, t) for t in range(5)] + [0, (1 << 64) - 1]
    rounds = origin_round_numerators(i, grid_k, seeds)
    assert [nums.shape for nums in rounds] == [(len(seeds), 1 << (i - r)) for r in range(1, i + 1)]
    assert all(nums.dtype == np.int64 for nums in rounds)
    for b, seed in enumerate(seeds):
        inst = generate(GenParams(i, grid_k, seed))
        assert [nums[b].tolist() for nums in rounds] == [x.tolist() for x in inst.origins]


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
    seeds = [instance_seed(99, t) for t in range(trials)]
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


def test_arrival_order_modes():
    params = GenParams(i=4, grid_k=8, seed=66)
    assert arrival_indices(params, 1) == list(range(8))

    shuffled = dataclasses.replace(params, request_order=ORDER_SHUFFLED)
    got = arrival_indices(shuffled, 1)
    assert sorted(got) == list(range(8))
    assert got == arrival_indices(shuffled, 1)  # stable under repetition
    other = dataclasses.replace(shuffled, seed=67)
    assert arrival_indices(other, 1) != got


def test_jsonl_round_trip_bit_exact():
    inst = generate(GenParams(i=3, grid_k=11, seed=123, request_order=ORDER_SHUFFLED))
    text = instance_to_jsonl(inst)
    back = instance_from_jsonl(text)
    assert back == inst
    assert instance_to_jsonl(back) == text
    head, rest = text.split("\n", 1)
    fields = json.loads(head)
    assert fields["sampler"] == SAMPLER_VERSION == 2
    del fields["sampler"]  # transcripts written before the key existed still load
    assert instance_from_jsonl(json.dumps(fields) + "\n" + rest) == inst


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


def _swap_first_cells(text):
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    return "\n".join(lines) + "\n"


def _off_grid(rec):
    # half a grid step right of the origin, same point for the request
    point = {"num": 2 * rec["origin"]["num"] + 1, "k": rec["origin"]["k"] + 1}
    return {**rec, "origin": point, "request": point}


def _fractional_numerator(rec):
    point = {"num": rec["origin"]["num"] + 0.5, "k": rec["origin"]["k"]}
    return {**rec, "origin": point, "request": point}


def _other_request(rec):
    return {**rec, "request": {"num": rec["origin"]["num"] + 1, "k": rec["origin"]["k"]}}


@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda t: _edit_line(t, 0, _without("seed")), "KeyError"),
        (lambda t: _edit_line(t, 1, _without("origin")), "KeyError"),
        (lambda t: _edit_line(t, 1, lambda rec: [1, 2]), "TypeError"),
        (lambda t: _edit_line(t, 0, lambda rec: None), "TypeError"),
        (lambda t: _edit_line(t, 1, _with("origin", 5)), "TypeError"),
        (lambda t: _edit_line(t, 1, _with("origin", {"num": 1 << 69, "k": 3})), "64 bits"),
        (lambda t: _edit_line(t, 1, _with("origin", {"num": 0, "k": -1})), "non-negative"),
        (_swap_first_cells, "cell 1 where 0 is due"),
        (lambda t: _edit_line(t, 1, _other_request), "request is not the origin"),
        (lambda t: _edit_line(t, 1, _off_grid), "off the scale-3 grid"),
        (lambda t: _edit_line(t, 1, _with("subinterval", 0.5)), "JSON integer"),
        (lambda t: _edit_line(t, 1, _fractional_numerator), "JSON integer"),
    ],
    ids=[
        "missing-header-key", "missing-entry-key", "list-line", "null-line", "int-origin",
        "70-bit-numerator", "negative-scale", "subinterval-out-of-order", "request-not-origin", "off-grid-origin",
        "float-subinterval", "float-numerator",
    ],
)
def test_malformed_transcript_raises_value_error(tamper, message):
    text = instance_to_jsonl(generate(GenParams(i=2, grid_k=3, seed=1)))
    instance_from_jsonl(text)
    with pytest.raises(ValueError, match=message):
        instance_from_jsonl(tamper(text))


def test_reader_accepts_finer_scale_on_grid():
    # an on-grid value written at a finer scale reads as the same numerator
    inst = generate(GenParams(i=2, grid_k=3, seed=1))
    point = {"num": int(inst.origins[0][0]) << 2, "k": 5}
    text = _edit_line(instance_to_jsonl(inst), 1, lambda rec: {**rec, "origin": point, "request": point})
    assert instance_from_jsonl(text) == inst


@pytest.mark.parametrize(
    "num,scale,want",
    [
        (5, 3, 5),
        (5, 1, 20),  # coarser: shifted up to scale 3
        (-5, 0, -40),
        (40, 6, 5),  # finer, on the grid
        (-40, 6, -5),
        (0, 10**9, 0),  # zero lies on every grid
        ((1 << 63) - 1, 3, (1 << 63) - 1),
    ],
)
def test_grid_num_reads_on_grid_values(num, scale, want):
    assert _grid_num({"num": num, "k": scale}, 3) == want


@pytest.mark.parametrize(
    "num,scale,error,message",
    [
        (1, -1, ValueError, "scale must be non-negative, got -1"),
        (1 << 63, 0, OverflowError, "does not fit 64 bits"),
        (-(1 << 63) - 1, 3, OverflowError, "does not fit 64 bits"),
        (41, 6, ValueError, "off the scale-3 grid"),
        (-20, 6, ValueError, "off the scale-3 grid"),
        (1, 10**9, ValueError, "off the scale-3 grid"),
        (-(1 << 62), 10**9, ValueError, "off the scale-3 grid"),
    ],
)
def test_grid_num_refuses_off_grid_and_wide_values(num, scale, error, message):
    with pytest.raises(error, match=message):
        _grid_num({"num": num, "k": scale}, 3)


def test_grid_num_huge_scale_builds_no_huge_integer():
    # a reader that formed 2**(10**9 - 3) would spend milliseconds and 125 MB
    for point in ({"num": 0, "k": 10**9}, {"num": 1, "k": 10**9}):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            try:
                _grid_num(point, 3)
            except ValueError:
                pass
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, (point, best)


def test_reader_takes_zero_at_a_huge_scale():
    # 0 lies in cell 0 of every round, so the first entry may be any zero
    inst = generate(GenParams(i=2, grid_k=3, seed=1))
    zero = {"num": 0, "k": 10**9}
    text = _edit_line(instance_to_jsonl(inst), 1, _with("origin", zero))
    text = _edit_line(text, 1, _with("request", zero))
    back = instance_from_jsonl(text)
    assert back.origins[0].tolist() == [0, *inst.origins[0][1:].tolist()]
    assert all(np.array_equal(a, b) for a, b in zip(back.origins[1:], inst.origins[1:]))
