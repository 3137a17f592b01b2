"""Global-history bookkeeping: windows, path chunks, folded registers."""

import pytest
from hypothesis import given, strategies as st

from branchlab.errors import ArgumentError
from branchlab.predictors.history import (
    LANE, FoldedRegister, GlobalHistory, fold_history, fold_trace, lane_ones, pack_lanes,
    unpack_lanes,
)


class TestFoldHistory:
    def test_worked_examples(self):
        assert fold_history(0b1010, 4, 4) == 0b1010
        assert fold_history(0b10100110, 8, 4) == 0b1100

    def test_partial_chunk_padded_right(self):
        # 6 bits into width 4: chunks (MSB-first) 1011 | 01--, pad -> 0100
        assert fold_history(0b101101, 6, 4) == (0b1011 ^ 0b0100)

    @given(st.integers(1, 200), st.integers(1, 24), st.data())
    def test_result_fits_width(self, length, width, data):
        bits = data.draw(st.integers(0, (1 << length) - 1))
        assert 0 <= fold_history(bits, length, width) < (1 << width)

    @given(st.integers(1, 24), st.data())
    def test_width_equal_to_length_is_identity(self, length, data):
        bits = data.draw(st.integers(0, (1 << length) - 1))
        assert fold_history(bits, length, length) == bits
        # wider than the window: the single chunk is left-aligned
        assert fold_history(bits, length, length + 3) == bits << 3


def lsb_chunk_fold(window, length, width):
    """XOR of the window split into width-bit chunks, newest bits in the
    lowest chunk. This is the invariant the rolling register maintains."""
    acc = 0
    j = 0
    while j * width < length:
        acc ^= (window >> (j * width)) & ((1 << width) - 1)
        j += 1
    return acc


class TestFoldedRegister:
    @given(st.integers(1, 80), st.integers(1, 16), st.lists(st.booleans(), max_size=300))
    def test_matches_refold_of_window(self, length, width, directions):
        """The O(1) rolling update stays a pure function of the current
        window: it equals the from-scratch chunked fold after every push."""
        gh = GlobalHistory(length)
        reg = FoldedRegister(length, width)
        for taken in directions:
            out_bit = gh.bit(length - 1)
            reg.update(1 if taken else 0, out_bit)
            gh.push_direction(taken)
            assert reg.comp == lsb_chunk_fold(gh.window(length), length, width)

    def test_rejects_degenerate_shape(self):
        with pytest.raises(ArgumentError):
            FoldedRegister(0, 4)
        with pytest.raises(ArgumentError):
            FoldedRegister(8, 0)


def rotate_left(value, shift, width):
    shift %= width
    return ((value << shift) | (value >> (width - shift))) & ((1 << width) - 1)


def trace_states(directions, lengths, width, start=0):
    """fold_trace over a list of outcomes, each length's lanes as a list."""
    n = len(directions)
    folds = fold_trace(pack_lanes(directions), n, lengths, width, start)
    return [unpack_lanes(fold, n + 1 - start).tolist() for fold in folds]


class TestLanes:
    @given(st.lists(st.integers(0, (1 << LANE) - 1), max_size=50))
    def test_pack_and_unpack_round_trip(self, values):
        packed = pack_lanes(values)
        assert packed < 1 << (LANE * len(values))
        assert unpack_lanes(packed, len(values)).tolist() == values
        # lane i sits at bits LANE*i onward
        assert all((packed >> (LANE * i)) & ((1 << LANE) - 1) == v for i, v in enumerate(values))

    @given(st.lists(st.integers(0, (1 << LANE) - 1), min_size=1, max_size=30),
           st.integers(0, LANE), st.integers(1, LANE))
    def test_fold_history_folds_each_lane(self, values, length, width):
        """Each lane of a lane-packed fold is the scalar fold of that lane."""
        n = len(values)
        got = fold_history(pack_lanes(values), length, width, lane_ones(n))
        assert unpack_lanes(got, n).tolist() == [fold_history(v, length, width) for v in values]


class TestFoldTrace:
    # L < w, L % w == 0 (twice), neither, L longer than any drawn stream,
    # and the full lane width
    @pytest.mark.parametrize("length,width", [
        (3, 8), (16, 8), (24, 12), (13, 5), (90, 7), (32, 32), (75, 32),
    ])
    @given(directions=st.lists(st.booleans(), max_size=80))
    def test_matches_rolling_register_and_refold(self, length, width, directions):
        [states] = trace_states(directions, [length], width)
        assert len(states) == len(directions) + 1
        assert states[0] == 0
        gh = GlobalHistory(length)
        reg = FoldedRegister(length, width)
        for k, taken in enumerate(directions, start=1):
            reg.update(1 if taken else 0, gh.bit(length - 1))
            gh.push_direction(taken)
            assert states[k] == reg.comp
            # fold_history chunks the window MSB-first, which moves every
            # bit by -length mod width; the two agree when width | length
            refold = fold_history(gh.window(length), length, width)
            assert refold == rotate_left(states[k], -length, width)
            if length % width == 0:
                assert refold == states[k]

    @given(
        st.lists(st.integers(1, 70), min_size=1, max_size=4),
        st.integers(1, LANE),
        st.lists(st.booleans(), max_size=120),
        st.data(),
    )
    def test_rows_and_start_slice_the_single_folds(self, lengths, width, directions, data):
        start = data.draw(st.integers(0, len(directions)))
        got = trace_states(directions, lengths, width, start)
        for row, length in zip(got, lengths):
            assert row == trace_states(directions, [length], width)[0][start:]

    def test_rejects_bad_shape(self):
        zeros = pack_lanes([0] * 4)
        with pytest.raises(ArgumentError):
            fold_trace(zeros, 4, [8], LANE + 1)
        with pytest.raises(ArgumentError):
            fold_trace(zeros, 4, [0], 4)
        with pytest.raises(ArgumentError):
            fold_trace(zeros, 4, [8], 4, start=5)


class TestGlobalHistory:
    @given(
        st.integers(1, 100),
        st.lists(st.booleans(), max_size=150),
        st.lists(st.booleans(), max_size=250),
        st.lists(st.integers(0, (1 << 64) - 1), max_size=8),
        st.booleans(),
    )
    def test_push_many_equals_single_pushes(self, capacity, before, directions, ips, as_ints):
        """Outcomes come as a list of bools, as retire_trace passes them,
        or of 0/1 ints."""
        one = GlobalHistory(capacity)
        many = GlobalHistory(capacity)
        for taken in before:
            one.push_direction(taken)
            many.push_direction(taken)
        for taken in directions:
            one.push_direction(taken)
        for ip in ips:
            one.push_path(ip)
        many.push_many([int(d) for d in directions] if as_ints else directions, ips)
        assert (many.bits, many.path) == (one.bits, one.path)

    @given(st.integers(1, 300), st.lists(st.booleans(), max_size=400))
    def test_bit_and_window_agree_with_list_model(self, capacity, directions):
        gh = GlobalHistory(capacity)
        seen = []  # most recent first
        for taken in directions:
            gh.push_direction(taken)
            seen.insert(0, taken)
            for age in range(min(len(seen), capacity)):
                assert gh.bit(age) == (1 if seen[age] else 0)
            # window(L) packs bit(age) at position age
            for L in {1, 7, capacity, min(64, capacity)}:
                expect = 0
                for age in range(min(L, capacity)):
                    if age < len(seen) and seen[age]:
                        expect |= 1 << age
                assert gh.window(L) == expect

    def test_bit_beyond_capacity_reads_zero(self):
        gh = GlobalHistory(4)
        for _ in range(10):
            gh.push_direction(True)
        assert gh.bit(4) == 0
        assert gh.bit(100) == 0

    def test_window_wider_than_capacity_clamps(self):
        gh = GlobalHistory(3)
        for taken in (True, True, True):
            gh.push_direction(taken)
        assert gh.window(64) == 0b111

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=60))
    def test_path_tracks_recent_ips(self, ips):
        gh = GlobalHistory(32)
        chunk = GlobalHistory.PATH_CHUNK_BITS
        model = 0
        mask = (1 << (chunk * 4)) - 1
        for ip in ips:
            gh.push_path(ip)
            model = ((model << chunk) | (ip & 0xFFFF)) & mask
            assert gh.path == model
            # the newest entry sits in the low chunk
            assert gh.path & 0xFFFF == ip & 0xFFFF

    def test_zero_length_window_is_empty(self):
        gh = GlobalHistory(8)
        gh.push_direction(True)
        assert gh.window(0) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ArgumentError):
            GlobalHistory(0)
