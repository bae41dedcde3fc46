"""Histogram-shift primitives against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockmark import (
    CapacityExceededError,
    HistPair,
    NoZeroPointError,
    PayloadError,
    capacity,
    embed_bits,
    extract_bits,
    find_pp_zp,
    histogram,
    shift_histogram,
    unshift_histogram,
)
from blockmark.histshift import marked_mask
from conftest import random_bits, ref_find_pp_zp, ref_shift, valid_pair_plane

EXAMPLE = np.array(
    [[1, 2, 2, 3], [2, 5, 2, 0], [2, 7, 2, 2], [9, 2, 2, 4]], dtype=np.uint8
)

plane_strategy = arrays(
    np.uint8,
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.integers(0, 200),
)


class TestHistogram:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 65535), (256, 256), (1, 65537), (7, 28087), (3, 5), (1, 131073), (363, 363)],
    )
    def test_counts_every_sample(self, rng, shape):
        # Odd and even sizes, around and across the 65,536-pair chunks it
        # counts in (131,072 samples).
        plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
        want = np.array([np.count_nonzero(plane == v) for v in range(256)])
        assert np.array_equal(histogram(plane), want)
        assert np.array_equal(histogram(plane.T), want)  # non-contiguous

    def test_rejects_wider_samples(self):
        # Viewed as uint16 pairs, int64 samples would be miscounted silently.
        with pytest.raises(ValueError, match="uint8"):
            histogram(np.zeros((2, 2), dtype=np.int64))


class TestFindPair:
    def test_example_plane(self):
        pair = find_pp_zp(EXAMPLE)
        assert (pair.pp, pair.zp) == (2, 6)
        assert pair.up

    def test_example_matches_oracle(self):
        assert (find_pp_zp(EXAMPLE).pp, find_pp_zp(EXAMPLE).zp) == ref_find_pp_zp(EXAMPLE)

    def test_constant_plane_tie_goes_up(self):
        pair = find_pp_zp(np.full((4, 4), 7, dtype=np.uint8))
        assert (pair.pp, pair.zp) == (7, 8)

    def test_full_histogram(self):
        with pytest.raises(NoZeroPointError):
            find_pp_zp(np.arange(256, dtype=np.uint8).reshape(16, 16))

    def test_peak_tie_takes_smallest(self):
        plane = np.array([[5, 5, 9, 9, 0]], dtype=np.uint8)
        assert find_pp_zp(plane).pp == 5

    @settings(max_examples=100)
    @given(plane_strategy)
    def test_matches_oracle(self, plane):
        pair = find_pp_zp(plane)
        assert (pair.pp, pair.zp) == ref_find_pp_zp(plane)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            HistPair(pp=3, zp=3)
        with pytest.raises(ValueError):
            HistPair(pp=-1, zp=3)


class TestShift:
    def test_example_shift(self):
        pair = HistPair(pp=2, zp=6)
        shifted = shift_histogram(EXAMPLE, pair)
        expected = EXAMPLE.copy()
        expected[0, 3] = 4  # 3 -> 4
        expected[1, 1] = 6  # 5 -> 6
        expected[3, 3] = 5  # 4 -> 5
        assert np.array_equal(shifted, expected)
        assert np.array_equal(shifted, ref_shift(EXAMPLE, 2, 6))

    def test_adjacent_pair_is_identity(self, rng):
        plane = valid_pair_plane(rng)
        pair = HistPair(pp=10, zp=11)
        assert np.array_equal(shift_histogram(plane, pair), plane)

    def test_down_direction(self):
        # zp = 5 must be an empty bin of the source plane.
        plane = np.array([[9, 6, 7, 8, 4, 9]], dtype=np.uint8)
        pair = HistPair(pp=9, zp=5)
        assert not pair.up
        shifted = shift_histogram(plane, pair)
        assert shifted.tolist() == [[9, 5, 6, 7, 4, 9]]
        assert np.array_equal(shifted, ref_shift(plane, 9, 5))

    def test_adjacent_bin_becomes_empty(self, rng):
        for _ in range(20):
            plane = valid_pair_plane(rng)
            pair = find_pp_zp(plane)
            inter = shift_histogram(plane, pair)
            assert histogram(inter)[pair.marked_value] == 0

    def test_per_pixel_change_at_most_one(self, rng):
        plane = valid_pair_plane(rng)
        pair = find_pp_zp(plane)
        diff = np.abs(shift_histogram(plane, pair).astype(int) - plane.astype(int))
        assert diff.max() <= 1

    @settings(max_examples=100)
    @given(plane_strategy)
    def test_matches_reference(self, plane):
        pair = find_pp_zp(plane)
        assert np.array_equal(
            shift_histogram(plane, pair), ref_shift(plane, pair.pp, pair.zp)
        )


class TestEveryPair:
    """Shift and un-shift map each value on its own, so all 256 values
    under every pair (both directions) cover them: each must give the
    bytes of the per-value mask formula."""

    def test_every_pair_matches_mask_formula(self):
        values = np.arange(256, dtype=np.uint8)
        v = values.astype(int)
        for pp in range(256):
            for zp in range(256):
                if zp == pp:
                    continue
                pair = HistPair(pp=pp, zp=zp)
                lo, hi = pair.band
                step = 1 if pair.up else -1
                between = (v > min(pp, zp)) & (v < max(pp, zp))
                assert np.array_equal(between, (v >= pair.moved[0]) & (v <= pair.moved[1]))
                in_band = (v >= lo) & (v <= hi)
                shifted = shift_histogram(values, pair)
                unshifted = unshift_histogram(values, pair)
                assert shifted.dtype == unshifted.dtype == np.uint8
                assert np.array_equal(shifted, v + step * between), (pp, zp)
                assert np.array_equal(unshifted, v - step * in_band), (pp, zp)

    def test_every_pair_matches_marked_mask_compares(self):
        # One unsigned compare that wraps around: pp 0 and 255 sit at its
        # edges.
        values = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for pp in range(256):
            for zp in range(256):
                if zp == pp:
                    continue
                pair = HistPair(pp=pp, zp=zp)
                want = (values == pair.pp) | (values == pair.marked_value)
                assert np.array_equal(marked_mask(values, pair), want), (pp, zp)


_PAIRS = {
    "up": HistPair(pp=2, zp=6),
    "down": HistPair(pp=9, zp=5),
    "adjacent up": HistPair(pp=10, zp=11),
    "adjacent down": HistPair(pp=10, zp=9),
}


class TestShiftOut:
    """`out=` writes the result into a given C-contiguous array of the
    plane's shape, the plane itself included; without it the result is a
    new C-order array and the plane is left as it was."""

    @pytest.mark.parametrize("fn", [shift_histogram, unshift_histogram])
    @pytest.mark.parametrize("pair", _PAIRS.values(), ids=_PAIRS.keys())
    def test_in_place_equals_copy(self, rng, fn, pair):
        # Three 2**18-sample slices, the last one partial.
        plane = rng.integers(0, 16, size=(5, 2**17 + 3), dtype=np.uint8)
        before = plane.copy()
        want = fn(plane, pair)
        assert np.array_equal(plane, before)
        assert want.flags.c_contiguous and want is not plane
        other = np.empty_like(plane)
        assert fn(plane, pair, out=other) is other
        assert np.array_equal(other, want)
        assert fn(plane, pair, out=plane) is plane
        assert np.array_equal(plane, want)

    @pytest.mark.parametrize("fn", [shift_histogram, unshift_histogram])
    @pytest.mark.parametrize("pair", _PAIRS.values(), ids=_PAIRS.keys())
    def test_strided_plane(self, rng, fn, pair):
        base = rng.integers(0, 16, size=(40, 60), dtype=np.uint8)
        want = fn(base, pair)
        for view, expect in [(base.T, want.T), (base[::2], want[::2])]:
            before = view.copy()
            got = fn(view, pair)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expect)
            assert np.array_equal(view, before)
            out = np.empty(view.shape, np.uint8)
            assert np.array_equal(fn(view, pair, out=out), expect)

    @pytest.mark.parametrize("fn", [shift_histogram, unshift_histogram])
    def test_out_must_be_c_contiguous_of_the_plane_shape(self, fn):
        plane = np.zeros((4, 6), np.uint8)
        for out in [
            np.zeros((6, 4), np.uint8).T,
            np.zeros((4, 12), np.uint8)[:, ::2],
            np.zeros((6, 4), np.uint8),
            np.zeros(24, np.uint8),
        ]:
            with pytest.raises(ValueError, match="C-contiguous"):
                fn(plane, HistPair(pp=2, zp=6), out=out)


class TestUnshift:
    def test_round_trip_many_planes(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            plane = valid_pair_plane(rng)
            pair = find_pp_zp(plane)
            assert np.array_equal(
                unshift_histogram(shift_histogram(plane, pair), pair), plane
            )

    def test_restores_example(self):
        pair = HistPair(pp=2, zp=6)
        assert np.array_equal(
            unshift_histogram(shift_histogram(EXAMPLE, pair), pair), EXAMPLE
        )

    def test_adjacent_pair_identity(self, rng):
        plane = valid_pair_plane(rng)
        pair = HistPair(pp=10, zp=11)
        assert np.array_equal(unshift_histogram(plane, pair), plane)

    def test_down_round_trip(self):
        plane = np.array([[9, 6, 7, 8, 4, 200]], dtype=np.uint8)
        pair = HistPair(pp=9, zp=5)
        assert np.array_equal(
            unshift_histogram(shift_histogram(plane, pair), pair), plane
        )


class TestEmbedExtract:
    def _slots(self, plane, pair):
        return np.flatnonzero(plane.ravel() == pair.pp)

    def test_embed_example(self):
        plane = np.array([[2, 0, 2, 2]], dtype=np.uint8)
        pair = HistPair(pp=2, zp=6)
        slots = self._slots(plane, pair)
        marked = embed_bits(plane, pair, slots, [1, 0, 1])
        assert marked.tolist() == [[3, 0, 2, 3]]

    def test_empty_payload(self, rng):
        plane = valid_pair_plane(rng)
        pair = find_pp_zp(plane)
        inter = shift_histogram(plane, pair)
        slots = self._slots(inter, pair)
        assert np.array_equal(embed_bits(inter.copy(), pair, slots, []), inter)

    def test_capacity_exceeded(self):
        plane = np.array([[2, 2, 2, 0]], dtype=np.uint8)
        pair = HistPair(pp=2, zp=6)
        with pytest.raises(CapacityExceededError):
            embed_bits(plane, pair, self._slots(plane, pair), [1, 0, 1, 1, 0])

    @pytest.mark.parametrize("bits", [[0.6, 1.9, 1.0], [-1], [256], [0, 2]])
    def test_non_bits_rejected(self, bits):
        plane = np.array([[2, 2, 2, 0]], dtype=np.uint8)
        pair = HistPair(pp=2, zp=6)
        with pytest.raises(ValueError, match="0 or 1"):
            embed_bits(plane, pair, self._slots(plane, pair), bits)

    def test_nested_bits_read_flat(self):
        marked = embed_bits(np.zeros(4, np.uint8), HistPair(0, 1), np.arange(4), [[1, 0], [1, 1]])
        assert marked.tolist() == [1, 0, 1, 1]

    def test_extract_inverse_replay(self):
        plane = np.array([[2, 0, 2, 2]], dtype=np.uint8)
        pair = HistPair(pp=2, zp=6)
        slots = self._slots(plane, pair)
        marked = embed_bits(plane.copy(), pair, slots, [1, 0, 1])
        assert marked.tolist() == [[3, 0, 2, 3]]
        bits, restored = extract_bits(marked.copy(), pair, slots)
        assert bits.tolist() == [1, 0, 1]
        assert np.array_equal(restored, plane)

    def test_writes_in_place(self):
        # Both calls write into the array they are given and return it.
        plane = np.array([[2, 0, 2, 2]], dtype=np.uint8)
        pair = HistPair(pp=2, zp=6)
        slots = self._slots(plane, pair)
        work = plane.copy()
        assert embed_bits(work, pair, slots, [1, 0, 1]) is work
        assert work.tolist() == [[3, 0, 2, 3]]
        bits, restored = extract_bits(work, pair, slots)
        assert restored is work
        assert bits.tolist() == [1, 0, 1]
        assert np.array_equal(work, plane)

    def test_strided_plane_written_in_place(self):
        # A non-contiguous plane is written through, not through a copy.
        base = np.zeros((2, 8), dtype=np.uint8)
        view = base[:, ::2]
        view[:] = [[2, 0, 2, 2], [2, 2, 0, 0]]
        pair = HistPair(pp=2, zp=6)
        slots = self._slots(view, pair)
        assert embed_bits(view, pair, slots, [1, 1, 0, 1, 1]) is view
        assert base[:, ::2].tolist() == [[3, 0, 3, 2], [3, 3, 0, 0]]
        assert not base[:, 1::2].any()
        bits, _ = extract_bits(view, pair, slots)
        assert bits.tolist() == [1, 1, 0, 1, 1]
        assert base[:, ::2].tolist() == [[2, 0, 2, 2], [2, 2, 0, 0]]

    @pytest.mark.parametrize(
        "slots, bits, error",
        [
            ([0, 2, 3], [1, 0, 1, 1], CapacityExceededError),
            ([0, 2, 3], [1, 2, 1], ValueError),
            ([0, 1, 2], [1, 1, 1], ValueError),
            ([0, 2, 3], [[1, 0], [1]], PayloadError),
        ],
    )
    def test_rejected_embed_writes_nothing(self, slots, bits, error):
        plane = np.array([[2, 0, 2, 2]], dtype=np.uint8)
        work = plane.copy()
        with pytest.raises(error):
            embed_bits(work, HistPair(pp=2, zp=6), np.array(slots), bits)
        assert np.array_equal(work, plane)

    def test_no_marked_pixels(self, rng):
        plane = valid_pair_plane(rng)
        pair = find_pp_zp(plane)
        bits, restored = extract_bits(plane.copy(), pair, np.empty(0, dtype=np.intp))
        assert bits.size == 0
        assert np.array_equal(restored, plane)

    def test_all_ones_full_capacity(self, rng):
        for _ in range(25):
            plane = valid_pair_plane(rng)
            pair = find_pp_zp(plane)
            inter = shift_histogram(plane, pair)
            slots = self._slots(inter, pair)
            marked = embed_bits(inter.copy(), pair, slots, np.ones(slots.size, np.uint8))
            bits, restored = extract_bits(marked.copy(), pair, slots)
            assert bits.all() and bits.size == slots.size
            assert np.array_equal(restored, inter)

    def test_down_direction_marks(self):
        plane = np.array([[9, 9, 4]], dtype=np.uint8)
        pair = HistPair(pp=9, zp=5)
        marked = embed_bits(plane, pair, np.array([0, 1]), [1, 1])
        assert marked.tolist() == [[8, 8, 4]]

    def test_slots_must_hold_pp(self):
        plane = np.array([[3, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="pp-valued"):
            embed_bits(plane, HistPair(pp=2, zp=6), np.array([0]), [1])

    @settings(max_examples=60)
    @given(plane_strategy, st.data())
    def test_round_trip_any_payload(self, plane, data):
        pair = find_pp_zp(plane)
        inter = shift_histogram(plane, pair)
        slots = np.flatnonzero(inter.ravel() == pair.pp)
        n = data.draw(st.integers(0, int(slots.size)))
        bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            dtype=np.uint8,
        )
        marked = embed_bits(inter.copy(), pair, slots, bits)
        got, restored = extract_bits(marked.copy(), pair, slots[:n])
        assert np.array_equal(got, bits)
        assert np.array_equal(restored, inter)

    def test_mask_positions_invariant_under_embedding(self, rng):
        plane = valid_pair_plane(rng)
        pair = find_pp_zp(plane)
        inter = shift_histogram(plane, pair)
        slots = self._slots(inter, pair)
        marked = embed_bits(inter.copy(), pair, slots, random_bits(rng, slots.size))
        assert np.array_equal(marked_mask(inter, pair), marked_mask(marked, pair))


class TestCapacity:
    def test_example(self):
        assert capacity(EXAMPLE, find_pp_zp(EXAMPLE)) == 9

    def test_constant_plane(self):
        plane = np.full((5, 7), 7, dtype=np.uint8)
        assert capacity(plane, find_pp_zp(plane)) == 35

    def test_same_on_intermediate(self, rng):
        plane = valid_pair_plane(rng)
        pair = find_pp_zp(plane)
        assert capacity(plane, pair) == capacity(shift_histogram(plane, pair), pair)
