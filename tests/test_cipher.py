"""Keyed stream, permutation fairness, and block-permutation encryption."""

import hashlib
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from blockmark import (
    GeometryError,
    KeyedBitStream,
    KeyFormatError,
    KeySet,
    apply_orientation,
    block_stack,
    generate_keys,
    histogram,
    invert_orientation,
    load_key_file,
    plane_key,
    rotate_flip_blocks,
    save_key_file,
    scramble_blocks,
    split_blocks,
    stack_to_plane,
    unrotate_blocks,
    unscramble_blocks,
)
from blockmark.cipher import (
    TAG_ORIENT,
    _compose_swaps,
    _swap_targets,
    draw_orientations,
    draw_permutation,
    move_blocks,
    orient_blocks,
)
from conftest import block_slice, ref_orientation

KEY = bytes(range(16))


class TestKeyedStream:
    def test_deterministic(self):
        a = KeyedBitStream(KEY, b"scramble").next_bytes(64)
        b = KeyedBitStream(KEY, b"scramble").next_bytes(64)
        assert a == b

    def test_frozen_vectors(self):
        # Pinned outputs of blake2b(tag + counter_be64, key=key).
        s = KeyedBitStream(bytes.fromhex("000102030405060708090a0b0c0d0e0f"), b"scramble")
        assert s.next_bytes(16).hex() == "853a3e0ac10b647ce4c4f6ce4867a505"
        s = KeyedBitStream(bytes(16), b"orient")
        assert s.next_bytes(16).hex() == "5d02fe54cc27a130f9e5626c335975a5"

    def test_tags_give_independent_streams(self):
        a = KeyedBitStream(KEY, b"scr").next_bytes(64)
        b = KeyedBitStream(KEY, b"rot").next_bytes(64)
        assert a != b

    def test_keys_give_independent_streams(self):
        a = KeyedBitStream(bytes(16), b"t").next_bytes(64)
        b = KeyedBitStream(bytes(15) + b"\x01", b"t").next_bytes(64)
        assert a != b

    def test_bytes_uniform_chi_square(self):
        data = np.frombuffer(
            KeyedBitStream(KEY, b"uniformity").next_bytes(1_000_000), dtype=np.uint8
        )
        counts = np.bincount(data, minlength=256)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_take_bits_msb_first(self):
        s = KeyedBitStream(KEY, b"bits")
        first = KeyedBitStream(KEY, b"bits").next_bytes(2)
        value = s.take_bits(16)
        assert value == int.from_bytes(first, "big")

    def test_randbelow_range_and_determinism(self):
        s1 = KeyedBitStream(KEY, b"rb")
        s2 = KeyedBitStream(KEY, b"rb")
        draws1 = [_randbelow(s1, 37) for _ in range(500)]
        draws2 = [_randbelow(s2, 37) for _ in range(500)]
        assert draws1 == draws2
        assert all(0 <= d < 37 for d in draws1)
        assert len(set(draws1)) == 37  # saturates the range over 500 draws

    def test_shuffle_is_permutation(self):
        shuffled = draw_permutation(40, KEY, b"shuffle")
        assert shuffled.dtype == np.intp
        assert sorted(shuffled.tolist()) == list(range(40))
        assert shuffled.tolist() != list(range(40))

    def test_shuffle_unbiased_chi_square(self):
        # Every permutation of 4 items should appear ~1/24 of the time. The
        # tag is fixed, so the p-value is one deterministic sample from the
        # null distribution.
        counts = {p: 0 for p in permutations(range(4))}
        for trial in range(100_000):
            drawn = draw_permutation(4, KEY, b"fairness" + trial.to_bytes(4, "big"))
            counts[tuple(drawn.tolist())] += 1
        assert stats.chisquare(list(counts.values())).pvalue > 0.01

    def test_key_length_limits(self):
        with pytest.raises(KeyFormatError):
            KeyedBitStream(b"", b"t")
        with pytest.raises(KeyFormatError):
            KeyedBitStream(bytes(65), b"t")


def _randbelow(stream, n):
    """Uniform draw from [0, n) by rejection sampling (no modulo bias)."""
    if n == 1:
        return 0
    k = (n - 1).bit_length()
    while True:
        v = stream.take_bits(k)
        if v < n:
            return v


def _reference_shuffle(stream, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = _randbelow(stream, i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def _reference_permutation(n, key, tag):
    seq = list(range(n))
    _reference_shuffle(KeyedBitStream(key, tag), seq)
    return seq


class TestBulkDraws:
    """`bits` and the permutation draw take exactly what single-bit and
    `randbelow` draws would, and leave the stream in the same state."""

    @pytest.mark.parametrize(
        "prefix, n",
        [
            (0, 0), (0, 1), (0, 100), (0, 512), (0, 513), (0, 1500),
            (5, 0), (5, 3), (5, 507), (5, 508), (5, 1100), (511, 2),
        ],
    )
    def test_bits_equal_single_bit_draws(self, prefix, n):
        fast = KeyedBitStream(KEY, b"bits")
        slow = KeyedBitStream(KEY, b"bits")
        fast.take_bits(prefix)
        slow.take_bits(prefix)
        got = fast.bits(n)
        assert got.dtype == np.uint8
        assert got.tolist() == [slow.take_bits(1) for _ in range(n)]
        assert fast.take_bits(64) == slow.take_bits(64)

    def test_successive_bits_calls_straddle_digests(self):
        fast = KeyedBitStream(KEY, b"bits")
        slow = KeyedBitStream(KEY, b"bits")
        for n in (300, 300, 700, 1, 511):
            assert fast.bits(n).tolist() == [slow.take_bits(1) for _ in range(n)]

    def test_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            KeyedBitStream(KEY, b"bits").bits(-1)

    def test_bits_reproduce_pinned_vectors(self):
        s = KeyedBitStream(bytes.fromhex("000102030405060708090a0b0c0d0e0f"), b"scramble")
        assert np.packbits(s.bits(128)).tobytes().hex() == "853a3e0ac10b647ce4c4f6ce4867a505"
        s = KeyedBitStream(bytes(16), b"orient")
        assert np.packbits(s.bits(128)).tobytes().hex() == "5d02fe54cc27a130f9e5626c335975a5"

    @pytest.mark.parametrize("prefix", [0, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 1000])
    def test_shuffle_equals_randbelow_reference(self, n, prefix):
        # After `prefix` bits the runs start off digest boundaries; the
        # stream must end where the single draws leave it.
        fast = KeyedBitStream(KEY, b"fy")
        slow = KeyedBitStream(KEY, b"fy")
        fast.take_bits(prefix)
        slow.take_bits(prefix)
        want = list(range(n))
        _reference_shuffle(slow, want)
        assert _compose_swaps(_swap_targets(fast, n)).tolist() == want
        assert fast.take_bits(64) == slow.take_bits(64)
        if prefix == 0:
            assert draw_permutation(n, KEY, b"fy").tolist() == want

    @pytest.mark.parametrize(
        "n", sorted({2**k + d for k in (1, 2, 9, 16) for d in (-1, 0, 1)})
    )
    def test_permutation_at_run_edges(self, n):
        # n = 2^k + 1 puts a one-step run of width k + 1 on top, where half
        # the candidates are rejected.
        assert draw_permutation(n, KEY, b"edges").tolist() == _reference_permutation(
            n, KEY, b"edges"
        )

    def test_permutation_reads_more_when_a_run_runs_short(self):
        # This draw needs more candidates for its top run (96 steps of width
        # 9) than the first read of the expected count and margin gives.
        assert draw_permutation(352, KEY, b"refill").tolist() == _reference_permutation(
            352, KEY, b"refill"
        )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 5_000),
        key=st.binary(min_size=1, max_size=64),
        tag=st.binary(max_size=8),
    )
    def test_permutation_equals_reference_for_any_key(self, n, key, tag):
        assert draw_permutation(n, key, tag).tolist() == _reference_permutation(n, key, tag)

    def test_permutation_pinned_digest(self):
        # SHA-256 of the little-endian int64 draw, pinned from the
        # per-item Fisher-Yates loop this draw replaced.
        drawn = draw_permutation(65_537, KEY, b"scramble").astype("<i8")
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == (
            "c606ba147f4ed90132689b8774d7ba0e184d74247f4927ded3a17d26d0d5afdc"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 300),
        spread=st.sampled_from([1, 2, 3, 300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compose_swaps_equals_swap_loop(self, n, spread, seed):
        # Any targets j[i] <= i; a small spread makes long chains of equal
        # and of consecutive targets.
        i = np.arange(n)
        back = np.random.default_rng(seed).integers(0, spread, n) % (i + 1)
        j = (i - back).tolist()
        want = list(range(n))
        for step in range(n - 1, 0, -1):
            want[step], want[j[step]] = want[j[step]], want[step]
        got = _compose_swaps(np.array(j, dtype=np.int32))
        assert got.dtype == np.intp
        assert got.tolist() == want

    @pytest.mark.parametrize("n", [200, 70_000])
    def test_compose_swaps_long_chains(self, n):
        # Every step targets 0, or the step just below: one group of n - 1
        # steps, or one f chain through every position. The last pattern
        # alternates targets 0 and 65,536, equal in their low 16 bits.
        i = np.arange(n, dtype=np.int32)
        alternating = np.where((i > 65_536) & (i % 2 == 1), 65_536, 0)
        for j in (np.zeros_like(i), np.maximum(i - 1, 0), alternating):
            want = list(range(n))
            for step in range(n - 1, 0, -1):
                want[step], want[j[step]] = want[j[step]], want[step]
            assert _compose_swaps(j).tolist() == want


class TestDrawCounts:
    """Draw and bit counts are integers; numpy integers are accepted."""

    def test_numpy_counts_accepted(self):
        s = KeyedBitStream(KEY, b"bits")
        ref = KeyedBitStream(KEY, b"bits")
        assert s.bits(np.int64(5)).tolist() == [ref.take_bits(1) for _ in range(5)]
        assert s.take_bits(600) == ref.take_bits(600)
        for draw in (draw_orientations, draw_permutation):
            assert np.array_equal(draw(np.int64(5), KEY, b"t"), draw(5, KEY, b"t"))

    @pytest.mark.parametrize("draw", [draw_orientations, draw_permutation])
    def test_negative_count_rejected(self, draw):
        with pytest.raises(ValueError, match="non-negative"):
            draw(-3, KEY, b"t")

    @pytest.mark.parametrize("draw", [draw_orientations, draw_permutation])
    def test_non_integer_count_rejected(self, draw):
        with pytest.raises(TypeError):
            draw(5.0, KEY, b"t")

    def test_permutation_count_fits_int32(self):
        # The draws and the swap links are held as int32.
        with pytest.raises(ValueError, match="2\\*\\*31"):
            draw_permutation(2**31, KEY, b"t")


class TestKeySet:
    def test_wrong_length_rejected(self):
        with pytest.raises(KeyFormatError):
            KeySet(k_scramble=bytes(8), k_orient=bytes(16))

    def test_plane_key_appends_tag_byte(self):
        assert plane_key(KEY, 2) == KEY + b"\x02"
        assert plane_key(KEY, None) == KEY

    def test_generate_seeded_is_reproducible(self):
        a = generate_keys(two_domain=True, seed=5)
        b = generate_keys(two_domain=True, seed=5)
        assert a == b
        assert generate_keys(seed=6) != generate_keys(seed=5)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 10**20])
    def test_seed_outside_int64_rejected(self, seed):
        with pytest.raises(KeyFormatError, match="64-bit"):
            generate_keys(seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
    def test_seed_at_int64_bounds_accepted(self, seed):
        assert generate_keys(seed=seed) == generate_keys(seed=seed)

    def test_generate_unseeded_is_random(self):
        assert generate_keys() != generate_keys()

    def test_key_file_round_trip(self, tmp_path):
        keys = generate_keys(two_domain=True, seed=1)
        path = tmp_path / "keys.txt"
        save_key_file(keys, path)
        assert load_key_file(path) == keys
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(len(line) == 32 for line in lines)

    def test_key_file_without_region(self, tmp_path):
        keys = generate_keys(seed=1)
        path = tmp_path / "keys.txt"
        save_key_file(keys, path)
        assert load_key_file(path).k_region is None

    @pytest.mark.parametrize(
        "content", ["deadbeef\n" * 2, "xx" * 16 + "\n" + "ab" * 16, "ab" * 16]
    )
    def test_malformed_key_file(self, tmp_path, content):
        path = tmp_path / "keys.txt"
        path.write_text(content)
        with pytest.raises(KeyFormatError):
            load_key_file(path)

    @settings(max_examples=200)
    @given(
        st.one_of(
            st.binary(),
            st.lists(
                st.sampled_from([b"ab" * 16, b"\n", b"\r", b" ", b"\xff", b"\xc3\xa9", b"0"]),
                max_size=8,
            ).map(b"".join),
        )
    )
    @example(b"\xff\xfe\x00garbage\n")
    def test_arbitrary_key_file_bytes(self, data):
        # Whatever the file holds, a malformed key file raises KeyFormatError.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "keys.txt"
            path.write_bytes(data)
            try:
                load_key_file(path)
            except KeyFormatError:
                pass


def random_plane(rng, h=16, w=16):
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


class TestScramble:
    def test_empty_eligible_is_identity(self, rng):
        plane = random_plane(rng)
        grid = split_blocks(plane, 4)
        assert np.array_equal(scramble_blocks(plane, grid, [], KEY), plane)

    def test_ineligible_blocks_fixed(self, rng):
        plane = random_plane(rng, 8, 8)
        grid = split_blocks(plane, 4)
        out = scramble_blocks(plane, grid, [0, 3], KEY)
        assert np.array_equal(out[0:4, 4:8], plane[0:4, 4:8])  # block 1
        assert np.array_equal(out[4:8, 0:4], plane[4:8, 0:4])  # block 2

    def test_histogram_invariant(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        out = scramble_blocks(plane, grid, range(16), KEY)
        assert np.array_equal(histogram(out), histogram(plane))

    def test_round_trip_500_trials(self):
        rng = np.random.default_rng(99)
        grid = None
        for trial in range(500):
            plane = random_plane(rng)
            grid = grid or split_blocks(plane, 4)
            key = rng.bytes(16)
            eligible = rng.choice(16, size=rng.integers(0, 17), replace=False)
            enc = scramble_blocks(plane, grid, eligible, key)
            assert np.array_equal(unscramble_blocks(enc, grid, eligible, key), plane)

    def test_actually_scrambles(self, rng):
        plane = random_plane(rng, 64, 64)
        grid = split_blocks(plane, 8)
        assert not np.array_equal(scramble_blocks(plane, grid, range(64), KEY), plane)


class TestBlockMoves:
    @pytest.mark.parametrize("block", [1, 3, 4, 32])
    def test_move_matches_per_block_reference(self, rng, block):
        plane = random_plane(rng, 2 * block, 5 * block)
        grid = split_blocks(plane, block)
        dst = rng.choice(grid.n_blocks, size=6, replace=False)
        src = rng.permutation(dst)
        want = plane.copy()
        for s, d in zip(src, dst):
            want[block_slice(grid, d)] = plane[block_slice(grid, s)]
        stack = block_stack(plane, grid)
        assert move_blocks(stack, src, dst) is None  # in place
        assert np.array_equal(stack_to_plane(stack, grid), want)

    def test_lists_accepted(self, rng):
        plane = random_plane(rng, 8, 8)
        stack = block_stack(plane, split_blocks(plane, 4))
        blocks, ids = [0, 1, 2, 3], [1, 2, 3, 4]
        turned, listed = stack.copy(), stack.copy()
        orient_blocks(turned, np.array(blocks), np.array(ids))
        assert not np.array_equal(turned, stack)
        orient_blocks(listed, blocks, ids)
        assert np.array_equal(listed, turned)
        moved, listed = stack.copy(), stack.copy()
        move_blocks(moved, np.array([3, 0]), np.array([0, 3]))
        move_blocks(listed, [3, 0], [0, 3])
        assert np.array_equal(listed, moved)

    @pytest.mark.parametrize("block", [1, 3, 4, 8])
    def test_non_contiguous_plane(self, rng, block):
        rgb = rng.integers(0, 256, size=(3 * block, 4 * block, 3), dtype=np.uint8)
        grid = split_blocks(rgb[:, :, 0], block)
        every = np.ones(grid.n_blocks, dtype=bool)
        for plane in (rgb[:, :, 1], rgb[::-1, :, 2]):
            dense = plane.copy()
            for op in (scramble_blocks, unscramble_blocks, rotate_flip_blocks, unrotate_blocks):
                got = op(plane, grid, every, KEY)
                assert np.array_equal(got, op(dense, grid, every, KEY))
            assert np.array_equal(plane, dense)  # the input is left alone


@pytest.mark.parametrize(
    "op", [scramble_blocks, unscramble_blocks, rotate_flip_blocks, unrotate_blocks]
)
@pytest.mark.parametrize("past_end", [False, True])
def test_block_indices_range_checked(rng, op, past_end):
    # -1 would silently wrap to the last block and take its draw out of
    # ascending order; n_blocks would reach past the grid.
    plane = random_plane(rng, 8, 8)
    grid = split_blocks(plane, 4)
    indices = [0, grid.n_blocks] if past_end else [-1, 0]
    with pytest.raises(GeometryError, match="block indices"):
        op(plane, grid, indices, KEY)


class TestRotateFlip:
    def test_half_turn_reverses_block(self, rng):
        block = random_plane(rng, 4, 4)
        assert np.array_equal(
            apply_orientation(block, 2).ravel(), block.ravel()[::-1]
        )

    def test_ineligible_blocks_fixed(self, rng):
        plane = random_plane(rng, 8, 8)
        grid = split_blocks(plane, 4)
        out = rotate_flip_blocks(plane, grid, [1], KEY)
        assert np.array_equal(out[0:4, 0:4], plane[0:4, 0:4])

    def test_histogram_invariant(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        out = rotate_flip_blocks(plane, grid, range(16), KEY)
        assert np.array_equal(histogram(out), histogram(plane))

    def test_per_block_multiset_preserved(self, rng):
        plane = random_plane(rng, 16, 16)
        grid = split_blocks(plane, 8)
        out = rotate_flip_blocks(plane, grid, range(4), KEY)
        for a in range(4):
            rs, cs = block_slice(grid, a)
            assert sorted(out[rs, cs].ravel()) == sorted(plane[rs, cs].ravel())

    def test_round_trip_500_trials(self):
        rng = np.random.default_rng(77)
        for trial in range(500):
            plane = random_plane(rng)
            grid = split_blocks(plane, 4)
            key = rng.bytes(16)
            eligible = rng.choice(16, size=rng.integers(0, 17), replace=False)
            enc = rotate_flip_blocks(plane, grid, eligible, key)
            assert np.array_equal(unrotate_blocks(enc, grid, eligible, key), plane)

    def test_draws_cover_all_orientations(self, rng):
        # With 256 eligible blocks all 8 symmetries should be drawn.
        plane = np.tile(np.arange(16, dtype=np.uint8).reshape(4, 4), (16, 16))
        grid = split_blocks(plane, 4)
        out = rotate_flip_blocks(plane, grid, range(256), KEY)
        blocks = {out[block_slice(grid, a)].tobytes() for a in range(256)}
        assert len(blocks) == 8


def _reference_transform(plane, grid, eligible, key, inverse):
    """Per-block loop: 3 stream bits per eligible block, ascending index,
    each block transformed by the pure-Python reference."""
    out = plane.copy()
    stream = KeyedBitStream(key, TAG_ORIENT)
    for a in sorted(eligible):
        o = stream.take_bits(3)
        if inverse:
            o = invert_orientation(o)
        rs, cs = block_slice(grid, a)
        out[rs, cs] = ref_orientation(plane[rs, cs].tolist(), o)
    return out


class TestRotateFlipOracle:
    @pytest.mark.parametrize("block", [2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("which", ["empty", "all", "random"])
    def test_matches_per_block_reference(self, rng, block, which):
        plane = random_plane(rng, *{3: (33, 48), 32: (96, 128)}.get(block, (32, 48)))
        grid = split_blocks(plane, block)
        mask = {
            "empty": np.zeros(grid.n_blocks, dtype=bool),
            "all": np.ones(grid.n_blocks, dtype=bool),
            "random": rng.random(grid.n_blocks) < 0.5,
        }[which]
        eligible = np.flatnonzero(mask).tolist()
        for fn, inverse in ((rotate_flip_blocks, False), (unrotate_blocks, True)):
            want = _reference_transform(plane, grid, eligible, KEY, inverse)
            assert np.array_equal(fn(plane, grid, mask, KEY), want)
            assert np.array_equal(fn(plane, grid, eligible, KEY), want)

    def test_input_plane_untouched(self, rng):
        plane = random_plane(rng, 16, 16)
        before = plane.copy()
        grid = split_blocks(plane, 4)
        rotate_flip_blocks(plane, grid, np.ones(16, dtype=bool), KEY)
        scramble_blocks(plane, grid, np.ones(16, dtype=bool), KEY)
        assert np.array_equal(plane, before)

    def test_mask_length_must_match_grid(self, rng):
        plane = random_plane(rng, 16, 16)
        grid = split_blocks(plane, 4)
        with pytest.raises(GeometryError):
            rotate_flip_blocks(plane, grid, np.ones(15, dtype=bool), KEY)


class TestComposition:
    def test_inverse_order(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        k1, k2 = rng.bytes(16), rng.bytes(16)
        enc = rotate_flip_blocks(plane, grid, range(16), k2)
        enc = scramble_blocks(enc, grid, range(16), k1)
        dec = unscramble_blocks(enc, grid, range(16), k1)
        dec = unrotate_blocks(dec, grid, range(16), k2)
        assert np.array_equal(dec, plane)

    def test_wrong_key_fails(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        enc = scramble_blocks(plane, grid, range(16), KEY)
        wrong = unscramble_blocks(enc, grid, range(16), bytes(16))
        assert not np.array_equal(wrong, plane)

    def test_keyed_determinism(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        a = scramble_blocks(plane, grid, range(16), KEY)
        b = scramble_blocks(plane, grid, range(16), KEY)
        assert np.array_equal(a, b)
