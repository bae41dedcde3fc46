"""Keyed stream, permutation fairness, and block-permutation encryption.

The encryption tests call what the pipeline calls: the draws
(`draw_permutation`, `draw_orientations`) and the in-place applies on a
block stack (`move_blocks`, `orient_blocks`)."""

import hashlib
import tempfile
from itertools import islice, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from blockmark import (
    KeyFormatError,
    KeySet,
    block_stack,
    generate_keys,
    histogram,
    load_key_file,
    save_key_file,
    split_blocks,
)
from blockmark.cipher import (
    INVERSE_ORIENTATION,
    TAG_ORIENT,
    TAG_SCRAMBLE,
    _compose_swaps,
    _swap_targets,
    draw_orientations,
    draw_permutation,
    keyed_stream,
    move_blocks,
    orient_blocks,
    plane_key,
    stream_bits,
)
from blockmark.image_io import BlockGrid, stack_to_plane
from blockmark.ordering import apply_orientation
from blockmark.pipeline import region_labels
from conftest import block_slice, ref_orientation, ref_unorientation

KEY = bytes(range(16))


class BitReader:
    """Reads k bits at a time, most-significant first, from a digest
    stream: the bit-by-bit reference for the bulk draws."""

    def __init__(self, digests):
        self._digests = digests
        self._value = 0
        self._count = 0

    def take(self, k):
        while self._count < k:
            self._value = (self._value << 512) | int.from_bytes(next(self._digests), "big")
            self._count += 512
        self._count -= k
        value = self._value >> self._count
        self._value &= (1 << self._count) - 1
        return value


def stream_bytes(key, tag, n):
    """The first n bytes of the (key, tag) stream."""
    return b"".join(islice(keyed_stream(key, tag), -(-n // 64)))[:n]


class TestKeyedStream:
    def test_deterministic(self):
        a = list(islice(keyed_stream(KEY, b"scramble"), 3))
        b = list(islice(keyed_stream(KEY, b"scramble"), 3))
        assert a == b
        assert all(len(digest) == 64 for digest in a)

    def test_frozen_vectors(self):
        # Pinned outputs of blake2b(tag + counter_be64, key=key).
        s = keyed_stream(bytes.fromhex("000102030405060708090a0b0c0d0e0f"), b"scramble")
        assert next(s)[:16].hex() == "853a3e0ac10b647ce4c4f6ce4867a505"
        s = keyed_stream(bytes(16), b"orient")
        assert next(s)[:16].hex() == "5d02fe54cc27a130f9e5626c335975a5"

    def test_tags_give_independent_streams(self):
        assert stream_bytes(KEY, b"scr", 64) != stream_bytes(KEY, b"rot", 64)

    def test_keys_give_independent_streams(self):
        assert stream_bytes(bytes(16), b"t", 64) != stream_bytes(bytes(15) + b"\x01", b"t", 64)

    def test_bytes_uniform_chi_square(self):
        data = np.frombuffer(stream_bytes(KEY, b"uniformity", 1_000_000), dtype=np.uint8)
        counts = np.bincount(data, minlength=256)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_randbelow_range_and_determinism(self):
        s1 = BitReader(keyed_stream(KEY, b"rb"))
        s2 = BitReader(keyed_stream(KEY, b"rb"))
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
        # A bad key raises at the call, before any digest is read: from the
        # stream the key generator reads, and from draws of no items.
        for key in (b"", bytes(65)):
            for call in (
                lambda: keyed_stream(key, b"keygen"),
                lambda: stream_bits(key, b"t", 0),
                lambda: draw_permutation(0, key, b"t"),
                lambda: draw_orientations(0, key, b"t"),
            ):
                with pytest.raises(KeyFormatError):
                    call()
        assert len(next(keyed_stream(bytes(64), b"t"))) == 64


def _randbelow(stream, n):
    """Uniform draw from [0, n) by rejection sampling (no modulo bias)."""
    if n == 1:
        return 0
    k = (n - 1).bit_length()
    while True:
        v = stream.take(k)
        if v < n:
            return v


def _reference_shuffle(stream, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = _randbelow(stream, i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def _reference_permutation(n, key, tag):
    seq = list(range(n))
    _reference_shuffle(BitReader(keyed_stream(key, tag)), seq)
    return seq


class TestBulkDraws:
    """`stream_bits` and the permutation draw take exactly what single-bit
    and `randbelow` draws would."""

    @pytest.mark.parametrize(
        "prefix, n",
        [
            (0, 0), (0, 1), (0, 100), (0, 512), (0, 513), (0, 1500),
            (5, 0), (5, 3), (5, 507), (5, 508), (5, 1100), (511, 2),
        ],
    )
    def test_bits_equal_single_bit_draws(self, prefix, n):
        # Bits prefix .. prefix + n of one read; some windows end on or
        # just past a digest boundary.
        got = stream_bits(KEY, b"bits", prefix + n)
        assert got.dtype == np.uint8
        slow = BitReader(keyed_stream(KEY, b"bits"))
        slow.take(prefix)
        assert got[prefix:].tolist() == [slow.take(1) for _ in range(n)]

    def test_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            stream_bits(KEY, b"bits", -1)

    def test_bits_reproduce_pinned_vectors(self):
        bits = stream_bits(bytes.fromhex("000102030405060708090a0b0c0d0e0f"), b"scramble", 128)
        assert np.packbits(bits).tobytes().hex() == "853a3e0ac10b647ce4c4f6ce4867a505"
        bits = stream_bits(bytes(16), b"orient", 128)
        assert np.packbits(bits).tobytes().hex() == "5d02fe54cc27a130f9e5626c335975a5"

    @pytest.mark.parametrize("prefix", [0, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 1000])
    def test_shuffle_equals_randbelow_reference(self, n, prefix):
        # `_swap_targets` reads whatever digest iterator it is given from
        # its first bit: here the stream from digest `prefix` on.
        want = list(range(n))
        _reference_shuffle(BitReader(islice(keyed_stream(KEY, b"fy"), prefix, None)), want)
        fast = islice(keyed_stream(KEY, b"fy"), prefix, None)
        assert _compose_swaps(_swap_targets(fast, n)).tolist() == want
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

    def test_orientations_pinned_digest(self):
        # SHA-256 of the uint8 draw, pinned from the buffered bit stream
        # that `stream_bits` replaced.
        drawn = draw_orientations(65_537, KEY, TAG_ORIENT)
        assert drawn.dtype == np.uint8
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == (
            "fd1c4511315f2ee312b640ebd8a89ba8a2ab610c3cff46239d537b600c648d62"
        )

    def test_region_labels_pinned_digest(self):
        # SHA-256 of the packed labels, pinned like the orientations.
        labels = region_labels(KEY, BlockGrid(4, 256, 256))
        assert hashlib.sha256(np.packbits(labels).tobytes()).hexdigest() == (
            "64a34a66a2638b5ef5a1d86c4dd046233c6103090bfb30cb286d1f736d9b983a"
        )

    def test_permutation_pinned_digest(self):
        # SHA-256 of the little-endian int64 draw, pinned from the
        # per-item Fisher-Yates loop this draw replaced.
        drawn = draw_permutation(65_537, KEY, b"scramble").astype("<i8")
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == (
            "c606ba147f4ed90132689b8774d7ba0e184d74247f4927ded3a17d26d0d5afdc"
        )

    def test_quarter_million_permutation_pinned_digest(self):
        # The scramble draw of 2048x2048 gray at block 4 (253,837 eligible
        # blocks, bit widths up to 18), pinned like the draw above.
        drawn = draw_permutation(253_837, KEY, b"scramble").astype("<i8")
        assert hashlib.sha256(drawn.tobytes()).hexdigest() == (
            "809855b4e18ab3d228c1e1ad477cebc610f9d48760086b24d075ca106e685a03"
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
        assert np.array_equal(stream_bits(KEY, b"bits", np.int64(5)), stream_bits(KEY, b"bits", 5))
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
    """Scrambling moves block ``e[perm[k]]`` to ``e[k]`` for the ascending
    eligible blocks ``e``; unscrambling moves them back."""

    def test_empty_eligible_is_identity(self, rng):
        plane = random_plane(rng)
        stack = block_stack(plane, split_blocks(plane, 4))
        e = np.arange(0)
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert np.array_equal(stack, block_stack(plane, split_blocks(plane, 4)))

    def test_ineligible_blocks_fixed(self, rng):
        plane = random_plane(rng, 8, 8)
        stack = block_stack(plane, split_blocks(plane, 4))
        before = stack.copy()
        e = np.array([0, 3])
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert np.array_equal(stack[[1, 2]], before[[1, 2]])

    def test_histogram_invariant(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        stack = block_stack(plane, grid)
        e = np.arange(grid.n_blocks)
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert np.array_equal(histogram(stack_to_plane(stack, grid)), histogram(plane))

    def test_round_trip_500_trials(self):
        rng = np.random.default_rng(99)
        for trial in range(500):
            plane = random_plane(rng)
            stack = block_stack(plane, split_blocks(plane, 4))
            before = stack.copy()
            key = rng.bytes(16)
            e = np.sort(rng.choice(16, size=rng.integers(0, 17), replace=False))
            src = e[draw_permutation(e.size, key, TAG_SCRAMBLE)]
            move_blocks(stack, src, e)
            move_blocks(stack, e, src)
            assert np.array_equal(stack, before)

    def test_actually_scrambles(self, rng):
        plane = random_plane(rng, 64, 64)
        stack = block_stack(plane, split_blocks(plane, 8))
        before = stack.copy()
        e = np.arange(64)
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert not np.array_equal(stack, before)


def _with_index_types(blocks):
    """(block, index dtype) cases for the applies: `intp` under the bare
    block id, and `int32`, which the pipeline passes, under "<block>-int32"."""
    return [
        pytest.param(block, index, id=f"{block}{suffix}")
        for index, suffix in ((np.intp, ""), (np.int32, "-int32"))
        for block in blocks
    ]


class TestBlockMoves:
    @pytest.mark.parametrize("block, index", _with_index_types([1, 3, 4, 8, 16, 32]))
    def test_move_matches_per_block_reference(self, rng, block, index):
        plane = random_plane(rng, 2 * block, 5 * block)
        grid = split_blocks(plane, block)
        dst = rng.choice(grid.n_blocks, size=6, replace=False).astype(index)
        src = rng.permutation(dst)
        want = plane.copy()
        for s, d in zip(src, dst):
            want[block_slice(grid, d)] = plane[block_slice(grid, s)]
        stack = block_stack(plane, grid)
        assert move_blocks(stack, src, dst) is None  # in place
        assert np.array_equal(stack_to_plane(stack, grid), want)

    def test_strided_stack_refused(self, rng):
        # The applies work in place on whole-block items, which a strided
        # stack does not have; a silent copy would drop the writes.
        plane = random_plane(rng, 8, 16)
        stack = block_stack(plane, split_blocks(plane, 4))[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            move_blocks(stack, [0], [1])
        with pytest.raises(ValueError, match="C-contiguous"):
            orient_blocks(stack, [0], [1])

    @pytest.mark.parametrize("bad", [8, -1, 257])
    def test_orientation_id_out_of_range_refused(self, rng, bad):
        # Refused before any block moves, not skipped.
        plane = random_plane(rng, 8, 8)
        stack = block_stack(plane, split_blocks(plane, 4))
        before = stack.copy()
        with pytest.raises(ValueError, match="orientation ids"):
            orient_blocks(stack, np.array([0, 1]), np.array([1, bad]))
        assert np.array_equal(stack, before)

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
        # A strided plane (one channel of an RGB array, or flipped) encrypts
        # on its block stack exactly as a dense copy does, and is left alone.
        rgb = rng.integers(0, 256, size=(3 * block, 4 * block, 3), dtype=np.uint8)
        grid = split_blocks(rgb[:, :, 0], block)
        e = np.arange(grid.n_blocks)
        ids = draw_orientations(e.size, KEY, TAG_ORIENT)
        src = e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)]
        for plane in (rgb[:, :, 1], rgb[::-1, :, 2]):
            dense = plane.copy()
            stacks = [block_stack(plane, grid), block_stack(dense, grid)]
            for stack in stacks:
                orient_blocks(stack, e, ids)
                move_blocks(stack, src, e)
            assert np.array_equal(*stacks)
            assert np.array_equal(plane, dense)


class TestRotateFlip:
    def test_half_turn_reverses_block(self, rng):
        block = random_plane(rng, 4, 4)
        assert np.array_equal(
            apply_orientation(block, 2).ravel(), block.ravel()[::-1]
        )

    def test_ineligible_blocks_fixed(self, rng):
        plane = random_plane(rng, 8, 8)
        stack = block_stack(plane, split_blocks(plane, 4))
        before = stack.copy()
        orient_blocks(stack, [1], draw_orientations(1, KEY, TAG_ORIENT))
        assert np.array_equal(stack[[0, 2, 3]], before[[0, 2, 3]])

    def test_histogram_invariant(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        stack = block_stack(plane, grid)
        orient_blocks(stack, np.arange(16), draw_orientations(16, KEY, TAG_ORIENT))
        assert np.array_equal(histogram(stack_to_plane(stack, grid)), histogram(plane))

    def test_per_block_multiset_preserved(self, rng):
        plane = random_plane(rng, 16, 16)
        stack = block_stack(plane, split_blocks(plane, 8))
        before = stack.copy()
        orient_blocks(stack, np.arange(4), draw_orientations(4, KEY, TAG_ORIENT))
        for a in range(4):
            assert sorted(stack[a].ravel()) == sorted(before[a].ravel())

    def test_round_trip_500_trials(self):
        rng = np.random.default_rng(77)
        for trial in range(500):
            plane = random_plane(rng)
            stack = block_stack(plane, split_blocks(plane, 4))
            before = stack.copy()
            key = rng.bytes(16)
            e = np.sort(rng.choice(16, size=rng.integers(0, 17), replace=False))
            ids = draw_orientations(e.size, key, TAG_ORIENT)
            orient_blocks(stack, e, ids)
            orient_blocks(stack, e, INVERSE_ORIENTATION[ids])
            assert np.array_equal(stack, before)

    def test_draws_cover_all_orientations(self):
        # With 256 eligible blocks all 8 symmetries should be drawn.
        plane = np.tile(np.arange(16, dtype=np.uint8).reshape(4, 4), (16, 16))
        stack = block_stack(plane, split_blocks(plane, 4))
        orient_blocks(stack, np.arange(256), draw_orientations(256, KEY, TAG_ORIENT))
        assert len({block.tobytes() for block in stack}) == 8


def _reference_transform(plane, grid, eligible, key, inverse):
    """Per-block loop: 3 stream bits per eligible block, ascending index,
    each block transformed by the pure-Python reference."""
    out = plane.copy()
    stream = BitReader(keyed_stream(key, TAG_ORIENT))
    for a in sorted(eligible):
        o = stream.take(3)
        rs, cs = block_slice(grid, a)
        transform = ref_unorientation if inverse else ref_orientation
        out[rs, cs] = transform(plane[rs, cs].tolist(), o)
    return out


class TestRotateFlipOracle:
    @pytest.mark.parametrize("block, index", _with_index_types([2, 3, 4, 8, 16, 32]))
    @pytest.mark.parametrize("which", ["empty", "all", "random"])
    def test_matches_per_block_reference(self, rng, block, which, index):
        plane = random_plane(rng, *{3: (33, 48), 32: (96, 128)}.get(block, (32, 48)))
        grid = split_blocks(plane, block)
        mask = {
            "empty": np.zeros(grid.n_blocks, dtype=bool),
            "all": np.ones(grid.n_blocks, dtype=bool),
            "random": rng.random(grid.n_blocks) < 0.5,
        }[which]
        e = np.flatnonzero(mask).astype(index)
        ids = draw_orientations(e.size, KEY, TAG_ORIENT)
        for applied, inverse in ((ids, False), (INVERSE_ORIENTATION[ids], True)):
            stack = block_stack(plane, grid)
            orient_blocks(stack, e, applied)
            want = _reference_transform(plane, grid, e.tolist(), KEY, inverse)
            assert np.array_equal(stack_to_plane(stack, grid), want)

    def test_input_plane_untouched(self, rng):
        # The applies work on the plane's block stack, a copy.
        plane = random_plane(rng, 16, 16)
        before = plane.copy()
        stack = block_stack(plane, split_blocks(plane, 4))
        e = np.arange(16)
        orient_blocks(stack, e, draw_orientations(e.size, KEY, TAG_ORIENT))
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert np.array_equal(plane, before)


class TestComposition:
    def test_inverse_order(self, rng):
        plane = random_plane(rng, 32, 32)
        stack = block_stack(plane, split_blocks(plane, 8))
        before = stack.copy()
        k1, k2 = rng.bytes(16), rng.bytes(16)
        e = np.arange(16)
        ids = draw_orientations(e.size, k2, TAG_ORIENT)
        src = e[draw_permutation(e.size, k1, TAG_SCRAMBLE)]
        orient_blocks(stack, e, ids)
        move_blocks(stack, src, e)
        move_blocks(stack, e, src)
        orient_blocks(stack, e, INVERSE_ORIENTATION[ids])
        assert np.array_equal(stack, before)

    def test_wrong_key_fails(self, rng):
        plane = random_plane(rng, 32, 32)
        stack = block_stack(plane, split_blocks(plane, 8))
        before = stack.copy()
        e = np.arange(16)
        move_blocks(stack, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        move_blocks(stack, e, e[draw_permutation(e.size, bytes(16), TAG_SCRAMBLE)])
        assert not np.array_equal(stack, before)

    def test_keyed_determinism(self, rng):
        plane = random_plane(rng, 32, 32)
        grid = split_blocks(plane, 8)
        e = np.arange(16)
        a, b = block_stack(plane, grid), block_stack(plane, grid)
        move_blocks(a, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        move_blocks(b, e[draw_permutation(e.size, KEY, TAG_SCRAMBLE)], e)
        assert np.array_equal(a, b)
