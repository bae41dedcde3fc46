"""PGM/PPM codec and block-grid arithmetic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockmark import (
    GeometryError,
    Image,
    ImageFormatError,
    block_stack,
    decode_image,
    encode_image,
    split_blocks,
)
from blockmark import image_io
from blockmark.image_io import BlockGrid, stack_to_plane
from conftest import block_slice


class TestDecode:
    def test_smallest_pgm(self):
        img = decode_image(b"P5 2 2 255 " + bytes([0, 1, 2, 3]))
        assert not img.is_color
        assert np.array_equal(img.planes[0], [[0, 1], [2, 3]])

    def test_ppm_deinterleave(self):
        img = decode_image(b"P6 2 1 255 " + bytes([255, 0, 0, 0, 0, 255]))
        assert img.is_color
        assert np.array_equal(img.planes[0], [[255, 0]])
        assert np.array_equal(img.planes[1], [[0, 0]])
        assert np.array_equal(img.planes[2], [[0, 255]])

    def test_unsupported_maxval(self):
        with pytest.raises(ImageFormatError, match="maxval"):
            decode_image(b"P5 2 2 65535 " + bytes(8))

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="magic"):
            decode_image(b"P3 1 1 255 0")

    def test_truncated_names_offset(self):
        data = b"P5 4 4 255 " + bytes(7)
        with pytest.raises(ImageFormatError, match=r"expected 16 bytes, found 7 \(byte 18\)"):
            decode_image(data)

    @pytest.mark.parametrize("magic, n_planes", [(b"P5", 1), (b"P6", 3)])
    def test_planes_are_separate_writable_arrays(self, magic, n_planes):
        # Each plane is a writable, C-contiguous uint8 array of its own
        # samples; bytes after the raster are ignored.
        samples = bytes(range(2 * 3 * n_planes))
        data = magic + b" 3 2 255\n" + samples + b"trailing bytes"
        want = np.frombuffer(samples, np.uint8).reshape(2, 3, n_planes).transpose(2, 0, 1)
        image = decode_image(data)
        assert len(image.planes) == n_planes
        for plane, expected in zip(image.planes, want):
            assert plane.dtype == np.uint8
            assert plane.flags.c_contiguous and plane.flags.writeable
            assert np.array_equal(plane, expected)
        # Writing one plane changes no other plane and no later decode.
        image.planes[0][:] = 255
        for plane, expected in zip(image.planes[1:], want[1:]):
            assert np.array_equal(plane, expected)
        assert all(np.array_equal(a, b) for a, b in zip(decode_image(data).planes, want))

    def test_comments_tolerated(self):
        for header in [
            b"P5 # width next\n2 # height\n2\n# maxval\n255\n",
            b"P5 \t\r\n\x0b\x0c2\x0c\x0b\n\r\t 2  \t\t\r\r\n\n\x0b\x0b\x0c\x0c255\x0b",
            b"P5##\n## ##\n2 ###2\n2 255\x0c",  # `##` runs; `###2` is all comment
            b"P5#a\r2#b\r2\r#c\r255\r",  # comments that end at `\r`
            b"P5 2#c\n2 255\n",  # a comment right after a token ends it
            b"P5 2 2#c\n#d\r255\n",  # comments just before maxval and its one whitespace byte
            b"P5 #" + b"x" * (1 << 20) + b"\n2 2 255\n",  # a 1 MB comment
            b"P5 002 02 0255\n",  # leading zeros
        ]:
            img = decode_image(header + bytes([9, 8, 7, 6]))
            assert np.array_equal(img.planes[0], [[9, 8], [7, 6]]), header[:40]

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P5 2 #c\n", "unexpected end of header", 8),
            (b"P5 2 2", "unexpected end of header", 6),
            (b"P5 2 x2#c\n", "invalid height token b'x2'", 5),
            (b"P6#c\n\t4_ 2 25a5\n", "invalid width token b'4_'", 6),
            (b"P5 2 2 255#c\n" + bytes(4), "missing whitespace before pixel data", 10),
            (b"P5 2 0 255\n", "invalid dimensions 2x0", 10),
            # Header numbers are ASCII decimal digits: no sign, no "_".
            (b"P5 +2 2 255\n", "invalid width token b'+2'", 3),
            (b"P5 -2 2 255\n", "invalid width token b'-2'", 3),
            (b"P5 2 0_2 255\n", "invalid height token b'0_2'", 5),
            (b"P5 2 2 2_55\n", "invalid maxval token b'2_55'", 7),
        ],
    )
    def test_header_errors_name_offset(self, data, message, offset):
        with pytest.raises(ImageFormatError) as info:
            decode_image(data)
        assert str(info.value) == f"{message} (byte {offset})" and info.value.offset == offset

    def test_non_numeric_header(self):
        with pytest.raises(ImageFormatError, match="invalid width token"):
            decode_image(b"P5 two 2 255 " + bytes(4))

    def test_header_number_past_int_digit_limit(self):
        with pytest.raises(ImageFormatError, match="invalid width token"):
            decode_image(b"P5 " + b"2" * 5000 + b" 2 255 " + bytes(4))


class TestEncode:
    def test_never_emits_comments(self):
        img = Image((np.full((3, 3), ord("#"), dtype=np.uint8),))
        header = encode_image(img).split(b"\n255\n")[0]
        assert b"#" not in header

    def test_round_trip_bytes(self):
        data = b"P5\n4 2\n255\n" + bytes(range(8))
        assert encode_image(decode_image(data)) == data

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (0, 0)], ids=["no-rows", "no-cols", "empty"])
    def test_empty_image_is_refused(self, shape):
        # `Image` allows an empty plane; a PGM header cannot describe one.
        height, width = shape
        with pytest.raises(ImageFormatError, match=f"invalid dimensions {width}x{height}"):
            encode_image(Image((np.zeros(shape, np.uint8),)))

    @settings(max_examples=40)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 8))),
        st.booleans(),
    )
    def test_round_trip_pixels(self, plane, color):
        planes = (plane, plane.copy(), plane.copy()) if color else (plane,)
        img = Image(planes)
        assert decode_image(encode_image(img)) == img


def _slice_shapes():
    """(height, width) per plane count around the encoder's row slices:
    1x1, two slices and one row, and one row wider than a slice."""
    shapes = []
    for n_planes in (1, 3):
        rows = image_io._ENCODE_SLICE_BYTES // (700 * n_planes)
        wide = image_io._ENCODE_SLICE_BYTES // n_planes + 1
        for shape in [(1, 1), (2 * rows + 1, 700), (3, wide)]:
            shapes.append((n_planes, shape))
    return shapes


class TestEncodeSlices:
    """`encode_image` interleaves a slice of rows at a time into the bytes
    it returns; the result is the interleaved raster of the planes."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "every other row"])
    @pytest.mark.parametrize("n_planes, shape", _slice_shapes())
    def test_equals_interleaved_raster(self, rng, n_planes, shape, layout):
        h, w = shape
        planes = []
        for _ in range(n_planes):
            if layout == "transposed":
                plane = rng.integers(0, 256, (w, h), dtype=np.uint8).T
            elif layout == "every other row":
                plane = rng.integers(0, 256, (2 * h, w), dtype=np.uint8)[::2]
            else:
                plane = rng.integers(0, 256, (h, w), dtype=np.uint8)
            planes.append(plane)
        header = b"P%d\n%d %d\n255\n" % (6 if n_planes == 3 else 5, w, h)
        data = encode_image(Image(tuple(planes)))
        assert type(data) is bytes
        assert data == header + np.stack(planes, axis=-1).tobytes()

    def test_traced_peak_is_the_returned_bytes(self, rng):
        # The whole-image buffer is the result itself: no interleaved copy
        # of the image besides it.
        image = Image(tuple(rng.integers(0, 256, (512, 512), dtype=np.uint8) for _ in range(3)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data = encode_image(image)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(data)


class TestImage:
    def test_plane_count(self):
        with pytest.raises(ValueError):
            Image((np.zeros((2, 2), np.uint8), np.zeros((2, 2), np.uint8)))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="share"):
            Image(
                (
                    np.zeros((2, 2), np.uint8),
                    np.zeros((2, 2), np.uint8),
                    np.zeros((2, 3), np.uint8),
                )
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Image((np.array([[300]]),))

    @pytest.mark.parametrize(
        "value, whole", [(0.6, False), (np.nan, False), (255.0, True), (True, True)]
    )
    def test_samples_must_be_whole(self, value, whole):
        # The uint8 cast would make 0.6 and NaN 0, NaN with only a warning.
        plane = np.full((4, 4), value)
        if whole:
            assert Image((plane,)).planes[0].tolist() == [[int(value)] * 4] * 4
        else:
            with pytest.raises(ValueError, match="whole"):
                Image((plane,))

    @pytest.mark.parametrize(
        "plane",
        [
            np.full((2, 2), 1 + 0j),  # complex
            np.full((2, 2), "1"),  # str
            np.full((2, 2), b"1"),  # bytes
            np.full((2, 2), 1, dtype=object),
            np.zeros((2, 2), dtype=[("v", np.uint8)]),  # structured
            np.zeros((2, 2), dtype="V1"),  # raw void
            np.full((2, 2), 1, dtype="m8[s]"),  # timedelta
            np.full((2, 2), 1, dtype="M8[s]"),  # datetime
        ],
        ids=lambda p: p.dtype.kind,
    )
    def test_non_numeric_samples_rejected(self, plane):
        with pytest.raises(ValueError, match="whole numbers"):
            Image((plane,))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
    def test_plane_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            Image((np.zeros(shape, np.uint8),))

    def test_never_equals_other_types(self):
        img = Image((np.zeros((2, 2), np.uint8),))
        assert (img == 5) is False
        assert (img == img.planes) is False


class TestBlockGrid:
    def test_even_split(self):
        grid = split_blocks(np.zeros((32, 32), np.uint8), 16)
        assert (grid.rows, grid.cols, grid.n_blocks) == (2, 2, 4)

    def test_large_landscape_split(self):
        # 3072-wide landscape plane: 3072/16 = 192 columns of blocks.
        grid = split_blocks(np.zeros((2048, 3072), np.uint8), 16)
        assert (grid.rows, grid.cols) == (128, 192)

    def test_indivisible(self):
        with pytest.raises(GeometryError):
            split_blocks(np.zeros((10, 10), np.uint8), 16)

    @pytest.mark.parametrize("block", [4.0, "4", None])
    def test_non_integer_block(self, block):
        with pytest.raises(GeometryError, match="integer"):
            split_blocks(np.zeros((16, 16), np.uint8), block)

    def test_numpy_integer_block(self):
        grid = split_blocks(np.zeros((16, 16), np.uint8), np.int64(4))
        assert (grid.block, grid.rows, grid.cols) == (4, 4, 4)
        assert type(grid.block) is int

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (0, 0)])
    def test_plane_with_no_blocks(self, shape):
        with pytest.raises(GeometryError, match="no blocks"):
            split_blocks(np.zeros(shape, np.uint8), 4)

    def test_index_mapping_is_bijective(self):
        # Block a's top-left cell in the stack is its origin pixel.
        grid = BlockGrid(block=4, cols=5, rows=3)
        pixels = np.arange(12 * 20).reshape(grid.plane_shape)
        origins = {divmod(int(i), 20) for i in block_stack(pixels, grid)[:, 0, 0]}
        assert len(origins) == grid.n_blocks
        assert origins == {(r * 4, c * 4) for r in range(3) for c in range(5)}


class TestConcatSplit:
    @settings(max_examples=30)
    @given(arrays(np.uint8, (24, 24)), st.sampled_from([2, 3, 4, 6, 8, 12]))
    def test_stack_round_trip(self, plane, size):
        grid = split_blocks(plane, size)
        assert np.array_equal(stack_to_plane(block_stack(plane, grid), grid), plane)

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
    @pytest.mark.parametrize("size", [1, 3, 5, 32])
    def test_round_trip_dtypes(self, rng, dtype, size):
        plane = rng.integers(-(2**40), 2**40, size=(2 * size, 3 * size)).astype(dtype)
        grid = split_blocks(plane, size)
        stacked = block_stack(plane, grid)
        assert stacked.dtype == plane.dtype and stacked.flags.c_contiguous
        assert not np.shares_memory(stacked, plane)
        for a in range(grid.n_blocks):
            assert np.array_equal(stacked[a], plane[block_slice(grid, a)])
        out = stack_to_plane(stacked, grid)
        assert out.dtype == plane.dtype and not np.shares_memory(out, stacked)
        assert np.array_equal(out, plane)

    @pytest.mark.parametrize("size", [1, 3, 5, 32])
    def test_round_trip_non_contiguous(self, rng, size):
        rgb = rng.integers(0, 256, size=(2 * size, 3 * size, 3), dtype=np.uint8)
        for plane in (rgb[:, :, 1], rgb[::-1, :, 0], rgb[:, ::-1, 2]):
            assert not plane.flags.c_contiguous
            grid = split_blocks(plane, size)
            stacked = block_stack(plane, grid)
            assert np.array_equal(stacked, block_stack(plane.copy(), grid))
            assert np.array_equal(stack_to_plane(stacked, grid), plane)
            # A non-contiguous stack converts like its contiguous copy.
            swapped = stacked.swapaxes(1, 2)
            want = stack_to_plane(swapped.copy(), grid)
            assert np.array_equal(stack_to_plane(swapped, grid), want)

    def test_shape_mismatch(self):
        grid = BlockGrid(block=4, cols=2, rows=2)
        with pytest.raises(GeometryError):
            block_stack(np.zeros((8, 12), np.uint8), grid)
        with pytest.raises(GeometryError):
            stack_to_plane(np.zeros((4, 4, 2), np.uint8), grid)

    def test_stack_matches_get_block(self, rng):
        plane = rng.integers(0, 256, size=(12, 20), dtype=np.uint8)
        grid = split_blocks(plane, 4)
        stacked = block_stack(plane, grid)
        for a in range(grid.n_blocks):
            assert np.array_equal(stacked[a], plane[block_slice(grid, a)])
