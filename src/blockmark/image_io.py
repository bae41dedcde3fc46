"""Image containers, binary PGM/PPM codec, and block-grid arithmetic.

Images are one (grayscale) or three (RGB) planes of 8-bit samples stored as
``(height, width)`` uint8 arrays. Only binary netpbm files (P5/P6) with
maxval 255 are supported: they are the simplest containers that round-trip
pixel payloads byte-for-byte. Comments are tolerated on read and never
emitted on write.

Planes are cut into `block` x `block` tiles, the one shape that the cipher's
8 dihedral symmetries map onto itself. The plan and the cipher work on the
`(n_blocks, block, block)` stack of those tiles: `block_stack`,
`stack_to_plane` and `block_items` are the only code that knows its layout.
"""

from __future__ import annotations

import io
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, ImageFormatError

# Whitespace and comments (`#` to the end of the line), then one token; the
# token ends at whitespace or at a comment, and is empty only at the end.
_TOKEN = re.compile(rb"(?:\s+|#[^\r\n]*)*([^\s#]*)")
_ENCODE_SLICE_BYTES = 1 << 16  # at most this, or one row, is interleaved at a time


@dataclass(frozen=True)
class Image:
    """One grayscale plane or three RGB planes of identical shape."""

    planes: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.planes) not in (1, 3):
            raise ValueError(f"expected 1 or 3 planes, got {len(self.planes)}")
        norm = []
        shape = None
        for p in self.planes:
            a = np.asarray(p)
            if a.ndim != 2:
                raise ValueError("plane must be a 2-D array")
            # Checked before the cast, which would truncate 0.6 (and NaN) to 0;
            # the range check comes first, so `% 1` sees only finite values.
            # Only bool, integer and real float samples can pass either check.
            if a.dtype != np.uint8:
                if (
                    a.dtype.kind not in "biuf"
                    or not ((a >= 0) & (a <= 255)).all()
                    or (a % 1).any()
                ):
                    raise ValueError("samples must be whole numbers in [0, 255]")
                a = a.astype(np.uint8)
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ValueError("planes must share dimensions")
            norm.append(a)
        object.__setattr__(self, "planes", tuple(norm))

    @property
    def height(self) -> int:
        return self.planes[0].shape[0]

    @property
    def width(self) -> int:
        return self.planes[0].shape[1]

    @property
    def is_color(self) -> bool:
        return len(self.planes) == 3

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return len(self.planes) == len(other.planes) and all(
            np.array_equal(a, b) for a, b in zip(self.planes, other.planes)
        )


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    m = _TOKEN.match(data, pos)
    tok = m[1]
    if not tok:
        raise ImageFormatError("unexpected end of header", offset=m.end())
    try:
        if tok.isdigit():  # ASCII decimal only: no sign, "_" or non-ASCII digit
            return int(tok), m.end()
    except ValueError:  # more digits than int() converts
        pass
    raise ImageFormatError(f"invalid {what} token {tok!r}", offset=m.start(1))


def decode_image(data: bytes) -> Image:
    """Decode a binary PGM (P5) or PPM (P6) byte string."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}", offset=0)
    n_planes = 1 if magic == b"P5" else 3
    pos = 2
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"invalid dimensions {width}x{height}", offset=pos)
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}", offset=pos)
    if not data[pos : pos + 1].isspace():
        raise ImageFormatError("missing whitespace before pixel data", offset=pos)
    pos += 1
    need = width * height * n_planes
    if len(data) - pos < need:
        raise ImageFormatError(
            f"truncated pixel data: expected {need} bytes, found {len(data) - pos}",
            offset=len(data),
        )
    # One copy de-interleaves the samples of any plane count; the planes are
    # its rows.
    samples = np.frombuffer(data, np.uint8, count=need, offset=pos)
    planes = samples.reshape(height, width, n_planes).transpose(2, 0, 1).copy()
    return Image(tuple(planes))


def encode_image(image: Image) -> bytes:
    """Serialize to canonical binary PGM/PPM (no comments, maxval 255),
    interleaving a slice of rows at a time straight into the result."""
    height, width, n_planes = image.height, image.width, len(image.planes)
    if not height * width:  # `decode_image` refuses such a header
        raise ImageFormatError(f"invalid dimensions {width}x{height}")
    header = b"P%d\n%d %d\n255\n" % (6 if image.is_color else 5, width, height)
    out = io.BytesIO()
    # One write at the last offset sizes the buffer to header plus samples.
    out.seek(len(header) + height * width * n_planes - 1)
    out.write(b"\0")
    out.seek(0)
    out.write(header)
    rows = max(1, _ENCODE_SLICE_BYTES // (width * n_planes))
    buf = np.empty((min(rows, height), width, n_planes), np.uint8)
    for top in range(0, height, rows):
        part = buf[: min(rows, height - top)]
        for i, plane in enumerate(image.planes):
            part[:, :, i] = plane[top : top + part.shape[0]]
        out.write(part)
    # CPython hands over the exactly sized, unexported buffer without copying
    # it; the bytes are the same either way.
    return out.getvalue()


def load_image(path: str | Path) -> Image:
    return decode_image(Path(path).read_bytes())


def save_image(image: Image, path: str | Path) -> None:
    Path(path).write_bytes(encode_image(image))


@dataclass(frozen=True)
class BlockGrid:
    """Partition of a plane into rows x cols blocks of `block` x `block` pixels."""

    block: int
    cols: int
    rows: int

    @property
    def n_blocks(self) -> int:
        return self.rows * self.cols

    @property
    def plane_shape(self) -> tuple[int, int]:
        return (self.rows * self.block, self.cols * self.block)


def split_blocks(plane: np.ndarray, block: int) -> BlockGrid:
    """Build the block grid for a plane; partial blocks are unsupported."""
    try:
        block = operator.index(block)
    except TypeError:
        raise GeometryError(f"block size must be an integer, got {block!r}") from None
    if block <= 0:
        raise GeometryError(f"block size must be positive, got {block}")
    h, w = plane.shape
    if not h or not w:
        raise GeometryError(f"plane {w}x{h} holds no blocks")
    if w % block or h % block:
        raise GeometryError(f"plane {w}x{h} is not divisible into {block}x{block} blocks")
    return BlockGrid(block=block, cols=w // block, rows=h // block)


def _items(a: np.ndarray, width: int) -> np.ndarray:
    """View the contiguous last axis of `a` as items of `width` elements."""
    return a.view(np.dtype((np.void, width * a.itemsize)))


def block_stack(plane: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """All blocks as a C-contiguous (n_blocks, block, block) copy in raster
    order, for a plane of any dtype and layout. Each block row moves as one
    item."""
    if plane.shape != grid.plane_shape:
        raise GeometryError(f"plane shape {plane.shape} does not match grid {grid.plane_shape}")
    b = grid.block
    rows = _items(np.ascontiguousarray(plane), b).reshape(grid.rows, b, grid.cols)
    return rows.swapaxes(1, 2).copy().view(plane.dtype).reshape(grid.n_blocks, b, b)


def block_items(stack: np.ndarray) -> np.ndarray:
    """A C-contiguous `(n_blocks, b, b)` block stack as a view of n items,
    one block each."""
    if not stack.flags.c_contiguous:
        raise ValueError("the block stack must be C-contiguous")
    n, b, _ = stack.shape
    return _items(stack.reshape(n, b * b), b * b)[:, 0]


def stack_to_plane(stack: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Inverse of `block_stack`: a new plane whose block `a` is `stack[a]`."""
    b = grid.block
    if stack.shape != (grid.n_blocks, b, b):
        raise GeometryError(f"stack shape {stack.shape} is not {(grid.n_blocks, b, b)}")
    rows = _items(np.ascontiguousarray(stack), b).reshape(grid.rows, grid.cols, b)
    return rows.swapaxes(1, 2).copy().view(stack.dtype).reshape(grid.plane_shape)
