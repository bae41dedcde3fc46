"""Keyed, reversible block-permutation encryption.

Two operations, both restricted to the eligible block positions and both
histogram-preserving: position scrambling (an unbiased keyed shuffle of the
eligible blocks) and per-block rotation/flip (3 key bits per eligible block
select one of the 8 symmetries of the `grid.block` x `grid.block` square).

Eligibility is a boolean mask over block indices (``mask[a]`` is True when
block ``a`` may move), as produced by ``ordering.build_order_plan``; any
iterable of block indices in ``[0, grid.n_blocks)`` is accepted too, and an
index outside raises `GeometryError`. Blocks are visited in ascending index
order, so the key stream assigns its draws to the same blocks however the
eligible set is written.

All randomness comes from a deterministic keyed stream: BLAKE2b in counter
mode, ``blake2b(tag + counter_be64, key=key)``, 64 bytes per counter step.
Identical (key, tag) always reproduces the identical stream; distinct tags
give independent streams. Bits are consumed most-significant first, and
bounded draws use rejection sampling so every permutation is equally likely.

Each operation is a draw followed by an apply. The draws depend only on
(count, key, tag): `draw_permutation` is the keyed shuffle of the eligible
blocks and `draw_orientations` their orientation ids, taken from one
``bits`` call. The applies work in place on a plane's ``(n_blocks, b, b)``
block stack (``image_io.block_stack``) from a given draw: `move_blocks`
puts the content of block ``src[k]`` at ``dst[k]`` and `orient_blocks`
transforms block ``blocks[k]`` by orientation ``ids[k]``. The four public
operations are plane to plane: a draw, then an apply on the plane's block
stack. A caller that needs the draw too (to carry a block mask along with
the blocks, or to apply one shared-key draw to every plane) calls the two
halves on its own stacks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, KeyFormatError
from .image_io import BlockGrid, block_stack, stack_to_plane
from .ordering import N_ORIENTATIONS, apply_orientation, invert_orientation

KEY_BYTES = 16

TAG_SCRAMBLE = b"scramble"
TAG_ORIENT = b"orient"
TAG_REGION = b"region"


class KeyedBitStream:
    """Deterministic bit stream derived from (key, tag)."""

    _BLOCK = 64

    def __init__(self, key: bytes, tag: bytes = b""):
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise KeyFormatError("stream key must be non-empty bytes")
        if len(key) > 64:
            raise KeyFormatError("stream key must be at most 64 bytes")
        self._key = bytes(key)
        self._tag = bytes(tag)
        self._counter = 0
        self._bitbuf = 0
        self._bitcount = 0

    def next_bytes(self, n: int) -> bytes:
        """Next n raw stream bytes (independent of any buffered bits)."""
        out = bytearray()
        while len(out) < n:
            out.extend(self._next_block())
        return bytes(out[:n])

    def _next_block(self) -> bytes:
        digest = hashlib.blake2b(
            self._tag + self._counter.to_bytes(8, "big"), key=self._key
        ).digest()
        self._counter += 1
        return digest

    def take_bits(self, n: int) -> int:
        """Consume n bits, most-significant first."""
        while self._bitcount < n:
            block = self._next_block()
            self._bitbuf = (self._bitbuf << (8 * len(block))) | int.from_bytes(block, "big")
            self._bitcount += 8 * len(block)
        shift = self._bitcount - n
        value = self._bitbuf >> shift
        self._bitbuf &= (1 << shift) - 1
        self._bitcount = shift
        return value

    def bits(self, n: int) -> np.ndarray:
        """Consume n bits as a uint8 array of 0s and 1s.

        Equal to ``[take_bits(1) for _ in range(n)]``: buffered bits come
        first, then whole digests unpacked most-significant first; the
        unused tail of the last digest stays buffered for later draws.
        """
        if n < 0:
            raise ValueError("bit count must be non-negative")
        head = min(n, self._bitcount)
        value = self.take_bits(head)
        out = np.empty(n, dtype=np.uint8)
        out[:head] = np.unpackbits(
            np.frombuffer(value.to_bytes((head + 7) // 8, "big"), dtype=np.uint8)
        )[(-head) % 8 :]
        rest = n - head
        if rest:
            n_digests = -(-rest // (8 * self._BLOCK))
            data = b"".join(self._next_block() for _ in range(n_digests))
            out[head:] = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=rest)
            self._bitcount = 8 * len(data) - rest
            tail = int.from_bytes(data[-self._BLOCK :], "big")
            self._bitbuf = tail & ((1 << self._bitcount) - 1)
        return out

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle driven by the stream.

        For i = len-1 .. 1, swaps items i and j, where j is the next
        ``i.bit_length()`` stream bits, redrawn while it exceeds i (unbiased
        rejection sampling). Bits are read from a local big-int buffer.
        """
        buf, count = self._bitbuf, self._bitcount
        block_bits = 8 * self._BLOCK
        k, mask = 0, 0
        for i in range(len(seq) - 1, 0, -1):
            if i.bit_length() != k:
                k = i.bit_length()
                mask = (1 << k) - 1
            while True:
                if count < k:
                    buf = ((buf & ((1 << count) - 1)) << block_bits) | int.from_bytes(
                        self._next_block(), "big"
                    )
                    count += block_bits
                count -= k
                j = (buf >> count) & mask
                if j <= i:
                    break
            seq[i], seq[j] = seq[j], seq[i]
        self._bitbuf, self._bitcount = buf & ((1 << count) - 1), count


@dataclass(frozen=True)
class KeySet:
    """Scramble, orientation, and optional region-assignment keys."""

    k_scramble: bytes
    k_orient: bytes
    k_region: bytes | None = None
    per_plane: bool = True

    def __post_init__(self):
        for name in ("k_scramble", "k_orient"):
            if len(getattr(self, name)) != KEY_BYTES:
                raise KeyFormatError(f"{name} must be {KEY_BYTES} bytes")
        if self.k_region is not None and len(self.k_region) != KEY_BYTES:
            raise KeyFormatError(f"k_region must be {KEY_BYTES} bytes")


def plane_key(key: bytes, plane: int | None) -> bytes:
    """Per-plane subkey: append the plane tag byte; None means shared key."""
    if plane is None:
        return key
    if not 0 <= plane < 256:
        raise ValueError("plane index must fit one byte")
    return key + bytes([plane])


def generate_keys(
    two_domain: bool = False, per_plane: bool = True, seed: int | None = None
) -> KeySet:
    """Fresh keys from the OS, or derived from a seed for reproducibility."""
    if seed is None:
        material = [os.urandom(KEY_BYTES) for _ in range(3)]
    else:
        if not -(2**63) <= seed < 2**63:
            raise KeyFormatError("seed must fit in a signed 64-bit integer")
        stream = KeyedBitStream(seed.to_bytes(8, "big", signed=True), b"keygen")
        material = [stream.next_bytes(KEY_BYTES) for _ in range(3)]
    return KeySet(
        k_scramble=material[0],
        k_orient=material[1],
        k_region=material[2] if two_domain else None,
        per_plane=per_plane,
    )


def save_key_file(keys: KeySet, path) -> None:
    lines = [keys.k_scramble.hex(), keys.k_orient.hex()]
    if keys.k_region is not None:
        lines.append(keys.k_region.hex())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_key_file(path, per_plane: bool = True) -> KeySet:
    """Parse 32-hex-digit keys, one per line: scramble, orient, [region]."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise KeyFormatError("key file is not UTF-8 text") from None
    if len(lines) not in (2, 3):
        raise KeyFormatError(f"key file must hold 2 or 3 keys, found {len(lines)}")
    material = []
    for i, line in enumerate(lines):
        try:
            raw = bytes.fromhex(line)
        except ValueError:
            raise KeyFormatError(f"key line {i + 1} is not valid hex") from None
        if len(raw) != KEY_BYTES:
            raise KeyFormatError(
                f"key line {i + 1} must encode {KEY_BYTES} bytes, got {len(raw)}"
            )
        material.append(raw)
    return KeySet(
        k_scramble=material[0],
        k_orient=material[1],
        k_region=material[2] if len(material) == 3 else None,
        per_plane=per_plane,
    )


def _eligible_array(eligible, grid: BlockGrid) -> np.ndarray:
    """Ascending indices of the eligible blocks, from a mask or an index set."""
    if isinstance(eligible, np.ndarray) and eligible.dtype == bool:
        if eligible.shape != (grid.n_blocks,):
            raise GeometryError(
                f"eligibility mask has shape {eligible.shape}, "
                f"grid has {grid.n_blocks} blocks"
            )
        return np.flatnonzero(eligible)
    e = np.asarray(sorted({int(a) for a in eligible}), dtype=np.intp)
    if e.size and not (0 <= e[0] and e[-1] < grid.n_blocks):
        raise GeometryError(f"block indices must lie in [0, {grid.n_blocks})")
    return e


def draw_permutation(n: int, key: bytes, tag: bytes) -> np.ndarray:
    """Keyed permutation of range(n): the scramble draw for n eligible blocks."""
    order = list(range(n))
    KeyedBitStream(key, tag).shuffle(order)
    return np.array(order, dtype=np.intp)


def draw_orientations(n: int, key: bytes, tag: bytes) -> np.ndarray:
    """Orientation ids for n eligible blocks: 3 stream bits each, MSB first."""
    b = KeyedBitStream(key, tag).bits(3 * n).reshape(n, 3)
    return (b[:, 0] << 2) | (b[:, 1] << 1) | b[:, 2]


def move_blocks(stack: np.ndarray, src, dst) -> None:
    """In place on a `(n_blocks, b, b)` block stack: block `dst[k]` gets
    what block `src[k]` held. `np.take` gathers whole blocks about twice as
    fast as indexing does at block 4."""
    stack[dst] = np.take(stack, src, axis=0)


def orient_blocks(stack: np.ndarray, blocks, ids) -> None:
    """In place on a `(n_blocks, b, b)` block stack: block `blocks[k]` is
    transformed by orientation `ids[k]`. Each of the 8 symmetries gathers
    its blocks, transforms them together and scatters them back."""
    blocks, ids = np.asarray(blocks), np.asarray(ids)
    for o in range(1, N_ORIENTATIONS):  # id 0 is the identity
        at = blocks[ids == o]
        if at.size:
            stack[at] = apply_orientation(np.take(stack, at, axis=0), o)


def _on_stack(plane: np.ndarray, grid: BlockGrid, apply, *args) -> np.ndarray:
    """New plane: `apply(stack, *args)` on the plane's block stack."""
    stack = block_stack(plane, grid)
    apply(stack, *args)
    return stack_to_plane(stack, grid)


def scramble_blocks(
    plane: np.ndarray,
    grid: BlockGrid,
    eligible,
    key: bytes,
    tag: bytes = TAG_SCRAMBLE,
) -> np.ndarray:
    """Permute the eligible blocks among their own positions."""
    e = _eligible_array(eligible, grid)
    return _on_stack(plane, grid, move_blocks, e[draw_permutation(e.size, key, tag)], e)


def unscramble_blocks(
    plane: np.ndarray,
    grid: BlockGrid,
    eligible,
    key: bytes,
    tag: bytes = TAG_SCRAMBLE,
) -> np.ndarray:
    e = _eligible_array(eligible, grid)
    return _on_stack(plane, grid, move_blocks, e, e[draw_permutation(e.size, key, tag)])


# Orientation id -> id of its inverse.
INVERSE_ORIENTATION = np.array(
    [invert_orientation(o) for o in range(N_ORIENTATIONS)], dtype=np.uint8
)


def rotate_flip_blocks(
    plane: np.ndarray,
    grid: BlockGrid,
    eligible,
    key: bytes,
    tag: bytes = TAG_ORIENT,
) -> np.ndarray:
    """Apply a key-drawn symmetry (identity allowed) to each eligible block."""
    e = _eligible_array(eligible, grid)
    return _on_stack(plane, grid, orient_blocks, e, draw_orientations(e.size, key, tag))


def unrotate_blocks(
    plane: np.ndarray,
    grid: BlockGrid,
    eligible,
    key: bytes,
    tag: bytes = TAG_ORIENT,
) -> np.ndarray:
    e = _eligible_array(eligible, grid)
    ids = draw_orientations(e.size, key, tag)
    return _on_stack(plane, grid, orient_blocks, e, INVERSE_ORIENTATION[ids])
