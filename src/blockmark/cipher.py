"""Keyed, reversible block-permutation encryption.

Two operations, both restricted to the eligible block positions and both
histogram-preserving: position scrambling (an unbiased keyed shuffle of the
eligible blocks) and per-block rotation/flip (3 key bits per eligible block
select one of the 8 symmetries of the `grid.block` x `grid.block` square).

All randomness comes from a deterministic keyed stream (`keyed_stream`):
BLAKE2b in counter mode, ``blake2b(tag + counter_be64, key=key)``, 64 bytes
per counter step. Identical (key, tag) always reproduces the identical
stream; distinct tags give independent streams. Every draw reads a fresh
stream from its start. Bits are consumed most-significant first, and
bounded draws use rejection sampling so every permutation is equally likely.

The permutation is a Fisher-Yates shuffle of ``range(n)``: for i = n-1 .. 1,
items i and j swap, where j is the next ``i.bit_length()`` stream bits,
redrawn while it exceeds i. It is computed without a loop over the items,
in two halves that give exactly what that loop gives. The draws are read a
run of equal bit width at a time, in passes of at most 2**14 candidates,
with acceptance found by a fixed-point prefix sum (`_swap_targets`). The
swaps are then resolved all at once (`_compose_swaps`): a scatter-minimum
links each position to the first step that targets it, pointer jumping
follows those links to their ends, and a stable sort of the targets links
each step to the next step with the same target.

Each operation is a draw followed by an apply. The draws depend only on
(count, key, tag): `draw_permutation` is the keyed shuffle of the eligible
blocks and `draw_orientations` their orientation ids. The applies work in
place on a plane's C-contiguous ``(n_blocks, b, b)`` block stack
(``image_io.block_stack``) from a given draw, each block one item:
`move_blocks` puts the content of block ``src[k]`` at ``dst[k]`` and
`orient_blocks` transforms block ``blocks[k]`` by orientation ``ids[k]``.
With ``e`` the ascending eligible block indices, scrambling moves
``e[perm]`` to ``e`` and unscrambling moves ``e`` to ``e[perm]``;
unrotating applies ``INVERSE_ORIENTATION[ids]``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import KeyFormatError
from .ordering import N_ORIENTATIONS, apply_orientation

KEY_BYTES = 16

TAG_SCRAMBLE = b"scramble"
TAG_ORIENT = b"orient"
TAG_REGION = b"region"


def keyed_stream(key: bytes, tag: bytes) -> Iterator[bytes]:
    """The (key, tag) stream: the 64-byte digests ``blake2b(tag +
    counter_be64, key=key)`` for counter = 0, 1, ... The key is checked
    here, before any digest is taken."""
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise KeyFormatError("stream key must be non-empty bytes")
    if len(key) > 64:
        raise KeyFormatError("stream key must be at most 64 bytes")
    base = hashlib.blake2b(bytes(tag), key=bytes(key))

    def digests():
        # Each digest from a copy of the keyed state that absorbed the tag.
        for counter in itertools.count():
            h = base.copy()
            h.update(counter.to_bytes(8, "big"))
            yield h.digest()

    return digests()


def stream_bits(key: bytes, tag: bytes, n: int) -> np.ndarray:
    """The first n bits of the (key, tag) stream, most-significant first, as
    a uint8 array of 0s and 1s."""
    n = _count(n)
    data = b"".join(itertools.islice(keyed_stream(key, tag), -(-n // 512)))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


@dataclass(frozen=True)
class KeySet:
    """Scramble, orientation, and optional region-assignment keys."""

    k_scramble: bytes
    k_orient: bytes
    k_region: bytes | None = None
    per_plane: bool = True

    def __post_init__(self):
        for name in ("k_scramble", "k_orient", "k_region"):
            key = getattr(self, name)
            if name == "k_region" and key is None:
                continue
            if not isinstance(key, bytes) or len(key) != KEY_BYTES:
                raise KeyFormatError(f"{name} must be {KEY_BYTES} bytes")


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
        stream = keyed_stream(seed.to_bytes(8, "big", signed=True), b"keygen")
        material = [digest[:KEY_BYTES] for digest in itertools.islice(stream, 3)]
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


def _count(n) -> int:
    """A draw or bit count as a Python int; negative counts are rejected."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    return n


# Candidates one pass of `_swap_targets` reads at most: a longer run takes
# several passes, which keeps its temporaries small.
_PASS = 1 << 14


def _swap_targets(stream: Iterator[bytes], n: int) -> np.ndarray:
    """Fisher-Yates swap targets from a fresh stream of digests: for
    i = n-1 .. 1, ``j[i]`` is the next ``i.bit_length()`` bits, redrawn while
    it exceeds i; and ``j[0] = 0``.

    The steps of one bit width k form a run, and every candidate of a run,
    accepted or rejected, is the next k bits, so a run's candidates are
    read as one array, at most `_PASS` of them a pass. Candidate p is drawn
    by step ``A[p]``, the number of candidates accepted before it, and
    accepted when ``vals[p] <= i_top - A[p]``. So A is the exclusive prefix
    sum of its own acceptances. That sum has one fixed point, and iterating
    it reaches the point in a few passes from a start at the expected
    counts: each pass makes at least the next entry exact. A pass short of
    candidates leaves the rest of its run to the next pass; the bits after
    its last accepted candidate go on to the next pass.
    """
    j = np.zeros(n, dtype=np.int32)
    # Stream bits read but not yet used: `pool` after its first `skip` bits.
    pool, skip = b"", 0
    i_top = n - 1
    while i_top > 0:
        k = i_top.bit_length()
        steps = i_top - (1 << (k - 1)) + 1
        # Step i accepts with probability (i + 1) / 2^k, so the run's steps
        # expect this many candidates. Read that and a margin.
        expected = (1 << k) * math.log((i_top + 1) / (i_top + 1 - steps))
        c = min(int(expected + math.sqrt(expected)) + 8, _PASS)
        # Eight candidates take k bytes. Row g of `windows` holds the 8-byte
        # windows that start at bytes g*k, g*k + 1, ...; candidate 8g + r
        # starts in the one at byte offset (skip + r*k) // 8 of its row, at
        # bit (skip + r*k) % 8. Shift those bits to the top, then down to k.
        rows = -(-c // 8)
        start = [skip + r * k for r in range(8)]
        width = start[7] // 8 + 1
        short = (rows - 1) * k + width + 8 - len(pool)
        if short > 0:
            pool += b"".join(itertools.islice(stream, -(-short // 64)))
        # Each window read little-endian, then byte-swapped: its big-endian
        # value, in the native order of most machines.
        windows = np.ndarray((rows, width), "<u8", pool, strides=(k, 1))
        vals = windows[:, [s >> 3 for s in start]].byteswap(inplace=True)
        del windows
        vals <<= np.array([s & 7 for s in start], dtype=np.uint64)
        vals >>= np.uint64(64 - k)
        vals = vals.astype(np.int32).reshape(-1)[:c]

        # Start from the steps expected before each candidate, the inverse
        # of the expected candidate count above.
        before = np.expm1(np.arange(c, dtype=np.float32) * np.float32(-1 / (1 << k)))
        before = (np.float32(-(i_top + 1)) * before).astype(np.int32)
        after = np.zeros(c, dtype=np.int32)
        room = i_top - vals
        while True:
            accepted = before <= room
            np.add.accumulate(accepted[:-1], dtype=np.int32, out=after[1:])
            if (after == before).all():
                break
            before, after = after, before
        del before, after, room

        taken = accepted.nonzero()[0][:steps]
        used = taken[-1] + 1 if taken.size == steps else c
        j[i_top - taken.size + 1 : i_top + 1] = np.take(vals, taken[::-1])
        skip += int(used) * k
        pool, skip = pool[skip // 8 :], skip % 8
        i_top -= taken.size
    return j


def _compose_swaps(j: np.ndarray) -> np.ndarray:
    """What swapping items i and ``j[i]`` of ``range(n)`` for i = n-1 .. 1
    leaves, given int32 ``j[i] <= i`` and ``j[0] = 0``, without a loop over
    the swaps.

    Follow the item that starts at position p. Steps before p never touch
    it (their targets are below p); step p moves it to ``j[p]``; after that
    it moves only when a later step targets where it sits, to that step's
    position. So with ``g(p)``, the next step after p with the same target,
    and ``f(q)``, the first step after q that targets q, the item ends at
    ``root_f(g(p))`` if g(p) exists and at ``j[p]`` otherwise. f is the
    smallest step at each target, one scatter-minimum; its roots come from
    pointer jumping, which takes a few passes because the chains are short
    (Shun et al., SODA 2015). g pairs neighbours in a stable sort of the
    targets. Every gather and scatter is on int32.
    """
    n = j.size
    # f: the smallest step that targets each position. The top bit marks the
    # positions no step targets; each is its own root. Where j[q] = q that
    # step is q itself, but no link reaches such a q: g and f only lead to
    # steps that target a position below them.
    f = np.arange(2**31, 2**31 + n, dtype=np.uint32)
    np.minimum.at(f, j, np.arange(n, dtype=np.uint32))
    f &= 2**31 - 1
    f = f.view(np.int32)
    while True:
        jumped = np.take(f, f)
        if np.array_equal(jumped, f):
            break
        f = jumped
    del jumped
    # A stable sort by target, an LSD radix sort over 16-bit digits, keeps
    # each target's steps in step order. There step order[k] ends at the
    # root of g = order[k + 1] when that step has the same target, and at
    # its own target otherwise.
    order = np.argsort(j.astype(np.uint16), kind="stable").astype(np.int32)
    for shift in range(16, (n - 1).bit_length(), 16):
        digit = (np.take(j, order) >> shift).astype(np.uint16)
        order = np.take(order, np.argsort(digit, kind="stable"))
    target = np.take(j, order)
    del j
    roots = np.take(f, order[1:])
    del f
    target[:-1] += (roots - target[:-1]) * (target[1:] == target[:-1])
    del roots
    out = np.empty(n, dtype=np.int32)
    np.put(out, order, target)
    return out.astype(np.intp)


def draw_permutation(n: int, key: bytes, tag: bytes) -> np.ndarray:
    """Keyed permutation of range(n): the scramble draw for n eligible blocks.

    The result of a Fisher-Yates shuffle of ``range(n)`` driven by the
    (key, tag) stream: for i = n-1 .. 1, items i and j swap, where j is the
    next ``i.bit_length()`` stream bits, redrawn while it exceeds i. The
    draws are read a run of equal bit width at a time and accepted by a
    fixed-point prefix sum (`_swap_targets`); the swaps are resolved all at
    once by a scatter-minimum, pointer jumping and one stable sort of the
    targets (`_compose_swaps`). A numpy integer n is accepted; a negative
    one raises `ValueError`.
    """
    n = _count(n)
    if n >= 2**31:
        raise ValueError(f"can permute fewer than 2**31 items, got {n}")
    return _compose_swaps(_swap_targets(keyed_stream(key, tag), n))


def draw_orientations(n: int, key: bytes, tag: bytes) -> np.ndarray:
    """Orientation ids for n eligible blocks: 3 stream bits each, MSB first."""
    n = _count(n)
    b = stream_bits(key, tag, 3 * n).reshape(n, 3)
    return (b[:, 0] << 2) | (b[:, 1] << 1) | b[:, 2]


def _block_items(stack: np.ndarray) -> np.ndarray:
    """A C-contiguous `(n_blocks, b, b)` block stack as n one-block items."""
    if not stack.flags.c_contiguous:
        raise ValueError("the block stack must be C-contiguous")
    n, b, _ = stack.shape
    return stack.reshape(n, b * b).view(np.dtype((np.void, b * b * stack.itemsize)))[:, 0]


def move_blocks(stack: np.ndarray, src, dst) -> None:
    """In place on a C-contiguous `(n_blocks, b, b)` block stack: block
    `dst[k]` gets what block `src[k]` held. Each block moves as one item."""
    items = _block_items(stack)
    np.put(items, dst, np.take(items, src))


def orient_blocks(stack: np.ndarray, blocks, ids) -> None:
    """In place on a C-contiguous `(n_blocks, b, b)` block stack: block
    `blocks[k]` is transformed by orientation `ids[k]`. Each of the 7
    non-identity symmetries gathers its blocks with one item per block,
    transforms them into a contiguous copy and scatters them back.

    The groups come from one mask per id. A stable `argsort` of the ids
    finds them a little faster, but its intp result and radix buffer take
    16 bytes per block, which at block 4 grew the heap enough to raise the
    benchmark's resident peak in most processes."""
    items = _block_items(stack)
    ids = np.asarray(ids)
    if ids.size and not 0 <= ids.min() <= ids.max() < N_ORIENTATIONS:
        raise ValueError(f"orientation ids must be in [0, {N_ORIENTATIONS})")
    for o in range(1, N_ORIENTATIONS):  # id 0 is the identity
        at = np.take(blocks, np.flatnonzero(ids == o))
        if at.size:
            group = np.take(items, at).view(stack.dtype).reshape(-1, *stack.shape[1:])
            turned = np.ascontiguousarray(apply_orientation(group, o))
            np.put(items, at, _block_items(turned))


# Orientation id -> id of its inverse: mirrored ids are involutions, and
# `o` quarter turns are undone by `-o mod 4` of them.
INVERSE_ORIENTATION = np.array(
    [o if o & 4 else -o % 4 for o in range(N_ORIENTATIONS)], dtype=np.uint8
)
