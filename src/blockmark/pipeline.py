"""End-to-end flows: embed, encrypt, extract, decrypt, in any order.

Embedding and encryption commute because the slot order is derived from
pixel content that neither operation disturbs. Consequently a payload can be
written before or after encryption and read before or after decryption; the
receiver only needs the side information (pp/zp per plane, payload bit
lengths, geometry) to extract, and only needs the keys to decrypt.

Every flow runs over scopes: sets of blocks that are ordered, encrypted
and embedded on their own, with their own key tags and payload bits. A scope
is a block label, and each scope's plan is its label's slice of the one
order plan per plane. Plain-first and encrypted-first hiding use one
whole-grid scope. Two-domain hiding labels every block region A (0) or B
(1) by one fair key bit per block (`region_labels`); A holds the
plain-domain payload and B the encrypted-domain one. Payloads are consumed
plane by plane in R, G, B order, each plane taking up to its own capacity
in the scope.

Each call converts every plane to its `(n_blocks, b, b)` block stack once
on entry and back once on exit, and builds one plan per plane; every step
in between works on the stacks, with slots as stack-flat indices.
Encryption only moves block content, and every slot moves with its block,
so embedding writes every scope into its plan's slots before any block
moves: an encrypted-first scope gets the pixels a hider working on the
ciphertext would write. The mode is recorded in the side info and changes
no pixel. The cipher runs per scope and key group (one plane each under
per-plane keys, all planes under shared keys). Extraction and decryption
are one receiver pass, which probes each plane once and plans it in the
state it arrives in: a payload-free un-shifted plane has the plan of its
shift. Extraction reads every scope's bits and unshifts in place before
any block moves; decryption moves the rotation mask with its blocks as it
unscrambles, then unrotates.
"""

from __future__ import annotations

import enum
import operator
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cipher import (
    TAG_ORIENT,
    TAG_REGION,
    TAG_SCRAMBLE,
    KeySet,
    draw_orientations,
    draw_permutation,
    move_blocks,
    orient_blocks,
    plane_key,
    stream_bits,
)
from .errors import CapacityExceededError, SideInfoError
from .histshift import (
    HistPair,
    embed_bits,
    extract_bits,
    find_pp_zp,
    is_shifted,
    payload_bits,
    shift_histogram,
    unshift_histogram,
)
from .image_io import BlockGrid, Image, block_stack, split_blocks, stack_to_plane
from .ordering import INVERSE_ORIENTATION, OrderPlan, build_order_plan

SIDEINFO_MAGIC = b"ETRD"
SIDEINFO_VERSION = 1
_PREFIX = ">4sBBBHH"  # magic, version, mode, per-plane key flag, block side twice
_N_PAIRS_AT = struct.calcsize(_PREFIX)  # offset of the pair count


def _layout(n_pairs: int, n_lengths: int) -> struct.Struct:
    """The v1 side-info bytes before the CRC-32, in order: magic, version,
    mode, per-plane key flag, block side twice, pair count, (pp, zp) per
    pair, length count, and one 64-bit bit length each."""
    return struct.Struct(f"{_PREFIX}B{2 * n_pairs}BB{n_lengths}Q")


class Mode(enum.IntEnum):
    PLAIN_FIRST = 0
    ENCRYPT_FIRST = 1
    TWO_DOMAIN = 2


@dataclass(frozen=True)
class SideInfo:
    """Everything a receiver needs besides the keys.

    `bit_lengths` holds one entry per plane in single-payload modes; in
    two-domain mode it holds plane-major (region A, region B) pairs.
    """

    mode: Mode
    block: int
    pairs: tuple[HistPair, ...]
    bit_lengths: tuple[int, ...]
    per_plane_keys: bool = True

    def __post_init__(self):
        # Normalize every field to what `to_bytes` writes; refuse the rest.
        try:
            fields = (
                Mode(self.mode),
                operator.index(self.block),
                tuple(self.pairs),
                tuple(operator.index(length) for length in self.bit_lengths),
                bool(self.per_plane_keys),
            )
        except (TypeError, ValueError) as exc:
            raise SideInfoError(f"unwritable side info field: {exc}") from None
        for name, value in zip(("mode", "block", "pairs", "bit_lengths", "per_plane_keys"), fields):
            object.__setattr__(self, name, value)
        if not all(isinstance(pair, HistPair) for pair in self.pairs):
            raise SideInfoError("side info pairs must be HistPair instances")
        if self.block < 1:
            raise SideInfoError(f"block must be at least 1, got {self.block}")
        try:
            self._body()
        except struct.error as exc:
            raise SideInfoError(f"unwritable side info field: {exc}") from None
        expected = (
            2 * len(self.pairs) if self.mode == Mode.TWO_DOMAIN else len(self.pairs)
        )
        if len(self.bit_lengths) != expected:
            raise SideInfoError(
                f"expected {expected} bit lengths for mode {self.mode.name}, "
                f"got {len(self.bit_lengths)}"
            )

    def _body(self) -> bytes:
        pp_zp = [v for pair in self.pairs for v in (pair.pp, pair.zp)]
        return _layout(len(self.pairs), len(self.bit_lengths)).pack(
            SIDEINFO_MAGIC, SIDEINFO_VERSION, self.mode, self.per_plane_keys, self.block,
            self.block, len(self.pairs), *pp_zp, len(self.bit_lengths), *self.bit_lengths,
        )

    def to_bytes(self) -> bytes:
        body = self._body()
        return body + struct.pack(">I", zlib.crc32(body))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SideInfo":
        if len(data) < 4 or data[:4] != SIDEINFO_MAGIC:
            raise SideInfoError("bad side-info magic")
        if len(data) < 8:
            raise SideInfoError("side info truncated")
        crc_stored = struct.unpack(">I", data[-4:])[0]
        if zlib.crc32(data[:-4]) != crc_stored:
            raise SideInfoError("side info CRC mismatch")
        if data[4] != SIDEINFO_VERSION:  # the byte after the magic
            raise SideInfoError(f"unsupported side-info version {data[4]}")
        try:
            n_pairs = data[_N_PAIRS_AT]
            layout = _layout(n_pairs, data[_N_PAIRS_AT + 1 + 2 * n_pairs])
            _, _, mode_v, per_plane, bw, bh, _, *rest = layout.unpack_from(data)
            pp_zp = rest[: 2 * n_pairs]
            pairs = tuple(HistPair(pp=pp, zp=zp) for pp, zp in zip(pp_zp[::2], pp_zp[1::2]))
            mode = Mode(mode_v)
        except (IndexError, struct.error, ValueError) as exc:
            raise SideInfoError(f"malformed side info: {exc}") from None
        if layout.size > len(data) - 4:
            raise SideInfoError("side info truncated")
        if layout.size < len(data) - 4:
            raise SideInfoError("side info has trailing bytes")
        if per_plane not in (0, 1):
            raise SideInfoError(f"bad per-plane key flag {per_plane}")
        if bw != bh:
            raise SideInfoError("side info must describe square blocks")
        return cls(
            mode=mode,
            block=bw,
            pairs=pairs,
            bit_lengths=rest[2 * n_pairs + 1 :],
            per_plane_keys=bool(per_plane),
        )

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "SideInfo":
        return cls.from_bytes(Path(path).read_bytes())


def region_labels(k_region: bytes | None, grid: BlockGrid) -> np.ndarray:
    """Per-block region labels, one key bit per block in raster order:
    False is region A, True region B. Every two-domain path reads its key
    here, so a missing one raises the same error everywhere."""
    if k_region is None:
        raise SideInfoError("two-domain mode requires a region key")
    return stream_bits(k_region, TAG_REGION, grid.n_blocks).astype(bool)


def _scopes(mode: Mode, k_region: bytes | None, grid: BlockGrid) -> tuple[np.ndarray, list[bytes]]:
    """Per-block scope labels and each scope's key-tag suffix, in processing
    order: one whole-grid scope for single-domain modes; region A, then
    region B for two-domain hiding. Scope `j` owns the blocks labelled `j`."""
    if mode != Mode.TWO_DOMAIN:
        return np.zeros(grid.n_blocks, dtype=bool), [b""]
    return region_labels(k_region, grid), [b"/A", b"/B"]


def _cipher_masks(
    keys: KeySet, plans: list[OrderPlan], labels: np.ndarray, suffixes: list[bytes]
) -> list[tuple[list[int], np.ndarray, np.ndarray, tuple[bytes, bytes], tuple[bytes, bytes]]]:
    """One `(planes, rot mask, scr mask, orient draw, scramble draw)` entry
    per scope and key group, scope-major; each draw is the `(key, tag)` of
    its stream, so encryption and decryption read the same ones. With
    per-plane keys each plane is a group under its own subkey; with shared
    keys all planes form one group under the shared key and move the blocks
    that every plane allows."""
    n = len(plans)
    groups = [([i], i) for i in range(n)] if keys.per_plane else [(list(range(n)), None)]
    return [
        (
            planes,
            np.logical_and.reduce([plans[i].rot_eligible for i in planes]) & (labels == j),
            np.logical_and.reduce([plans[i].scr_eligible for i in planes]) & (labels == j),
            (plane_key(keys.k_orient, sub), TAG_ORIENT + suffix),
            (plane_key(keys.k_scramble, sub), TAG_SCRAMBLE + suffix),
        )
        for j, suffix in enumerate(suffixes)
        for planes, sub in groups
    ]


def _encrypt(stacks: list[np.ndarray], entries: list) -> None:
    """Rotate/flip, then scramble, each entry's blocks in every plane of its
    group, in place on the block stacks. Block indices are int32, which the
    draw caps at fewer than 2**31 items."""
    for planes, rot, scr, orient, scramble in entries:
        blocks = np.flatnonzero(rot).astype(np.int32)
        ids = draw_orientations(blocks.size, *orient)
        for i in planes:
            orient_blocks(stacks[i], blocks, ids)
        blocks = np.flatnonzero(scr).astype(np.int32)
        src = np.take(blocks, draw_permutation(blocks.size, *scramble))
        for i in planes:
            move_blocks(stacks[i], src, blocks)


def _decrypt(stacks: list[np.ndarray], entries: list) -> None:
    """Unscramble, then unrotate, each entry's blocks in every plane of its
    group, in place. The rotation mask describes the scrambled blocks, so it
    moves with them before the unrotation reads it."""
    for planes, rot, scr, orient, scramble in entries:
        blocks = np.flatnonzero(scr).astype(np.int32)
        dst = np.take(blocks, draw_permutation(blocks.size, *scramble))
        for i in planes:
            move_blocks(stacks[i], blocks, dst)
        np.put(rot, dst, np.take(rot, blocks))
        del blocks, dst  # before the orientation draw
        blocks = np.flatnonzero(rot).astype(np.int32)
        ids = draw_orientations(blocks.size, *orient)
        for i in planes:
            orient_blocks(stacks[i], blocks, INVERSE_ORIENTATION[ids])


def _chunk_payload(bits: np.ndarray, capacities: list[int], what: str) -> list[np.ndarray]:
    total = sum(capacities)
    if bits.size > total:
        raise CapacityExceededError(
            f"{what} of {bits.size} bits exceeds capacity of {total} bits"
        )
    return np.split(bits, np.cumsum(capacities)[:-1])


def _embed(
    mode: Mode, image: Image, payloads: tuple, keys: KeySet, block_size: int
) -> tuple[Image, SideInfo]:
    """Shift and plan every plane, write every scope's payload into its
    label's slice of the plan, then encrypt every scope.

    Encryption only moves block content and each slot moves with its block,
    so a scope written before the moves holds what an encrypted-first hider
    writes into the same content cells after them: the mode changes the side
    info, not the pixels.
    """
    grid = split_blocks(image.planes[0], block_size)
    labels, suffixes = _scopes(mode, keys.k_region, grid)
    payloads = [payload_bits(p) for p in payloads]
    pairs = [find_pp_zp(plane) for plane in image.planes]
    work = [block_stack(plane, grid) for plane in image.planes]
    for stack, pair in zip(work, pairs):
        shift_histogram(stack, pair)
    plans = [build_order_plan(stack, pair, labels) for stack, pair in zip(work, pairs)]
    # Scope-major slots; each plane's visit order is dropped once sliced.
    visits = (p.visit_order() for p in plans)
    slots = list(zip(*([s[lab == j] for j in range(len(suffixes))] for s, lab in visits)))
    entries = _cipher_masks(keys, plans, labels, suffixes)
    del plans  # the plans' arrays are not needed through the block moves
    # Every capacity is checked before any plane is written.
    chunks = [
        _chunk_payload(
            bits,
            [sl.size for sl in slots[j]],
            f"region {s[1:].decode()} payload" if s else "payload",
        )
        for j, (bits, s) in enumerate(zip(payloads, suffixes))
    ]

    for i, pair in enumerate(pairs):
        for j in range(len(suffixes)):
            embed_bits(work[i], pair, slots[j][i], chunks[j][i])
    _encrypt(work, entries)
    for i, stack in enumerate(work):
        work[i] = stack_to_plane(stack, grid)

    side = SideInfo(
        mode=mode,
        block=block_size,
        pairs=tuple(pairs),
        bit_lengths=tuple(c.size for plane_chunks in zip(*chunks) for c in plane_chunks),
        per_plane_keys=keys.per_plane,
    )
    return Image(tuple(work)), side


def embed_plain_then_encrypt(
    image: Image, payload, keys: KeySet, block_size: int
) -> tuple[Image, SideInfo]:
    """Shift, embed in the plain domain, then encrypt eligible blocks."""
    return _embed(Mode.PLAIN_FIRST, image, (payload,), keys, block_size)


def encrypt_then_embed(
    image: Image, payload, keys: KeySet, block_size: int
) -> tuple[Image, SideInfo]:
    """Shift, encrypt eligible blocks, then embed in the encrypted domain.

    Produces the same pixels as embed_plain_then_encrypt for equal inputs:
    the encrypted plane's slots are the intermediate plane's, moved along
    with their blocks, so the payload is written into them before the blocks
    move. Only the side info records the encrypted domain.
    """
    return _embed(Mode.ENCRYPT_FIRST, image, (payload,), keys, block_size)


def embed_two_domain(
    image: Image,
    payload_a,
    payload_b,
    keys: KeySet,
    block_size: int,
) -> tuple[Image, SideInfo]:
    """Embed payload A in the plain domain and payload B in the encrypted
    domain of region-wise encryption. Both are written before the blocks
    move, which gives the pixels of writing B after them (see
    `encrypt_then_embed`)."""
    return _embed(Mode.TWO_DOMAIN, image, (payload_a, payload_b), keys, block_size)


def _receive(
    image: Image, side: SideInfo, k_region: bytes | None, keys: KeySet | None, extract: bool
) -> tuple[list[np.ndarray], Image]:
    """The receiver pass: each scope's bits when `extract` is set, and the
    image, unshifted when `extract` is set and decrypted when `keys` are
    given. Scopes are disjoint and each one's plan depends only on its own
    blocks, so one plan per plane serves every scope and the cipher."""
    if len(side.pairs) != len(image.planes):
        raise SideInfoError(
            f"side info describes {len(side.pairs)} planes, image has {len(image.planes)}"
        )
    grid = split_blocks(image.planes[0], side.block)
    if keys is not None and side.per_plane_keys != keys.per_plane:
        raise SideInfoError("per-plane key flag does not match side info")
    labels, suffixes = _scopes(side.mode, k_region, grid)
    work = [block_stack(plane, grid) for plane in image.planes]
    shifted = [is_shifted(stack, pair) for stack, pair in zip(work, side.pairs)]
    if extract and not all(shifted):
        raise SideInfoError(
            "image histogram is not in the shifted state; was the payload already extracted?"
        )
    # Extraction drops each plane's plan once it has read it; decryption
    # keeps every plan for the cipher masks.
    plans, bits = [], [[] for _ in suffixes]
    for i, (stack, pair, state) in enumerate(zip(work, side.pairs, shifted)):
        plan = build_order_plan(stack, pair, labels, shifted_state=state)
        if extract:
            visit, visit_labels = plan.visit_order()
            for j, scope_bits in enumerate(bits):
                length = side.bit_lengths[len(suffixes) * i + j]
                slots = visit[visit_labels == j]
                if length > slots.size:
                    raise SideInfoError(
                        f"side info declares {length} bits but only {slots.size} slots exist"
                    )
                scope_bits.append(extract_bits(stack, pair, slots[:length]))
            del visit, visit_labels  # before the next plane's plan
            unshift_histogram(stack, pair)
        if keys is not None:
            plans.append(plan)
        del plan
    entries = [] if keys is None else _cipher_masks(keys, plans, labels, suffixes)
    del plans  # the plans' arrays are not needed through the block moves
    _decrypt(work, entries)
    for i, stack in enumerate(work):
        work[i] = stack_to_plane(stack, grid)
    return [np.concatenate(b) for b in bits] if extract else [], Image(tuple(work))


def extract_payload(image: Image, side: SideInfo) -> tuple[np.ndarray, Image]:
    """Recover the payload and the payload-free image, keys not required.

    Works identically on encrypted and decrypted inputs. The returned image
    has its histogram un-shifted: decrypting it (or having decrypted it
    beforehand) yields the exact original.
    """
    if side.mode == Mode.TWO_DOMAIN:
        raise SideInfoError("two-domain side info requires extract_two_domain")
    (bits,), planes = _receive(image, side, None, None, extract=True)
    return bits, planes


def extract_two_domain(
    image: Image, side: SideInfo, k_region: bytes
) -> tuple[np.ndarray, np.ndarray, Image]:
    """Recover both region payloads and the payload-free image."""
    if side.mode != Mode.TWO_DOMAIN:
        raise SideInfoError("side info does not describe two-domain hiding")
    (bits_a, bits_b), planes = _receive(image, side, k_region, None, extract=True)
    return bits_a, bits_b, planes


def decrypt(image: Image, side: SideInfo, keys: KeySet) -> Image:
    """Invert scrambling, then rotation/flip, deriving eligibility from one
    plan of the received pixels per plane.

    Commutes with extraction: applied before extraction it yields the marked
    plain image; applied after it yields the exact original.
    """
    return _receive(image, side, keys.k_region, keys, extract=False)[1]
