"""End-to-end flows: embed, encrypt, extract, decrypt, in any order.

Embedding and encryption commute because the slot order is derived from
pixel content that neither operation disturbs. Consequently a payload can be
written before or after encryption and read before or after decryption; the
receiver only needs the side information (pp/zp per plane, payload bit
lengths, geometry) to extract, and only needs the keys to decrypt.

Color payloads are consumed plane by plane in R, G, B order, each plane
taking up to its own capacity. In two-domain mode every block is assigned to
region A (embed, then encrypt) or region B (encrypt, then embed) by one fair
key bit per block, and all ordering, eligibility, and scrambling stay inside
the owning region.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cipher import (
    TAG_ORIENT,
    TAG_REGION,
    TAG_SCRAMBLE,
    KeyedBitStream,
    KeySet,
    plane_key,
    rotate_flip_blocks,
    scramble_blocks,
    unrotate_blocks,
    unscramble_blocks,
)
from .errors import CapacityExceededError, GeometryError, SideInfoError
from .histshift import (
    HistPair,
    embed_bits,
    extract_bits,
    find_pp_zp,
    shift_histogram,
    unshift_histogram,
)
from .image_io import BlockGrid, Image, split_blocks
from .ordering import OrderPlan, build_order_plan

SIDEINFO_MAGIC = b"ETRD"
SIDEINFO_VERSION = 1


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
    block_w: int
    block_h: int
    pairs: tuple[HistPair, ...]
    bit_lengths: tuple[int, ...]
    per_plane_keys: bool = True
    version: int = SIDEINFO_VERSION

    def __post_init__(self):
        expected = (
            2 * len(self.pairs) if self.mode == Mode.TWO_DOMAIN else len(self.pairs)
        )
        if len(self.bit_lengths) != expected:
            raise SideInfoError(
                f"expected {expected} bit lengths for mode {self.mode.name}, "
                f"got {len(self.bit_lengths)}"
            )

    def length_for(self, plane: int, region: str | None = None) -> int:
        if self.mode == Mode.TWO_DOMAIN:
            if region not in ("A", "B"):
                raise ValueError("two-domain lengths need region 'A' or 'B'")
            return self.bit_lengths[2 * plane + (0 if region == "A" else 1)]
        if region is not None:
            raise ValueError("single-domain side info has no regions")
        return self.bit_lengths[plane]

    @property
    def total_bits(self) -> int:
        return sum(self.bit_lengths)

    def to_bytes(self) -> bytes:
        body = bytearray()
        body += SIDEINFO_MAGIC
        body += struct.pack(
            ">BBBHHB",
            self.version,
            int(self.mode),
            1 if self.per_plane_keys else 0,
            self.block_w,
            self.block_h,
            len(self.pairs),
        )
        for pair in self.pairs:
            body += struct.pack(">BB", pair.pp, pair.zp)
        body += struct.pack(">B", len(self.bit_lengths))
        for length in self.bit_lengths:
            body += struct.pack(">Q", length)
        body += struct.pack(">I", zlib.crc32(bytes(body)))
        return bytes(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SideInfo":
        if len(data) < 4 or data[:4] != SIDEINFO_MAGIC:
            raise SideInfoError("bad side-info magic")
        if len(data) < 8:
            raise SideInfoError("side info truncated")
        crc_stored = struct.unpack(">I", data[-4:])[0]
        if zlib.crc32(data[:-4]) != crc_stored:
            raise SideInfoError("side info CRC mismatch")
        try:
            version, mode_v, per_plane, bw, bh, n_pairs = struct.unpack_from(
                ">BBBHHB", data, 4
            )
            pos = 4 + struct.calcsize(">BBBHHB")
            pairs = []
            for _ in range(n_pairs):
                pp, zp = struct.unpack_from(">BB", data, pos)
                pos += 2
                pairs.append(HistPair(pp=pp, zp=zp))
            (n_lengths,) = struct.unpack_from(">B", data, pos)
            pos += 1
            lengths = struct.unpack_from(f">{n_lengths}Q", data, pos)
            pos += 8 * n_lengths
        except (struct.error, ValueError) as exc:
            raise SideInfoError(f"malformed side info: {exc}") from None
        if version != SIDEINFO_VERSION:
            raise SideInfoError(f"unsupported side-info version {version}")
        if pos != len(data) - 4:
            raise SideInfoError("side info has trailing bytes")
        try:
            mode = Mode(mode_v)
        except ValueError:
            raise SideInfoError(f"unknown mode {mode_v}") from None
        return cls(
            mode=mode,
            block_w=bw,
            block_h=bh,
            pairs=tuple(pairs),
            bit_lengths=tuple(int(v) for v in lengths),
            per_plane_keys=bool(per_plane),
            version=version,
        )

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "SideInfo":
        return cls.from_bytes(Path(path).read_bytes())


@dataclass(frozen=True)
class RegionMap:
    """Per-block region labels, regenerated from the region key."""

    labels: np.ndarray  # bool per block index; False -> A, True -> B

    @classmethod
    def derive(cls, k_region: bytes, grid: BlockGrid) -> "RegionMap":
        stream = KeyedBitStream(k_region, TAG_REGION)
        return cls(labels=stream.bits(grid.n_blocks).astype(bool))

    def blocks(self, region: str) -> np.ndarray:
        if region == "A":
            return np.flatnonzero(~self.labels)
        if region == "B":
            return np.flatnonzero(self.labels)
        raise ValueError("region must be 'A' or 'B'")


def _check_geometry(image: Image, block_size: int) -> BlockGrid:
    if block_size <= 0:
        raise GeometryError("block size must be positive")
    grid = split_blocks(image.planes[0], block_size, block_size)
    return grid


def _as_bits(payload) -> np.ndarray:
    bits = np.asarray(payload, dtype=np.uint8).ravel()
    if bits.size and bits.max() > 1:
        raise ValueError("payload bits must be 0 or 1")
    return bits


def _subkeys(keys: KeySet, plane: int) -> tuple[bytes, bytes]:
    idx = plane if keys.per_plane else None
    return plane_key(keys.k_scramble, idx), plane_key(keys.k_orient, idx)


def _key_masks(keys: KeySet, masks: list[np.ndarray]) -> list[np.ndarray]:
    """One eligibility mask per plane. With shared keys every plane moves the
    same blocks, so each plane gets the blocks that all planes allow."""
    if keys.per_plane:
        return list(masks)
    return [np.logical_and.reduce(masks)] * len(masks)


def _region_tags(suffix: bytes) -> tuple[bytes, bytes]:
    return TAG_SCRAMBLE + suffix, TAG_ORIENT + suffix


def _encrypt_planes(
    planes: list[np.ndarray],
    grid: BlockGrid,
    plans: list[OrderPlan],
    keys: KeySet,
    suffix: bytes = b"",
) -> list[np.ndarray]:
    """Rotate/flip then scramble each plane's eligible blocks."""
    scr_tag, rot_tag = _region_tags(suffix)
    rot_masks = _key_masks(keys, [p.rot_eligible for p in plans])
    scr_masks = _key_masks(keys, [p.scr_eligible for p in plans])
    out = []
    for i, plane in enumerate(planes):
        k1, k2 = _subkeys(keys, i)
        enc = rotate_flip_blocks(plane, grid, rot_masks[i], k2, tag=rot_tag)
        enc = scramble_blocks(enc, grid, scr_masks[i], k1, tag=scr_tag)
        out.append(enc)
    return out


def _plane_is_unshifted(plane: np.ndarray, pair: HistPair) -> bool:
    # Reliable state probe: the nearest-empty-bin rule guarantees the bin
    # adjacent to zp (toward pp) is occupied in the original image, so every
    # shifted plane has a non-empty zp bin, while an un-shifted plane has an
    # empty one by construction. For the degenerate adjacent pair both
    # interpretations coincide.
    return not (plane == pair.zp).any()


def _plan_for_state(
    plane: np.ndarray,
    pair: HistPair,
    grid: BlockGrid,
    block_indices: np.ndarray | None = None,
) -> OrderPlan:
    """Order plan matching the embed-time plan, whether or not the plane has
    already been un-shifted."""
    work = shift_histogram(plane, pair) if _plane_is_unshifted(plane, pair) else plane
    return build_order_plan(work, pair, grid, block_indices)


def _shift_and_plan(
    image: Image, grid: BlockGrid, *scopes: np.ndarray | None
) -> tuple[list[HistPair], list[np.ndarray], list[list[OrderPlan]]]:
    """Pick each plane's pair, shift its histogram, and build one order plan
    per scope on every shifted plane: (pairs, shifted planes, plans per
    scope)."""
    pairs = [find_pp_zp(plane) for plane in image.planes]
    inters = [shift_histogram(p, pair) for p, pair in zip(image.planes, pairs)]
    plans = [
        [build_order_plan(inter, pair, grid, scope) for inter, pair in zip(inters, pairs)]
        for scope in scopes
    ]
    return pairs, inters, plans


def _result(
    mode: Mode,
    planes: list[np.ndarray],
    pairs: list[HistPair],
    lengths: list[int],
    keys: KeySet,
    block_size: int,
) -> tuple[Image, SideInfo]:
    """The marked image and the side info that describes it."""
    side = SideInfo(
        mode=mode,
        block_w=block_size,
        block_h=block_size,
        pairs=tuple(pairs),
        bit_lengths=tuple(lengths),
        per_plane_keys=keys.per_plane,
    )
    return Image(tuple(planes)), side


def _chunk_payload(bits: np.ndarray, capacities: list[int], what: str) -> list[np.ndarray]:
    total = sum(capacities)
    if bits.size > total:
        raise CapacityExceededError(
            f"{what} of {bits.size} bits exceeds capacity of {total} bits"
        )
    chunks = []
    offset = 0
    for cap in capacities:
        take = min(cap, bits.size - offset)
        chunks.append(bits[offset : offset + take])
        offset += take
    return chunks


def embed_plain_then_encrypt(
    image: Image, payload, keys: KeySet, block_size: int
) -> tuple[Image, SideInfo]:
    """Shift, embed in the plain domain, then encrypt eligible blocks."""
    grid = _check_geometry(image, block_size)
    bits = _as_bits(payload)
    pairs, inters, (plans,) = _shift_and_plan(image, grid, None)

    chunks = _chunk_payload(bits, [p.slots.size for p in plans], "payload")
    slots = [p.slots for p in plans]
    marked = [embed_bits(*args) for args in zip(inters, pairs, slots, chunks)]
    encrypted = _encrypt_planes(marked, grid, plans, keys)
    lengths = [c.size for c in chunks]
    return _result(Mode.PLAIN_FIRST, encrypted, pairs, lengths, keys, block_size)


def encrypt_then_embed(
    image: Image, payload, keys: KeySet, block_size: int
) -> tuple[Image, SideInfo]:
    """Shift, encrypt eligible blocks, then embed in the encrypted domain.

    Produces the same pixels as embed_plain_then_encrypt for equal inputs:
    the slot order is recomputed on the encrypted plane and lands on the
    same content cells.
    """
    grid = _check_geometry(image, block_size)
    bits = _as_bits(payload)
    pairs, inters, (plans,) = _shift_and_plan(image, grid, None)

    chunks = _chunk_payload(bits, [p.slots.size for p in plans], "payload")
    encrypted = _encrypt_planes(inters, grid, plans, keys)
    slots = [build_order_plan(p, pair, grid).slots for p, pair in zip(encrypted, pairs)]
    marked = [embed_bits(*args) for args in zip(encrypted, pairs, slots, chunks)]
    lengths = [c.size for c in chunks]
    return _result(Mode.ENCRYPT_FIRST, marked, pairs, lengths, keys, block_size)


def embed_two_domain(
    image: Image,
    payload_a,
    payload_b,
    keys: KeySet,
    block_size: int,
) -> tuple[Image, SideInfo]:
    """Embed payload A before and payload B after region-wise encryption."""
    if keys.k_region is None:
        raise SideInfoError("two-domain mode requires a region key")
    grid = _check_geometry(image, block_size)
    bits_a = _as_bits(payload_a)
    bits_b = _as_bits(payload_b)
    regions = RegionMap.derive(keys.k_region, grid)
    idx_a, idx_b = regions.blocks("A"), regions.blocks("B")
    pairs, inters, (plans_a, plans_b) = _shift_and_plan(image, grid, idx_a, idx_b)

    chunks_a = _chunk_payload(bits_a, [p.slots.size for p in plans_a], "region A payload")
    chunks_b = _chunk_payload(bits_b, [p.slots.size for p in plans_b], "region B payload")

    # Region A: embed in the plain domain, then encrypt region A.
    slots = [p.slots for p in plans_a]
    work = [embed_bits(*args) for args in zip(inters, pairs, slots, chunks_a)]
    work = _encrypt_planes(work, grid, plans_a, keys, suffix=b"/A")

    # Region B: encrypt region B, then embed into the encrypted blocks.
    work = _encrypt_planes(work, grid, plans_b, keys, suffix=b"/B")
    slots = [build_order_plan(p, pair, grid, idx_b).slots for p, pair in zip(work, pairs)]
    out = [embed_bits(*args) for args in zip(work, pairs, slots, chunks_b)]
    lengths = [c.size for ab in zip(chunks_a, chunks_b) for c in ab]
    return _result(Mode.TWO_DOMAIN, out, pairs, lengths, keys, block_size)


def _validate_side(image: Image, side: SideInfo) -> BlockGrid:
    if len(side.pairs) != len(image.planes):
        raise SideInfoError(
            f"side info describes {len(side.pairs)} planes, image has {len(image.planes)}"
        )
    if side.block_w != side.block_h:
        raise SideInfoError("side info must describe square blocks")
    return _check_geometry(image, side.block_w)


def _extract_plane(
    plane: np.ndarray,
    pair: HistPair,
    grid: BlockGrid,
    length: int,
    block_indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Read `length` bits from one plane (optionally one region) and restore
    the slots; the caller un-shifts afterwards."""
    if _plane_is_unshifted(plane, pair) and pair.zp != pair.marked_value:
        raise SideInfoError(
            "image histogram is not in the shifted state; "
            "was the payload already extracted?"
        )
    plan = build_order_plan(plane, pair, grid, block_indices)
    if length > plan.slots.size:
        raise SideInfoError(
            f"side info declares {length} bits but only "
            f"{plan.slots.size} slots exist"
        )
    return extract_bits(plane, pair, plan.slots[:length])


def extract_payload(image: Image, side: SideInfo) -> tuple[np.ndarray, Image]:
    """Recover the payload and the payload-free image, keys not required.

    Works identically on encrypted and decrypted inputs. The returned image
    has its histogram un-shifted: decrypting it (or having decrypted it
    beforehand) yields the exact original.
    """
    if side.mode == Mode.TWO_DOMAIN:
        raise SideInfoError("two-domain side info requires extract_two_domain")
    grid = _validate_side(image, side)
    all_bits = []
    planes_out = []
    for i, plane in enumerate(image.planes):
        pair = side.pairs[i]
        bits, restored = _extract_plane(plane, pair, grid, side.length_for(i))
        all_bits.append(bits)
        planes_out.append(unshift_histogram(restored, pair))
    payload = np.concatenate(all_bits) if all_bits else np.empty(0, dtype=np.uint8)
    return payload, Image(tuple(planes_out))


def extract_two_domain(
    image: Image, side: SideInfo, k_region: bytes
) -> tuple[np.ndarray, np.ndarray, Image]:
    """Recover both region payloads and the payload-free image."""
    if side.mode != Mode.TWO_DOMAIN:
        raise SideInfoError("side info does not describe two-domain hiding")
    grid = _validate_side(image, side)
    regions = RegionMap.derive(k_region, grid)
    idx_a, idx_b = regions.blocks("A"), regions.blocks("B")
    bits_a, bits_b, planes_out = [], [], []
    for i, plane in enumerate(image.planes):
        pair = side.pairs[i]
        ba, restored = _extract_plane(
            plane, pair, grid, side.length_for(i, "A"), idx_a
        )
        bb, restored = _extract_plane(
            restored, pair, grid, side.length_for(i, "B"), idx_b
        )
        bits_a.append(ba)
        bits_b.append(bb)
        planes_out.append(unshift_histogram(restored, pair))
    return (
        np.concatenate(bits_a),
        np.concatenate(bits_b),
        Image(tuple(planes_out)),
    )


def decrypt(image: Image, side: SideInfo, keys: KeySet) -> Image:
    """Invert scrambling, then rotation/flip, recomputing eligibility from
    the received pixels.

    Commutes with extraction: applied before extraction it yields the marked
    plain image; applied after it yields the exact original.
    """
    grid = _validate_side(image, side)
    if side.per_plane_keys != keys.per_plane:
        raise SideInfoError("per-plane key flag does not match side info")
    if side.mode == Mode.TWO_DOMAIN:
        if keys.k_region is None:
            raise SideInfoError("two-domain decryption requires a region key")
        regions = RegionMap.derive(keys.k_region, grid)
        scopes = [(regions.blocks("A"), b"/A"), (regions.blocks("B"), b"/B")]
    else:
        scopes = [(None, b"")]

    work = list(image.planes)
    subkeys = [_subkeys(keys, i) for i in range(len(work))]

    # Regions are disjoint, so each scope is fully decrypted in turn. The
    # rotation set travels with block content, so it is only recomputable
    # once the scope is unscrambled. Planes are replaced one at a time to
    # keep a single extra plane alive.
    for subset, suffix in scopes:
        scr_tag, rot_tag = _region_tags(suffix)
        plans = [_plan_for_state(p, pair, grid, subset) for p, pair in zip(work, side.pairs)]
        masks = _key_masks(keys, [p.scr_eligible for p in plans])
        for i, (k1, _) in enumerate(subkeys):
            work[i] = unscramble_blocks(work[i], grid, masks[i], k1, tag=scr_tag)
        plans = [_plan_for_state(p, pair, grid, subset) for p, pair in zip(work, side.pairs)]
        masks = _key_masks(keys, [p.rot_eligible for p in plans])
        for i, (_, k2) in enumerate(subkeys):
            work[i] = unrotate_blocks(work[i], grid, masks[i], k2, tag=rot_tag)

    return Image(tuple(work))
