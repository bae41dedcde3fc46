"""Content-derived data-hiding order and encryption eligibility.

Embedding visits payload slots block by block, on a plane's `(n_blocks, b,
b)` block stack. Both the within-block scan and the among-block sequence
must be recoverable from pixel content alone after blocks are relocated,
rotated or flipped. Both come from the slots' (block, cell) coordinates:

* Within a block, the slots are scanned under the dihedral orientation
  (one of 8: four rotations, each optionally mirrored) whose raster-index
  signature is lexicographically smallest. Packed most-significant-bit
  first, that orientation's mask is the largest, so `canonical_keys` keeps
  it as the block's canonical key: an orientation invariant. When a single
  orientation attains it, the visiting order is invariant too. Blocks
  where several orientations tie are "ambiguous": they are scanned as-is
  and must never be rotated or flipped. Keys wider than one 64-bit word
  (blocks larger than 8) are decided from each block's first slot where
  they can be: the orientation that alone puts some slot at the block's
  smallest reachable scan position has the largest mask. Only blocks that
  several orientations reach there compare all 8 packed masks.

* Among blocks, marked blocks are sorted by (scope label, slot count
  descending, shifted-band count ascending, canonical signature ascending):
  for equal slot counts a smaller signature is a larger key, so one
  `np.lexsort` orders them. Blocks whose key collides with another block's
  of the same label fall back to block-index order and must never be
  relocated; any other block's key, not its position, fixes its place.
  Each label's slice of the plan is the plan of that label's blocks alone.

Blocks without slots carry no ordering constraints and are always eligible
for both encryption steps. The plan (`OrderPlan`) is the slots in visiting
order, their labels and the two eligibility masks; the block order is the
order of the slots' blocks. The inverse of each orientation id is
`cipher.INVERSE_ORIENTATION`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError
from .histshift import HistPair, marked_mask

N_ORIENTATIONS = 8


def apply_orientation(mat: np.ndarray, orientation: int) -> np.ndarray:
    """Transform the last two axes by orientation id: rot90 CCW `id & 3`
    times, then mirror left-right when `id >= 4`. A 2-D block and a
    `(k, b, b)` stack of blocks both work; the result is a strided view."""
    if not 0 <= orientation < N_ORIENTATIONS:
        raise ValueError(f"orientation id must be in [0, 8), got {orientation}")
    out = np.rot90(mat, orientation & 3, axes=(-2, -1))
    return out[..., ::-1] if orientation & 4 else out


# Index of the lowest set bit of a nonzero byte: an orientation bit's id.
_LOW_BIT = np.array([(v & -v).bit_length() - 1 for v in range(256)], dtype=np.intp)


@lru_cache(maxsize=16)
def _scan_tables(block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell tables of one block size: `scan[o, c]` is cell c's position
    under orientation o, `lowest[c]` its smallest position under any
    orientation and `reach[c]` the bit set (bit o for orientation o) of the
    orientations that put it there."""
    # Row o of `source` is the cell at each scan position under orientation o.
    cells = np.arange(block * block).reshape(block, block)
    source = np.stack([apply_orientation(cells, o).ravel() for o in range(N_ORIENTATIONS)])
    scan = np.argsort(source, axis=1)
    lowest = scan.min(axis=0)
    bit = np.left_shift(1, np.arange(N_ORIENTATIONS))[:, None]
    reach = np.where(scan == lowest, bit, 0).sum(axis=0).astype(np.uint8)
    for table in (scan, lowest, reach):
        table.flags.writeable = False
    return scan, lowest, reach


def canonical_keys(row: np.ndarray, cell: np.ndarray, counts: np.ndarray, cells: int):
    """Canonical orientation of the blocks of `cells` cells whose marked cells
    are `(row[k], cell[k])`, rows ascending (`np.nonzero` of an `(n, cells)`
    bool stack, or the plan's block-major slots), where block i has
    `counts[i]` of them.

    Returns `(orientation, ambiguous, key)`. `key[i]` is block i's mask under
    its canonical orientation, packed into big-endian 64-bit words (word j
    holds cells 64j..64j+63, the earliest cell in the most significant bit,
    zero-padded). The canonical orientation is the one whose packed mask is
    largest; `ambiguous[i]` is True when several orientations attain it, and
    `orientation[i]` is then 0. Raises GeometryError when `cells` is not a
    square and ValueError when a count is 0 (skip slotless blocks).

    Keys wider than one word first take the first-slot round: a block's
    earliest possible bit is the smallest `lowest` over its cells, and when
    a single orientation sets it, that orientation's mask is the strict
    maximum. Only the blocks that several orientations tie on go through
    the 8-orientation comparison.
    """
    side = math.isqrt(cells)
    if side * side != cells:
        raise GeometryError("mask blocks are not square")
    if not counts.all():
        raise ValueError("mask block has no marked cells")
    n = counts.size
    scan, lowest, reach = _scan_tables(side)
    scan = scan.astype(row.dtype, copy=False)
    if cells <= 64:
        return _canonical(row, cell, n, scan)
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    # At the coordinates' dtype, as `scan`; `take` gathers faster than indexing.
    low = np.take(lowest.astype(row.dtype, copy=False), cell)
    first = np.minimum.reduceat(low, starts)
    hits = np.where(low == np.repeat(first, counts), np.take(reach, cell), np.uint8(0))
    cand = np.bitwise_or.reduceat(hits, starts)
    single = (cand & (cand - 1)) == 0
    del low, hits

    # One scatter and one pack for all blocks: the keys of those the first
    # slot settles are final, the others are replaced below.
    orientation = np.where(single, _LOW_BIT[cand], 0)
    # Each block's bits are padded to whole bytes, so one flat pack packs
    # every row.
    row_bytes = -(-cells // 8)
    pos = np.take(scan, np.repeat(orientation.astype(row.dtype) * cells, counts) + cell)
    pos += row * (8 * row_bytes)
    bits = np.zeros(n * 8 * row_bytes, dtype=bool)
    bits[pos] = True
    del pos
    n_words = -(-cells // 64)
    packed = np.zeros((n, 8 * n_words), dtype=np.uint8)
    packed[:, :row_bytes] = np.packbits(bits).reshape(n, row_bytes)
    del bits
    key = packed.view(">u8").astype(np.uint64)
    ambiguous = np.zeros(n, dtype=bool)
    rest = ~single
    if rest.any():
        kept = counts[rest]
        sub_row = np.repeat(np.arange(kept.size, dtype=row.dtype), kept)
        sub = _canonical(sub_row, cell[np.repeat(rest, counts)], kept.size, scan)
        orientation[rest], ambiguous[rest], key[rest] = sub
    return orientation, ambiguous, key


def _canonical(row: np.ndarray, cell: np.ndarray, n: int, scan: np.ndarray):
    """`canonical_keys` of n blocks whose marked cells are `(row[k], cell[k])`,
    with `scan[o, c]` the position of cell c under orientation o, by comparing
    all 8 orientations. Each orientation sets its positions in one zeroed bit
    per cell, each block's bits padded to whole bytes, packs them flat and
    clears them."""
    cells = scan.shape[1]
    n_words = -(-cells // 64)
    row_bytes = -(-cells // 8)
    pos = np.take(scan, cell, axis=1)
    pos += row * (8 * row_bytes)
    packed = np.zeros((n, N_ORIENTATIONS, 8 * n_words), dtype=np.uint8)
    bits = np.zeros(n * 8 * row_bytes, dtype=bool)
    for o in range(N_ORIENTATIONS):
        bits[pos[o]] = True
        packed[:, o, :row_bytes] = np.packbits(bits).reshape(n, row_bytes)
        bits.fill(False)
    del pos, bits  # the word loop's temporaries would otherwise stack on them
    words = packed.view(">u8")  # (n, 8, n_words)

    # Lexicographic maximum over orientations, one word at a time: `cand`
    # keeps the orientations that still match the best prefix.
    cand = np.ones((n, N_ORIENTATIONS), dtype=bool)
    key = np.empty((n, n_words), dtype=np.uint64)
    for j in range(n_words):
        w = words[:, :, j]
        best = np.where(cand, w, 0).max(axis=1, initial=0)
        cand &= w == best[:, None]
        key[:, j] = best
    ambiguous = cand.sum(axis=1) > 1
    orientation = np.where(ambiguous, 0, cand.argmax(axis=1))
    return orientation, ambiguous, key


@dataclass(frozen=True)
class OrderPlan:
    """Complete embedding order and encryption eligibility for one plane.

    `slots` holds the slots of the marked (slot-carrying) blocks in
    embedding order, label by label and block by block: each block's slots
    form one run, so `slots // (b * b)` reads the block order. `slot_labels`
    holds each slot's scope label, so scope `j` embeds into
    `slots[slot_labels == j]`. `rot_eligible` and `scr_eligible` are boolean
    masks with one entry per block: entry `a` is True when block `a` may be
    rotated/flipped, or may be scrambled (it may not when its sort key ties
    within its label). Scope `j`'s are `mask & (labels == j)`.
    """

    rot_eligible: np.ndarray  # bool per block index
    scr_eligible: np.ndarray  # bool per block index
    slots: np.ndarray  # stack-flat indices block * b * b + cell, embedding order
    slot_labels: np.ndarray  # scope label per slot


def build_order_plan(
    stack: np.ndarray,
    pair: HistPair,
    labels: np.ndarray | None = None,
    shifted_state: bool = True,
) -> OrderPlan:
    """Derive the full plan from the `(n_blocks, b, b)` block stack of an
    intermediate or marked plane, from its slots' (block, cell) coordinates.
    `labels` gives every block a scope label (all zero by default). Ordering
    and sort-key ties never cross labels, so each label's slice of the plan
    is the plan of that label's blocks alone.

    With `shifted_state=False` the stack is a payload-free unshifted plane:
    its slots are the pp cells and its band is `pair.moved`, which the
    shift maps onto `pair.band`, so the plan is the plan of its shift.
    """
    n_blocks, b, _ = stack.shape
    cells = b * b
    labels = np.zeros(n_blocks, np.intp) if labels is None else np.asarray(labels)
    if labels.shape != (n_blocks,):
        raise ValueError(f"labels must hold one entry per block ({n_blocks})")

    # int32 coordinates, where they fit, halve the plan's largest arrays.
    coord = np.int32 if n_blocks * cells < 2**31 else np.intp
    flat = stack.reshape(n_blocks, cells)
    slots = np.flatnonzero(marked_mask(flat, pair) if shifted_state else flat == pair.pp)
    slots = slots.astype(coord)
    row, cell = np.divmod(slots, cells)
    counts = np.bincount(row, minlength=n_blocks)
    marked = np.flatnonzero(counts)
    n_slots = counts[marked]
    # Slots come in block order: `row` becomes each slot's marked-block row.
    row = np.repeat(np.arange(marked.size, dtype=coord), n_slots)
    # Unsigned wrap-around maps the band [lo, hi] onto [0, hi - lo] (an empty
    # one, lo = hi + 1, onto -1), so one compare in one temporary finds it.
    lo, hi = pair.band if shifted_state else pair.moved
    in_band = flat[marked] - np.uint8(lo & 0xFF)
    shifted = np.less_equal(in_band, hi - lo, out=in_band.view(np.bool_)).sum(axis=1)
    del in_band

    orientation, ambiguous, key = canonical_keys(row, cell, n_slots, cells)
    # Sort by (label, slot count desc, shifted asc, signature asc); the sort
    # is stable and `marked` ascends, so ties keep block-index order. With
    # equal slot counts the smaller signature is the larger packed key.
    order = np.lexsort((*(~key[:, ::-1]).T, shifted, -n_slots, labels[marked]))
    blocks = marked[order]
    key, shifted, block_labels = key[order], shifted[order], labels[blocks]

    # Equal sort keys sit in adjacent rows. Equal canonical masks imply
    # equal slot counts, so the labels, key words and shifted counts suffice.
    same = (key[1:] == key[:-1]).all(axis=1) & (shifted[1:] == shifted[:-1])
    same &= block_labels[1:] == block_labels[:-1]
    scr_eligible = np.ones(n_blocks, dtype=bool)
    scr_eligible[blocks[1:][same]] = scr_eligible[blocks[:-1][same]] = False
    rot_eligible = np.ones(n_blocks, dtype=bool)
    rot_eligible[marked[ambiguous]] = False

    # Visit blocks in plan order, each block's slots in its canonical scan
    # order (raster order for ambiguous blocks, whose orientation reads 0).
    scan = _scan_tables(b)[0].astype(coord, copy=False)
    rank = np.empty(marked.size, dtype=coord)
    rank[order] = np.arange(marked.size, dtype=coord)
    visit = np.take(scan, np.repeat(orientation.astype(coord) * cells, n_slots) + cell)
    visit += np.repeat(rank * cells, n_slots)
    slots = slots[np.argsort(visit)]

    return OrderPlan(rot_eligible, scr_eligible, slots, labels[slots // cells])
