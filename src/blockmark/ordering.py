"""Content-derived data-hiding order and encryption eligibility.

Embedding visits payload slots block by block. Both the within-block scan
and the among-block sequence must be recoverable from pixel content alone,
after blocks have been relocated, rotated, or flipped. Two devices make
that possible:

* Within a block, the slot mask is scanned under the dihedral orientation
  (one of 8: four rotations, each optionally mirrored) whose raster-index
  signature is lexicographically smallest. The minimal signature is a block
  invariant; when a single orientation attains it, the visiting order is
  invariant too. Blocks where several orientations tie are "ambiguous":
  they are scanned as-is and must never be rotated or flipped.

* Among blocks, marked blocks are sorted by (slot count descending,
  shifted-band count ascending, canonical signature ascending). Blocks whose
  key collides with another block fall back to block-index order and must
  never be relocated; everything else may move freely because its key, not
  its position, fixes its place in the sequence.

Blocks without slots carry no ordering constraints and are always eligible
for both encryption steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError
from .histshift import HistPair, marked_mask
from .image_io import BlockGrid, block_stack

N_ORIENTATIONS = 8


def apply_orientation(mat: np.ndarray, orientation: int) -> np.ndarray:
    """Transform a 2-D array by orientation id: rot90 CCW `id & 3` times,
    then mirror left-right when `id >= 4`."""
    if not 0 <= orientation < N_ORIENTATIONS:
        raise ValueError(f"orientation id must be in [0, 8), got {orientation}")
    out = np.rot90(mat, orientation & 3)
    if orientation & 4:
        out = np.fliplr(out)
    return np.ascontiguousarray(out)


def invert_orientation(orientation: int) -> int:
    """Inverse element: mirrored orientations are involutions."""
    if not 0 <= orientation < N_ORIENTATIONS:
        raise ValueError(f"orientation id must be in [0, 8), got {orientation}")
    if orientation & 4:
        return orientation
    return (4 - orientation) % 4


@lru_cache(maxsize=16)
def orientation_permutations(block_h: int, block_w: int) -> np.ndarray:
    """(8, block_h*block_w) table: row o holds, per transformed scan position,
    the flat index of the source cell."""
    if block_h != block_w:
        raise GeometryError("orientations require square blocks")
    idx = np.arange(block_h * block_w).reshape(block_h, block_w)
    return np.stack(
        [apply_orientation(idx, o).ravel() for o in range(N_ORIENTATIONS)]
    )


def pp_signature(mask: np.ndarray, orientation: int) -> np.ndarray:
    """Ascending scan indices of true cells under the given orientation."""
    perms = orientation_permutations(*mask.shape)
    return np.flatnonzero(mask.ravel()[perms[orientation]])


@dataclass(frozen=True)
class WithinOrder:
    """Canonical within-block scan choice.

    `signature` is always the minimal signature over all 8 orientations (an
    orientation invariant). `orientation` is the unique minimizer, or the
    identity when `ambiguous`.
    """

    orientation: int
    ambiguous: bool
    signature: tuple[int, ...]


def _packed_orientation_keys(flat_mask: np.ndarray) -> list[int]:
    # Bit-packs the mask under each orientation. A 1 at an earlier scan
    # position makes the big-endian integer larger and the signature
    # lexicographically smaller, so max(keys) selects the canonical form.
    perms = orientation_permutations(*_square_side(flat_mask.size))
    packed = np.packbits(flat_mask[perms], axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def _square_side(n: int) -> tuple[int, int]:
    side = int(round(n**0.5))
    if side * side != n:
        raise GeometryError("mask is not square")
    return side, side


def canonical_orientation(mask: np.ndarray) -> WithinOrder:
    """Pick the orientation with the lexicographically smallest signature.

    Raises ValueError on an empty mask: callers must skip slotless blocks.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != mask.shape[1]:
        raise GeometryError("canonical orientation requires a square block")
    flat = mask.ravel()
    if not flat.any():
        raise ValueError("mask has no marked cells")
    keys = _packed_orientation_keys(flat)
    best = max(keys)
    winners = [o for o, k in enumerate(keys) if k == best]
    ambiguous = len(winners) > 1
    signature = tuple(int(i) for i in pp_signature(mask, winners[0]))
    return WithinOrder(
        orientation=0 if ambiguous else winners[0],
        ambiguous=ambiguous,
        signature=signature,
    )


def visiting_order(mask: np.ndarray, within: WithinOrder) -> np.ndarray:
    """Block-local flat indices of marked cells, in visiting order."""
    flat = np.asarray(mask, dtype=bool).ravel()
    if within.ambiguous:
        return np.flatnonzero(flat)
    perm = orientation_permutations(*_square_side(flat.size))[within.orientation]
    return perm[np.array(within.signature, dtype=np.intp)]


@dataclass(frozen=True)
class BlockKey:
    """Orientation- and position-invariant among-block sort key."""

    n_marked: int
    n_shifted: int
    signature: tuple[int, ...]

    def sort_key(self, index: int) -> tuple:
        return (-self.n_marked, self.n_shifted, self.signature, index)


def among_block_order(
    entries: list[tuple[int, BlockKey]]
) -> tuple[list[int], set[int]]:
    """Sort marked blocks; return (ordered indices, index-tie-broken set)."""
    ordered = sorted(entries, key=lambda e: e[1].sort_key(e[0]))
    flagged: set[int] = set()
    groups: dict[BlockKey, list[int]] = {}
    for index, key in entries:
        groups.setdefault(key, []).append(index)
    for members in groups.values():
        if len(members) > 1:
            flagged.update(members)
    return [index for index, _ in ordered], flagged


@dataclass(frozen=True)
class BlockOrder:
    index: int
    within: WithinOrder
    key: BlockKey
    visit: np.ndarray  # block-local flat indices, visiting order


@dataclass(frozen=True)
class OrderPlan:
    """Complete embedding order and encryption eligibility for one plane.

    `tie_flagged`, `rot_eligible` and `scr_eligible` are boolean masks over
    block indices, of length `grid.n_blocks`: entry `a` is True when block
    `a` has a colliding sort key, may be rotated/flipped, or may be
    scrambled. Blocks outside the plan's scope read False in all three.
    """

    grid: BlockGrid
    blocks: dict[int, BlockOrder]  # marked blocks only
    among: list[int]
    tie_flagged: np.ndarray  # bool per block index
    rot_eligible: np.ndarray  # bool per block index
    scr_eligible: np.ndarray  # bool per block index
    slots: np.ndarray  # plane-flat pixel indices, global embedding order


def build_order_plan(
    plane: np.ndarray,
    pair: HistPair,
    grid: BlockGrid,
    block_indices: np.ndarray | None = None,
) -> OrderPlan:
    """Derive the full plan from an intermediate or marked plane.

    `block_indices` restricts the plan to a subset of blocks (used for
    region-partitioned processing); ordering, eligibility, and slots are all
    confined to that subset.
    """
    if grid.block_w != grid.block_h:
        raise GeometryError("order plans require square blocks")
    if block_indices is None:
        scope = np.arange(grid.n_blocks)
    else:
        scope = np.asarray(block_indices, dtype=np.intp)

    mask = marked_mask(plane, pair)
    cells = grid.block_h * grid.block_w
    mask_blocks = block_stack(mask, grid).reshape(grid.n_blocks, cells)
    counts = mask_blocks.sum(axis=1)

    lo, hi = pair.band
    if lo <= hi:
        band = (plane >= lo) & (plane <= hi)
        band_counts = block_stack(band, grid).reshape(grid.n_blocks, cells).sum(axis=1)
    else:
        band_counts = np.zeros(grid.n_blocks, dtype=np.intp)

    marked_idx = scope[counts[scope] > 0]
    unmarked_idx = scope[counts[scope] == 0]

    perms = orientation_permutations(grid.block_h, grid.block_w)
    blocks: dict[int, BlockOrder] = {}
    if marked_idx.size:
        # One packbits pass covers every marked block under all orientations.
        packed = np.packbits(mask_blocks[marked_idx][:, perms], axis=2)
        for row, a in enumerate(marked_idx):
            keys = [int.from_bytes(packed[row, o].tobytes(), "big") for o in range(N_ORIENTATIONS)]
            best = max(keys)
            winners = [o for o, k in enumerate(keys) if k == best]
            ambiguous = len(winners) > 1
            flat = mask_blocks[a]
            sig = np.flatnonzero(flat[perms[winners[0]]])
            within = WithinOrder(
                orientation=0 if ambiguous else winners[0],
                ambiguous=ambiguous,
                signature=tuple(int(i) for i in sig),
            )
            visit = np.flatnonzero(flat) if ambiguous else perms[winners[0]][sig]
            key = BlockKey(
                n_marked=int(counts[a]),
                n_shifted=int(band_counts[a]),
                signature=within.signature,
            )
            blocks[int(a)] = BlockOrder(index=int(a), within=within, key=key, visit=visit)

    among, flagged = among_block_order([(a, b.key) for a, b in blocks.items()])

    tie_flagged = np.zeros(grid.n_blocks, dtype=bool)
    tie_flagged[list(flagged)] = True
    rot_eligible = np.zeros(grid.n_blocks, dtype=bool)
    rot_eligible[unmarked_idx] = True
    rot_eligible[[a for a, b in blocks.items() if not b.within.ambiguous]] = True
    scr_eligible = np.zeros(grid.n_blocks, dtype=bool)
    scr_eligible[scope] = True
    scr_eligible &= ~tie_flagged

    width = grid.plane_shape[1]
    slot_chunks = []
    for a in among:
        r0, c0 = grid.origin(a)
        visit = blocks[a].visit
        rows = r0 + visit // grid.block_w
        cols = c0 + visit % grid.block_w
        slot_chunks.append(rows * width + cols)
    slots = (
        np.concatenate(slot_chunks) if slot_chunks else np.empty(0, dtype=np.intp)
    )

    return OrderPlan(
        grid=grid,
        blocks=blocks,
        among=among,
        tie_flagged=tie_flagged,
        rot_eligible=rot_eligible,
        scr_eligible=scr_eligible,
        slots=slots.astype(np.intp),
    )
