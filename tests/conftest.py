"""Shared fixtures, generators, and independent reference implementations.

The reference functions deliberately avoid the library's vectorized code
paths (pure-Python loops, Counter-based histograms, list-based matrix
transforms) so tests compare two independent routes to the same answer.
The one exception, `ref_mask_stack_plan`, is an array plan that works on a
per-cell mask stack of the marked blocks, where the library works on slot
coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from blockmark import (
    HistPair,
    Image,
    Mode,
    block_stack,
    build_order_plan,
    embed_bits,
    find_pp_zp,
    shift_histogram,
    split_blocks,
    unshift_histogram,
)
from blockmark.cipher import (
    TAG_ORIENT,
    TAG_SCRAMBLE,
    draw_orientations,
    draw_permutation,
    plane_key,
)
from blockmark.histshift import marked_mask
from blockmark.image_io import stack_to_plane
from blockmark.ordering import N_ORIENTATIONS, OrderPlan, apply_orientation
from blockmark.pipeline import region_labels

# The generator of `scripts/make_test_images.py` (on pytest's pythonpath).
from make_test_images import natural_plane

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


def synth_plane(h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Random plane with a guaranteed empty histogram tail on both sides."""
    values = rng.normal(128.0, 40.0, size=(h, w))
    return np.clip(values, 8, 247).astype(np.uint8)


def synth_image(h: int, w: int, rng: np.random.Generator, color: bool) -> Image:
    n = 3 if color else 1
    return Image(tuple(synth_plane(h, w, rng) for _ in range(n)))


def natural_image(h: int, w: int, seed: int, color: bool = False) -> Image:
    if not color:
        return Image((natural_plane(h, w, seed),))
    return Image(tuple(natural_plane(h, w, seed + i) for i in range(3)))


# ---------------------------------------------------------------------------
# Reference implementations (oracles)
# ---------------------------------------------------------------------------

def ref_find_pp_zp(plane: np.ndarray) -> tuple[int, int]:
    """Exhaustive pair search with explicit tie handling."""
    counts = Counter(int(v) for v in plane.ravel())
    hist = [counts.get(v, 0) for v in range(256)]
    peak = max(hist)
    pp = min(v for v in range(256) if hist[v] == peak)
    zeros = [v for v in range(256) if hist[v] == 0]
    assert zeros, "oracle needs an empty bin"
    best = min(abs(v - pp) for v in zeros)
    zp = max(v for v in zeros if abs(v - pp) == best)
    return pp, zp


def ref_shift(plane: np.ndarray, pp: int, zp: int) -> np.ndarray:
    out = plane.astype(int).copy()
    for idx, v in np.ndenumerate(out):
        if pp < zp and pp < v < zp:
            out[idx] = v + 1
        elif pp > zp and zp < v < pp:
            out[idx] = v - 1
    return out.astype(np.uint8)


def ref_unshift(plane: np.ndarray, pp: int, zp: int) -> np.ndarray:
    out = plane.astype(int).copy()
    for idx, v in np.ndenumerate(out):
        if pp < zp and pp + 2 <= v <= zp:
            out[idx] = v - 1
        elif pp > zp and zp <= v <= pp - 2:
            out[idx] = v + 1
    return out.astype(np.uint8)


def shifted_copy(plane: np.ndarray, pair: HistPair) -> np.ndarray:
    """`plane` shifted under `pair` into a new array; `shift_histogram`
    itself writes in place."""
    out = plane.copy()
    shift_histogram(out, pair)
    return out


def unshifted_copy(plane: np.ndarray, pair: HistPair) -> np.ndarray:
    """`plane` un-shifted under `pair` into a new array."""
    out = plane.copy()
    unshift_histogram(out, pair)
    return out


def ref_rot90_cw(mat: list[list]) -> list[list]:
    return [list(row) for row in zip(*mat[::-1])]


def ref_flip_h(mat: list[list]) -> list[list]:
    return [row[::-1] for row in mat]


def ref_all_orientations(mat: list[list]) -> list[list[list]]:
    """All 8 square symmetries, built from CW rotations and a mirror."""
    out = []
    current = [list(row) for row in mat]
    for _ in range(4):
        out.append(current)
        out.append(ref_flip_h(current))
        current = ref_rot90_cw(current)
    return out


def ref_orientation(mat: list[list], orientation: int) -> list[list]:
    """Orientation id `o` of the library's numbering: `o & 3` CCW quarter
    turns (that is, `-o & 3` CW ones), then a mirror when `o >= 4`."""
    return ref_all_orientations(mat)[2 * (-orientation & 3) + (orientation >> 2)]


def ref_unorientation(mat: list[list], orientation: int) -> list[list]:
    """Undo orientation id `orientation`: undo its mirror, then turn its
    `orientation & 3` CCW quarter turns back CW."""
    out = ref_flip_h(mat) if orientation >= 4 else mat
    for _ in range(orientation & 3):
        out = ref_rot90_cw(out)
    return out


def ref_orientation_permutations(b: int) -> np.ndarray:
    """(8, b*b) table from `ref_orientation`: row o holds, per scan position
    under orientation o, the raster index of the cell found there."""
    cells = [[r * b + c for c in range(b)] for r in range(b)]
    return np.array(
        [[v for row in ref_orientation(cells, o) for v in row] for o in range(N_ORIENTATIONS)]
    )


def ref_signature(mask: list[list[bool]]) -> tuple[int, ...]:
    n = len(mask[0])
    return tuple(
        r * n + c
        for r in range(len(mask))
        for c in range(n)
        if mask[r][c]
    )


def ref_canonical_signature(mask: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """Minimal signature over all 8 orientations and whether several tie."""
    sigs = [ref_signature(m) for m in ref_all_orientations(mask.tolist())]
    best = min(sigs)
    return best, sigs.count(best) > 1


def key_signature(key: np.ndarray, cells: int) -> tuple[int, ...]:
    """Decode one row of `canonical_keys`'s packed key into its signature."""
    bits = np.unpackbits(np.asarray(key).astype(">u8").view(np.uint8))
    assert not bits[cells:].any(), "padding bits must be zero"
    return tuple(int(i) for i in np.flatnonzero(bits[:cells]))


def block_slice(grid, a: int) -> tuple[slice, slice]:
    """Rows and columns of block `a` (raster order) in the plane: the
    per-block reference for `block_stack` and the cipher operations."""
    r, c = divmod(a, grid.cols)
    b = grid.block
    return slice(r * b, (r + 1) * b), slice(c * b, (c + 1) * b)


def ref_rotate_flip(plane, grid, mask, key: bytes, tag: bytes, inverse=False) -> np.ndarray:
    """Per-block reference for rotation/flip: a new plane whose k-th
    eligible block (ascending index) is turned by the k-th drawn id;
    unrotating (`inverse`) undoes the mirror, then turns the block back."""
    out = plane.copy()
    e = np.flatnonzero(mask)
    for a, o in zip(e, draw_orientations(e.size, key, tag).tolist()):
        blk = plane[block_slice(grid, a)].tolist()
        out[block_slice(grid, a)] = (ref_unorientation if inverse else ref_orientation)(blk, o)
    return out


def ref_scramble(plane, grid, mask, key: bytes, tag: bytes, inverse=False) -> np.ndarray:
    """Per-block reference for scrambling: a new plane where the k-th
    eligible block (ascending index) holds eligible block ``perm[k]``;
    unscrambling (`inverse`) moves each block back."""
    out = plane.copy()
    e = np.flatnonzero(mask)
    src = e[draw_permutation(e.size, key, tag)]
    for s, d in zip(e, src) if inverse else zip(src, e):
        out[block_slice(grid, d)] = plane[block_slice(grid, s)]
    return out


def ref_order_plan(plane: np.ndarray, pair: HistPair, block: int, scope=None) -> dict:
    """Per-block reference for `build_order_plan`, in plain Python.

    Marked blocks are sorted by (-slot count, shifted count, minimal
    signature, index); every block whose key is shared is tie-flagged; the
    visit order is read off the unique minimizing form, or is raster order
    when several forms minimize. Returns block lists, index sets and slots;
    slot `a * block**2 + v` is cell `v` of block `a`, as in the block stack.
    """
    values = plane.tolist()
    height, width = len(values), len(values[0])
    cols = width // block
    lo, hi = pair.band
    marked_values = (pair.pp, pair.marked_value)
    if scope is None:
        scope = range((height // block) * cols)
    scope = sorted({int(a) for a in scope})
    cell_ids = [[r * block + c for c in range(block)] for r in range(block)]

    entries, unmarked = {}, []
    for a in scope:
        r0, c0 = (a // cols) * block, (a % cols) * block
        vals = [row[c0 : c0 + block] for row in values[r0 : r0 + block]]
        mask = [[v in marked_values for v in row] for row in vals]
        count = sum(sum(row) for row in mask)
        if not count:
            unmarked.append(a)
            continue
        shifted = sum(lo <= v <= hi for row in vals for v in row)
        forms = list(zip(ref_all_orientations(mask), ref_all_orientations(cell_ids)))
        sigs = [ref_signature(m) for m, _ in forms]
        best = min(sigs)
        ambiguous = sigs.count(best) > 1
        if ambiguous:
            visit = list(ref_signature(mask))  # raster order
        else:
            ids = [i for row in forms[sigs.index(best)][1] for i in row]
            visit = [ids[s] for s in best]
        slots = [a * block * block + v for v in visit]
        entries[a] = ((-count, shifted, best), ambiguous, slots)

    order = sorted(entries, key=lambda a: (entries[a][0], a))
    key_counts = Counter(key for key, _, _ in entries.values())
    tied = {a for a, (key, _, _) in entries.items() if key_counts[key] > 1}
    return {
        "blocks": order,
        "tie_flagged": tied,
        "rot_eligible": set(unmarked) | {a for a, e in entries.items() if not e[1]},
        "scr_eligible": set(scope) - tied,
        "slots": [s for a in order for s in entries[a][2]],
    }


# The arrays an `OrderPlan` exposes, which plan comparisons check by name.
PLAN_ARRAYS = ("rot_eligible", "scr_eligible", "slots", "slot_labels")


def plan_blocks(plan: OrderPlan, cells: int) -> np.ndarray:
    """The marked block indices of a plan in embedding order, read off its
    slots: the block of the first slot of each run of one block's slots.
    Asserts that every block's slots form a single contiguous run."""
    rows = plan.slots // cells
    blocks = rows[np.diff(rows, prepend=-1) != 0]
    assert np.unique(blocks).size == blocks.size, "a block's slots are split"
    return blocks


def ref_mask_stack_canonicalize(mask_blocks: np.ndarray):
    """`canonical_keys` of an `(n, cells)` bool stack, by packing each
    orientation of the whole stack as a strided view."""
    n, cells = mask_blocks.shape
    side = math.isqrt(cells)
    squares = mask_blocks.reshape(n, side, side)
    n_words = -(-cells // 64)
    packed = np.zeros((n, N_ORIENTATIONS, 8 * n_words), dtype=np.uint8)
    for o in range(N_ORIENTATIONS):
        row = np.packbits(apply_orientation(squares, o).reshape(n, cells), axis=1)
        packed[:, o, : row.shape[1]] = row
    words = packed.view(">u8")  # (n, 8, n_words)
    cand = np.ones((n, N_ORIENTATIONS), dtype=bool)
    key = np.empty((n, n_words), dtype=np.uint64)
    for j in range(n_words):
        w = words[:, :, j]
        best = np.where(cand, w, 0).max(axis=1, initial=0)
        cand &= w == best[:, None]
        key[:, j] = best
    assert key.any(axis=1).all(), "every block must carry a slot"
    ambiguous = cand.sum(axis=1) > 1
    return np.where(ambiguous, 0, cand.argmax(axis=1)), ambiguous, key


def ref_mask_stack_plan(stack: np.ndarray, pair: HistPair, labels=None) -> SimpleNamespace:
    """`build_order_plan` from the marked blocks' `(n, cells)` slot-mask
    stack: canonicalize the stack, sort the blocks, then read each sorted
    mask's slots with `np.nonzero` and order them by scan position. Returns
    the `PLAN_ARRAYS` of the plan."""
    n_blocks, b, _ = stack.shape
    cells = b * b
    labels = np.zeros(n_blocks, np.intp) if labels is None else np.asarray(labels)
    flat = stack.reshape(n_blocks, cells)
    counts = np.bincount(np.flatnonzero(marked_mask(flat, pair)) // cells, minlength=n_blocks)
    marked = np.flatnonzero(counts)
    values = flat[marked]
    mask_blocks = marked_mask(values, pair)
    lo, hi = pair.band
    shifted = ((values >= lo) & (values <= hi)).sum(axis=1)

    orientation, ambiguous, key = ref_mask_stack_canonicalize(mask_blocks)
    order = np.lexsort((marked, *(~key[:, ::-1]).T, shifted, -counts[marked], labels[marked]))
    blocks, orientation = marked[order], orientation[order]
    key, shifted, block_labels = key[order], shifted[order], labels[blocks]

    same = (key[1:] == key[:-1]).all(axis=1) & (shifted[1:] == shifted[:-1])
    same &= block_labels[1:] == block_labels[:-1]
    scr_eligible = np.ones(n_blocks, dtype=bool)
    scr_eligible[blocks[1:][same]] = False
    scr_eligible[blocks[:-1][same]] = False
    rot_eligible = np.ones(n_blocks, dtype=bool)
    rot_eligible[marked[ambiguous]] = False

    scan = np.argsort(ref_orientation_permutations(b), axis=1)
    row, cell = np.nonzero(mask_blocks[order])
    visit = np.argsort(row * cells + scan[orientation[row], cell])
    row, cell = row[visit], cell[visit]
    return SimpleNamespace(
        rot_eligible=rot_eligible,
        scr_eligible=scr_eligible,
        slots=blocks[row] * cells + cell,
        slot_labels=block_labels[row],
    )


def encrypted_domain_reference(image: Image, payloads, keys, block: int, mode: Mode) -> Image:
    """The paper's keyless hider: the ciphertext's own plan places the
    encrypted-domain payload.

    Shifts and plans each plane and embeds the plain-first scope. Then it
    encrypts each scope one block at a time (`ref_rotate_flip`, then
    `ref_scramble`, with the cipher's draws; each scope's masks from that
    plan, its own key tag suffix, and with shared keys the masks
    intersected over planes), plans the ciphertext again and embeds
    the encrypted-first scope into its label's slice of that plan. Nothing
    is carried through the cipher. `payloads` holds one bit sequence per
    scope (A then B in two-domain mode); each plane takes up to its own
    capacity in the scope, in plane order.
    """
    grid = split_blocks(image.planes[0], block)
    if mode == Mode.TWO_DOMAIN:
        labels = region_labels(keys.k_region, grid).astype(np.intp)
        scopes = [(b"/A", True), (b"/B", False)]
    else:
        labels = np.zeros(grid.n_blocks, dtype=np.intp)
        scopes = [(b"", mode == Mode.PLAIN_FIRST)]
    pairs = [find_pp_zp(p) for p in image.planes]
    planes = [shifted_copy(p, pair) for p, pair in zip(image.planes, pairs)]

    def plan(planes):
        return [
            build_order_plan(block_stack(p, grid), pair, labels) for p, pair in zip(planes, pairs)
        ]

    def embed_scope(planes, plans, j):
        bits, out = list(payloads[j]), []
        for plane, pair, p in zip(planes, pairs, plans):
            slots = p.slots[p.slot_labels == j]
            stack = block_stack(plane, grid)
            embed_bits(stack, pair, slots, bits[: slots.size])
            out.append(stack_to_plane(stack, grid))
            bits = bits[slots.size :]
        assert not bits, "payload exceeds the scope's capacity"
        return out

    plans = plan(planes)
    for j, (_, plain_first) in enumerate(scopes):
        if plain_first:
            planes = embed_scope(planes, plans, j)
    for j, (suffix, _) in enumerate(scopes):
        for step, key, tag, field in (
            (ref_rotate_flip, keys.k_orient, TAG_ORIENT, "rot_eligible"),
            (ref_scramble, keys.k_scramble, TAG_SCRAMBLE, "scr_eligible"),
        ):
            masks = [getattr(p, field) & (labels == j) for p in plans]
            if not keys.per_plane:
                masks = [np.logical_and.reduce(masks)] * len(masks)
            planes = [
                step(p, grid, m, plane_key(key, i if keys.per_plane else None), tag + suffix)
                for i, (p, m) in enumerate(zip(planes, masks))
            ]
    plans = plan(planes)
    for j, (_, plain_first) in enumerate(scopes):
        if not plain_first:
            planes = embed_scope(planes, plans, j)
    return Image(tuple(planes))


def ref_decrypt(image: Image, pairs, keys, block: int, mode: Mode) -> Image:
    """Per-block reference for `decrypt` of shifted planes: nothing is
    carried through the unscramble.

    Scope by scope (one whole-grid scope, or region A then B), it plans the
    ciphertext and unscrambles one block at a time (`ref_scramble` with
    `inverse`), then plans the unscrambled planes again and unrotates that
    plan's rotation set one block at a time (`ref_rotate_flip` with
    `inverse`). Each scope uses its own key tag suffix, and with shared keys
    the masks intersected over planes.
    """
    grid = split_blocks(image.planes[0], block)
    if mode == Mode.TWO_DOMAIN:
        labels = region_labels(keys.k_region, grid).astype(np.intp)
        suffixes = [b"/A", b"/B"]
    else:
        labels = np.zeros(grid.n_blocks, dtype=np.intp)
        suffixes = [b""]
    planes = list(image.planes)
    for j, suffix in enumerate(suffixes):
        for step, key, tag, field in (
            (ref_scramble, keys.k_scramble, TAG_SCRAMBLE, "scr_eligible"),
            (ref_rotate_flip, keys.k_orient, TAG_ORIENT, "rot_eligible"),
        ):
            masks = [
                getattr(build_order_plan(block_stack(p, grid), pair, labels), field)
                & (labels == j)
                for p, pair in zip(planes, pairs)
            ]
            if not keys.per_plane:
                masks = [np.logical_and.reduce(masks)] * len(masks)
            planes = [
                step(p, grid, m, plane_key(key, i if keys.per_plane else None), tag + suffix,
                     inverse=True)
                for i, (p, m) in enumerate(zip(planes, masks))
            ]
    return Image(tuple(planes))


def region_capacities(image: Image, k_region: bytes, block: int) -> dict[str, int]:
    """Bits regions A and B can carry: the peak-valued pixels of the shifted
    planes inside each region's blocks, counted without an order plan."""
    grid = split_blocks(image.planes[0], block)
    labels = region_labels(k_region, grid).reshape(grid.rows, grid.cols)
    in_b = np.repeat(np.repeat(labels, block, axis=0), block, axis=1)
    caps = {"A": 0, "B": 0}
    for plane in image.planes:
        pair = find_pp_zp(plane)
        slots = shifted_copy(plane, pair) == pair.pp
        caps["A"] += int((slots & ~in_b).sum())
        caps["B"] += int((slots & in_b).sum())
    return caps


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xB10C)


def valid_pair_plane(rng: np.random.Generator, h: int = 16, w: int = 16) -> np.ndarray:
    """Small random plane guaranteed to admit a pair."""
    return rng.integers(0, 200, size=(h, w), dtype=np.uint8)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def make_pair(pp: int, zp: int) -> HistPair:
    return HistPair(pp=pp, zp=zp)
