"""Dihedral canonicalization, among-block sorting, and plan stability."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockmark import (
    GeometryError,
    HistPair,
    block_stack,
    build_order_plan,
    find_pp_zp,
    generate_keys,
    shift_histogram,
    split_blocks,
)
from blockmark import ordering
from blockmark.cipher import INVERSE_ORIENTATION, TAG_ORIENT, TAG_SCRAMBLE
from blockmark.histshift import marked_mask
from blockmark.image_io import stack_to_plane
from blockmark.ordering import OrderPlan, apply_orientation, canonical_keys
from conftest import (
    key_signature,
    plan_blocks,
    ref_canonical_signature,
    ref_mask_stack_canonicalize,
    ref_mask_stack_plan,
    ref_order_plan,
    ref_orientation,
    ref_orientation_permutations,
    ref_rotate_flip,
    ref_scramble,
    valid_pair_plane,
)


def _mask(plan, field):
    """A plan's block mask under its `ref_order_plan` name: a block is
    tie-flagged exactly when it may not be scrambled."""
    return ~plan.scr_eligible if field == "tie_flagged" else getattr(plan, field)


def _sparse_mask(side, cells):
    mask = np.zeros(side * side, dtype=bool)
    mask[list(cells)] = True
    return mask.reshape(side, side)


# Sides 3, 5, 10 and 12 give rows that are not whole bytes; keys span 1,
# 2 (10x10), 3 (12x12), 4 (16x16) and 16 (32x32) words.
mask_strategy = st.one_of(
    arrays(
        np.bool_, st.sampled_from([(3, 3), (4, 4), (5, 5), (8, 8), (10, 10), (12, 12), (16, 16)])
    ).filter(lambda m: m.any()),
    st.sets(st.integers(0, 32 * 32 - 1), min_size=1, max_size=40).map(
        lambda cells: _sparse_mask(32, cells)
    ),
)

# Marks are value 7 (pp) on a background of 50; shifted pixels are value 9.
MARK = HistPair(pp=7, zp=9)


def _single_mask(n, r, c):
    mask = np.zeros((n, n), dtype=bool)
    mask[r, c] = True
    return mask


def _stack_keys(stack):
    """canonical_keys() of an `(n, cells)` bool stack's marked cells."""
    return canonical_keys(*np.nonzero(stack), stack.sum(axis=1), stack.shape[1])


def _canonical(*masks):
    """canonical_keys() over square masks: (orientations, ambiguous, signatures)."""
    stack = np.stack([np.asarray(m, dtype=bool).ravel() for m in masks])
    orientation, ambiguous, key = _stack_keys(stack)
    sigs = [key_signature(k, stack.shape[1]) for k in key]
    return orientation.tolist(), ambiguous.tolist(), sigs


def _stack_of_blocks(masks, block, n_blocks, shifted=None):
    """Stack of n_blocks blocks: block `a` is marked where `masks[a]` is
    True, and its first `shifted[a]` unmarked cells read 9."""
    stack = np.full((n_blocks, block * block), 50, dtype=np.uint8)
    for a, mask in masks.items():
        stack[a][np.asarray(mask, dtype=bool).ravel()] = MARK.pp
    for a, n in (shifted or {}).items():
        stack[a][np.flatnonzero(stack[a] == 50)[:n]] = 9
    return stack.reshape(-1, block, block)


class TestOrientations:
    def test_identity(self, rng):
        mat = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        assert np.array_equal(apply_orientation(mat, 0), mat)

    @pytest.mark.parametrize("o", range(8))
    def test_inverse(self, o, rng):
        mat = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        restored = apply_orientation(apply_orientation(mat, o), int(INVERSE_ORIENTATION[o]))
        assert np.array_equal(restored, mat)

    def test_all_eight_distinct_on_asymmetric_input(self):
        mat = np.arange(16, dtype=np.uint8).reshape(4, 4)
        forms = {apply_orientation(mat, o).tobytes() for o in range(8)}
        assert len(forms) == 8

    def test_orientations_match_reference_set(self, rng):
        from conftest import ref_all_orientations

        mat = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        ours = {apply_orientation(mat, o).tobytes() for o in range(8)}
        theirs = {
            np.array(m, dtype=np.uint8).tobytes()
            for m in ref_all_orientations(mat.tolist())
        }
        assert ours == theirs

    @pytest.mark.parametrize("side", [2, 3, 4, 7, 16])
    def test_stack_matches_per_block_reference(self, side, rng):
        stack = rng.integers(0, 256, size=(5, side, side), dtype=np.uint8)
        for o in range(8):
            want = [ref_orientation(block.tolist(), o) for block in stack]
            assert np.array_equal(apply_orientation(stack, o), np.array(want, dtype=np.uint8))

    def test_bad_id(self):
        with pytest.raises(ValueError):
            apply_orientation(np.zeros((2, 2)), 8)

    @pytest.mark.parametrize("b", range(1, 33))
    def test_scan_tables_match_reference(self, b):
        # scan[o, c] is cell c's position under orientation o, lowest[c] its
        # smallest over the 8, and reach[c] has bit o set for each
        # orientation that puts it there; read cell by cell off the table.
        source = ref_orientation_permutations(b)
        scan, lowest, reach = ordering._scan_tables(b)
        want = np.empty_like(source)
        for o in range(8):
            for position, c in enumerate(source[o].tolist()):
                want[o, c] = position
        assert np.array_equal(scan, want)
        for c in range(b * b):
            low = want[:, c].min()
            assert lowest[c] == low
            assert reach[c] == sum(1 << o for o in range(8) if want[o, c] == low)


class TestSignature:
    def test_identity_signature(self):
        # (0, 1) is already the canonical form: identity, scan index 1.
        assert _canonical(_single_mask(4, 0, 1)) == ([0], [False], [(1,)])

    def test_rotate_cw_signature(self):
        # Clockwise 90 degrees maps (0, 1) to (1, 3): scan index 7. The
        # canonical orientation of the rotated block undoes the rotation.
        cw = apply_orientation(np.arange(16).reshape(4, 4), 3)  # three CCW = one CW
        assert cw.ravel()[7] == 1
        rotated = apply_orientation(_single_mask(4, 0, 1), 3)
        assert np.flatnonzero(rotated).tolist() == [7]
        assert _canonical(rotated) == ([INVERSE_ORIENTATION[3]], [False], [(1,)])

    def test_corner_mask_invariant(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 0, 3, 3], [0, 3, 0, 3]] = True
        forms = [apply_orientation(mask, o) for o in range(8)]
        orientation, ambiguous, sigs = _canonical(*forms)
        assert sigs == [(0, 3, 12, 15)] * 8
        assert ambiguous == [True] * 8
        assert orientation == [0] * 8


class TestCanonical:
    def test_single_cell_unambiguous(self):
        _, ambiguous, sigs = _canonical(_single_mask(4, 0, 1))
        assert sigs == [(1,)]
        assert ambiguous == [False]

    def test_single_cell_all_signatures(self):
        forms = [apply_orientation(_single_mask(4, 0, 1), o) for o in range(8)]
        raw = {tuple(np.flatnonzero(f)) for f in forms}
        assert (1,) in raw and (2,) in raw and (4,) in raw
        _, ambiguous, sigs = _canonical(*forms)
        assert sigs == [min(raw)] * 8 == [(1,)] * 8
        assert not any(ambiguous)

    def test_four_corners_ambiguous(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 0, 3, 3], [0, 3, 0, 3]] = True
        assert _canonical(mask) == ([0], [True], [(0, 3, 12, 15)])

    def test_center_cell_ambiguous(self):
        assert _canonical(_single_mask(5, 2, 2)) == ([0], [True], [(12,)])

    def test_empty_mask_rejected(self):
        # Side 16 takes the first-slot round, side 4 goes straight to the
        # 8-orientation comparison; both reject a block without marks.
        for side in (4, 16):
            with pytest.raises(ValueError):
                _stack_keys(np.zeros((1, side * side), dtype=bool))
            marked = _single_mask(side, 0, 1).ravel()
            empty = np.zeros(side * side, dtype=bool)
            for stack in ([marked, empty], [empty, marked]):
                with pytest.raises(ValueError):
                    _stack_keys(np.stack(stack))

    def test_non_square_rejected(self):
        with pytest.raises(GeometryError):
            _stack_keys(np.ones((2, 8), dtype=bool))

    @settings(max_examples=150)
    @given(mask_strategy)
    def test_matches_exhaustive_oracle(self, mask):
        _, ambiguous, sigs = _canonical(mask)
        best, expected_ambiguous = ref_canonical_signature(mask)
        assert sigs == [best]
        assert ambiguous == [expected_ambiguous]

    @settings(max_examples=100)
    @given(mask_strategy, st.integers(0, 7))
    def test_signature_invariant_under_orientations(self, mask, o):
        _, ambiguous, sigs = _canonical(mask, apply_orientation(mask, o))
        assert sigs[0] == sigs[1]
        assert ambiguous[0] == ambiguous[1]

    @settings(max_examples=100)
    @given(st.integers(0, 7), st.data())
    def test_visiting_values_invariant_when_unambiguous(self, o, data):
        # Slots visit the same content cells after the block is transformed.
        mask = data.draw(mask_strategy)
        if _canonical(mask)[1] == [True]:
            return
        n = mask.shape[0]
        stack = _stack_of_blocks({0: mask}, n, 1)
        t_stack = apply_orientation(stack, o)
        source = apply_orientation(np.arange(n * n).reshape(n, n), o).ravel()
        before = build_order_plan(stack, MARK).slots
        after = build_order_plan(t_stack, MARK).slots
        assert np.array_equal(source[after], before)


class TestAmongOrder:
    def test_sort_example(self):
        # Block 1 has 5 slots; blocks 0 and 2 have 3 slots with equal masks,
        # and block 2 has fewer shifted cells (1 against 4).
        three = _single_mask(4, 0, 1) | _single_mask(4, 2, 2) | _single_mask(4, 3, 0)
        five = np.zeros((4, 4), dtype=bool)
        five[0, :] = True
        five[1, 0] = True
        stack = _stack_of_blocks({0: three, 1: five, 2: three}, 4, 3, shifted={0: 4, 2: 1})
        plan = build_order_plan(stack, MARK)
        assert plan_blocks(plan, 16).tolist() == [1, 2, 0]
        assert plan.scr_eligible.all()

    def test_single_block(self):
        mask = _single_mask(4, 0, 1) | _single_mask(4, 0, 2)
        plan = build_order_plan(_stack_of_blocks({9: mask}, 4, 10), MARK)
        assert plan_blocks(plan, 16).tolist() == [9]
        assert plan.scr_eligible.all()

    def test_forced_tie_uses_index(self):
        # Block 7 is a rotated copy of block 2: their keys collide.
        mask = _single_mask(4, 0, 0) | _single_mask(4, 1, 3)
        stack = _stack_of_blocks(
            {7: apply_orientation(mask, 1), 2: mask}, 4, 8, shifted={2: 3, 7: 3}
        )
        plan = build_order_plan(stack, MARK)
        assert plan_blocks(plan, 16).tolist() == [2, 7]
        assert np.flatnonzero(~plan.scr_eligible).tolist() == [2, 7]

    @pytest.mark.parametrize(
        "label_2, label_7, order, flagged",
        [(0, 0, [2, 7], [2, 7]), (1, 1, [2, 7], [2, 7]), (0, 1, [2, 7], []), (1, 0, [7, 2], [])],
    )
    def test_tie_needs_equal_labels(self, label_2, label_7, order, flagged):
        # The colliding pair of test_forced_tie_uses_index ties only within
        # one label; across labels each block is alone in its scope.
        mask = _single_mask(4, 0, 0) | _single_mask(4, 1, 3)
        stack = _stack_of_blocks(
            {7: apply_orientation(mask, 1), 2: mask}, 4, 8, shifted={2: 3, 7: 3}
        )
        labels = np.zeros(len(stack), dtype=np.intp)
        labels[[2, 7]] = label_2, label_7
        plan = build_order_plan(stack, MARK, labels)
        assert plan_blocks(plan, 16).tolist() == order
        assert np.flatnonzero(~plan.scr_eligible).tolist() == flagged
        assert plan.slot_labels.tolist() == sorted([label_2] * 2 + [label_7] * 2)

    def test_signature_breaks_ties(self):
        # Equal slot and shifted counts; block 1's canonical signature
        # (0, 6) precedes block 0's (5, 6).
        mask0 = _single_mask(4, 1, 1) | _single_mask(4, 1, 2)
        mask1 = _single_mask(4, 0, 0) | _single_mask(4, 2, 1)
        assert _canonical(mask0, mask1)[2] == [(5, 6), (0, 6)]
        plan = build_order_plan(_stack_of_blocks({0: mask0, 1: mask1}, 4, 2), MARK)
        assert plan_blocks(plan, 16).tolist() == [1, 0]
        assert plan.scr_eligible.all()


@st.composite
def plan_cases(draw):
    """Small-valued planes (ties and ambiguous blocks are common) or tiles of
    one block under random orientations, with or without scope labels."""
    block = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))  # 16: multi-word keys
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        plane = draw(
            arrays(np.uint8, (rows * block, cols * block), elements=st.integers(10, 13))
        )
    else:
        tile = draw(arrays(np.uint8, (block, block), elements=st.integers(10, 12)))
        ids = draw(st.lists(st.integers(0, 7), min_size=rows * cols, max_size=rows * cols))
        plane = np.block(
            [[apply_orientation(tile, ids[r * cols + c]) for c in range(cols)] for r in range(rows)]
        )
    # zp 9 or 14 beside pp 10 or 13 leaves the shifted band empty.
    pair = HistPair(pp=draw(st.integers(10, 13)), zp=draw(st.sampled_from([8, 9, 14, 15])))
    labels = draw(
        st.none()
        | st.lists(st.integers(0, 2), min_size=rows * cols, max_size=rows * cols).map(
            lambda a: np.array(a, dtype=np.intp)
        )
    )
    return plane, pair, block, labels


class TestPlanOracle:
    @settings(max_examples=300)
    @given(plan_cases())
    def test_matches_reference_plan(self, case):
        # Each label's slice of the plan is the reference plan of that
        # label's blocks alone.
        plane, pair, block, labels = case
        grid = split_blocks(plane, block)
        plan = build_order_plan(block_stack(plane, grid), pair, labels)
        if labels is None:
            labels = np.zeros(grid.n_blocks, dtype=np.intp)
        blocks = plan_blocks(plan, block * block)
        block_labels = labels[blocks]
        assert (np.diff(block_labels) >= 0).all()
        assert plan.slot_labels.shape == plan.slots.shape
        for j in range(3):
            ref = ref_order_plan(plane, pair, block, np.flatnonzero(labels == j))
            assert blocks[block_labels == j].tolist() == ref["blocks"]
            for field in ("tie_flagged", "rot_eligible", "scr_eligible"):
                got = _mask(plan, field) & (labels == j)
                assert set(np.flatnonzero(got).tolist()) == ref[field]
            assert plan.slots[plan.slot_labels == j].tolist() == ref["slots"]


@st.composite
def stack_cases(draw):
    """Block stacks of sides 2 to 32 (cell counts that are not whole bytes,
    keys of 1 to 16 words) with sparse, dense or all-slot marked blocks,
    slotless blocks, copies of blocks under random orientations (so keys
    tie), and one or two labels."""
    block = draw(st.sampled_from([2, 3, 4, 5, 8, 16, 32]))
    n = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.03, 0.5, 1.0]))
    pair = draw(st.sampled_from([HistPair(100, 110), HistPair(100, 90), HistPair(100, 102)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Background values in and out of the shifted band; slots hold pp or
    # the marked value.
    stack = rng.choice(np.array([60, 104, 96, 140], np.uint8), size=(n, block, block))
    slot = rng.random((n, block, block)) < density
    slot[rng.random(n) < 0.2] = False
    stack[slot] = rng.choice(np.array([pair.pp, pair.marked_value], np.uint8), slot.sum())
    for k in np.flatnonzero(rng.random(n) < 0.3):
        stack[k] = apply_orientation(stack[rng.integers(n)], int(rng.integers(8)))
    labels = None if draw(st.booleans()) else rng.random(n) < 0.5
    return stack, pair, labels


@st.composite
def mask_stacks(draw):
    """`(n, cells)` bool stacks at blocks 1 to 32 with sparse or dense fill,
    every block carrying a slot; some blocks are made symmetric under a
    random orientation, so several orientations attain their key."""
    block = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 32]))
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.01, 0.05, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = rng.random((n, block, block)) < density
    for k in np.flatnonzero(rng.random(n) < 0.3):
        o = int(rng.integers(1, 8))
        for _ in range(3):  # closes the mask under o's powers
            masks[k] = masks[k] | apply_orientation(masks[k], o)
    masks = masks.reshape(n, -1)
    empty = np.flatnonzero(~masks.any(axis=1))
    masks[empty, rng.integers(block * block, size=empty.size)] = True
    return masks


def _corners(n):
    mask = np.zeros((n, n), dtype=bool)
    mask[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    return mask


class TestMaskStackOracle:
    def test_canonical_keys_match_mask_stack_oracle(self, monkeypatch):
        # Keys wider than one word (blocks of 9 and up) go through the
        # first-slot round, and only the blocks it leaves open reach the
        # 8-orientation comparison: both must run across those cases.
        compared = []
        full = ordering._canonical

        def spy(row, cell, n, scan):
            compared.append(n)
            return full(row, cell, n, scan)

        monkeypatch.setattr(ordering, "_canonical", spy)
        settled = left_open = 0

        @settings(max_examples=300)
        @given(mask_stacks())
        @example(np.stack([_single_mask(16, 0, 1).ravel(), _corners(16).ravel()]))
        def check(masks):
            nonlocal settled, left_open
            compared.clear()
            got = _stack_keys(masks)
            want = ref_mask_stack_canonicalize(masks)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if masks.shape[1] > 64:
                left_open += sum(compared)
                settled += len(masks) - sum(compared)

        check()
        assert settled > 0 and left_open > 0

    @settings(max_examples=300)
    @given(stack_cases())
    def test_matches_mask_stack_plan(self, case):
        stack, pair, labels = case
        got, want = build_order_plan(stack, pair, labels), ref_mask_stack_plan(stack, pair, labels)
        cells = stack[0].size
        assert np.array_equal(plan_blocks(got, cells), plan_blocks(want, cells))
        for field in ("rot_eligible", "scr_eligible", "slots", "slot_labels"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b), field


class TestOrderPlan:
    def test_no_marked_blocks(self):
        plane = np.full((32, 32), 50, dtype=np.uint8)
        grid = split_blocks(plane, 16)
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9))
        assert plan_blocks(plan, 256).tolist() == []
        assert plan.slots.size == 0 and plan.slot_labels.size == 0
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "pair", [HistPair(pp=7, zp=8), HistPair(pp=7, zp=6), HistPair(pp=7, zp=12)]
    )
    def test_every_block_marked(self, rng, pair):
        # Every block holds slots; zp beside pp leaves the shifted band empty.
        plane = rng.integers(6, 13, size=(24, 32), dtype=np.uint8)
        plane[::4, ::4] = 7
        grid = split_blocks(plane, 4)
        plan = build_order_plan(block_stack(plane, grid), pair)
        ref = ref_order_plan(plane, pair, 4)
        blocks = plan_blocks(plan, 16).tolist()
        assert sorted(blocks) == list(range(grid.n_blocks))
        assert blocks == ref["blocks"]
        assert plan.slots.tolist() == ref["slots"]
        for field in ("tie_flagged", "rot_eligible", "scr_eligible"):
            assert set(np.flatnonzero(_mask(plan, field)).tolist()) == ref[field]

    @pytest.mark.parametrize(
        "pair",
        [HistPair(pp=254, zp=255), HistPair(pp=253, zp=255), HistPair(pp=1, zp=0), HistPair(pp=2, zp=0)],
    )
    def test_band_at_the_ends_of_the_value_range(self, rng, pair):
        # Shifted bands (256, 255) and (0, -1) are empty; (255, 255) and
        # (0, 0) hold one value.
        low = 0 if pair.pp < 128 else 250
        plane = rng.integers(low, low + 6, size=(24, 32), dtype=np.uint8)
        plane[::4, ::4] = pair.pp
        plan = build_order_plan(block_stack(plane, split_blocks(plane, 4)), pair)
        ref = ref_order_plan(plane, pair, 4)
        assert plan_blocks(plan, 16).tolist() == ref["blocks"]
        assert plan.slots.tolist() == ref["slots"]
        for field in ("tie_flagged", "rot_eligible", "scr_eligible"):
            assert set(np.flatnonzero(_mask(plan, field)).tolist()) == ref[field]

    def test_non_contiguous_plane(self, rng):
        # The block stacks of interleaved RGB planes, as strided views.
        rgb = rng.integers(6, 13, size=(48, 4, 4, 3), dtype=np.uint8)
        pair = HistPair(pp=9, zp=14)
        for stack in (rgb[..., 1], rgb[::-1, ..., 2]):
            assert not stack.flags.c_contiguous
            plan = build_order_plan(stack, pair)
            dense = build_order_plan(stack.copy(), pair)
            assert np.array_equal(plan_blocks(plan, 16), plan_blocks(dense, 16))
            for field in ("rot_eligible", "scr_eligible", "slots"):
                assert np.array_equal(getattr(plan, field), getattr(dense, field))

    def test_marks_in_one_block(self):
        plane = np.full((32, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[2, 3] = 7
        grid = split_blocks(plane, 16)
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9))
        assert plan_blocks(plan, 256).tolist() == [0]
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0, 1, 2, 3]
        assert plan.slots.tolist() == [1, 2 * 16 + 3]

    def test_identical_blocks_not_scramble_eligible(self):
        plane = np.full((16, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 17] = 7
        grid = split_blocks(plane, 16)
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9))
        assert plan_blocks(plan, 256).tolist() == [0, 1]
        assert np.flatnonzero(~plan.scr_eligible).tolist() == [0, 1]
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1]

    def test_ambiguous_block_not_rotation_eligible(self):
        plane = np.full((16, 16), 50, dtype=np.uint8)
        plane[[0, 0, 15, 15], [0, 15, 0, 15]] = 7
        grid = split_blocks(plane, 16)
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9))
        assert np.flatnonzero(plan.rot_eligible).tolist() == []
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0]

    def test_subset_restricts_everything(self):
        plane = np.full((16, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 20] = 7
        grid = split_blocks(plane, 16)
        labels = np.array([0, 1])
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9), labels)
        blocks = plan_blocks(plan, 256)
        assert blocks[labels[blocks] == 1].tolist() == [1]
        assert not (plan.rot_eligible & (labels == 1))[0]
        assert plan.slots[plan.slot_labels == 1].tolist() == [16 * 16 + 4]

    def test_labels_length_checked(self):
        plane = np.full((16, 32), 50, dtype=np.uint8)
        grid = split_blocks(plane, 16)
        with pytest.raises(ValueError, match="one entry per block"):
            build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9), np.zeros(3, np.intp))

    def test_slot_order_among_blocks(self):
        # Block 1 holds two slots, block 0 holds one: block 1 leads.
        plane = np.full((8, 16), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 9] = 7
        plane[1, 9] = 7
        grid = split_blocks(plane, 8)
        plan = build_order_plan(block_stack(plane, grid), HistPair(pp=7, zp=9))
        assert plan_blocks(plan, 64).tolist() == [1, 0]
        assert plan.slots.tolist() == [64 + 1, 64 + 8 + 1, 1]

    @pytest.mark.parametrize("field", ["rot_eligible", "scr_eligible"])
    def test_shared_key_intersection_matches_sets(self, field):
        # Shared keys (per_plane=False) move only blocks every plane allows:
        # each scope's one key group holds exactly the common block indices.
        # Per-plane keys give every plane a group of its own mask. Every
        # entry carries its scope's draws: the (key, tag) of its orientation
        # and scramble streams, under its plane's subkey or the shared key.
        from blockmark.pipeline import _cipher_masks

        rng = np.random.default_rng(3)
        plans = []
        for _ in range(3):
            plane = valid_pair_plane(rng, 32, 32)
            pair = find_pp_zp(plane)
            inter = shift_histogram(plane, pair)
            plans.append(build_order_plan(block_stack(inter, split_blocks(inter, 4)), pair))
        at = 1 if field == "rot_eligible" else 2  # the entries' mask of this kind
        labels = np.arange(64) % 2
        suffixes = [b"/A", b"/B"]
        sets = [set(np.flatnonzero(getattr(p, field)).tolist()) for p in plans]
        common = set.intersection(*sets)
        assert any(s != common for s in sets)  # the planes disagree somewhere

        def in_scope(j, blocks):
            return {a for a in blocks if labels[a] == j}

        def draws(keys, j, sub):
            k_orient, k_scramble = keys.k_orient, keys.k_scramble
            if sub is not None:
                k_orient, k_scramble = k_orient + bytes([sub]), k_scramble + bytes([sub])
            return (k_orient, TAG_ORIENT + suffixes[j]), (k_scramble, TAG_SCRAMBLE + suffixes[j])

        keys = generate_keys(per_plane=True, seed=0)
        per_plane = _cipher_masks(keys, plans, labels, suffixes)
        scopes = [(j, i) for j in range(2) for i in range(3)]
        assert len(per_plane) == len(scopes)
        for (j, i), e in zip(scopes, per_plane):
            assert e[0] == [i]
            assert set(np.flatnonzero(e[at]).tolist()) == in_scope(j, sets[i])
            assert e[3:] == draws(keys, j, i)
        keys = generate_keys(per_plane=False, seed=0)
        shared = _cipher_masks(keys, plans, labels, suffixes)
        assert len(shared) == 2
        for j, e in enumerate(shared):
            assert e[0] == [0, 1, 2]
            assert e[at].dtype == bool and e[at].shape == (64,)
            assert set(np.flatnonzero(e[at]).tolist()) == in_scope(j, common)
            assert e[3:] == draws(keys, j, None)


class TestPlanStability:
    """The same plan must emerge before embedding, after embedding, and
    after encryption restricted to the eligible sets."""

    def _content_keys(self, stack, pair, plan):
        """(slot count, shifted count, canonical key) per block, plan order."""
        flat = stack.reshape(len(stack), -1)
        mask = marked_mask(flat, pair)
        lo, hi = pair.band
        shifted = ((flat >= lo) & (flat <= hi)).sum(axis=1)
        blocks = plan_blocks(plan, flat.shape[1])
        _, _, key = _stack_keys(mask[blocks])
        return [
            (int(mask[a].sum()), int(shifted[a]), tuple(k))
            for a, k in zip(blocks.tolist(), key.tolist())
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_plan_stable_across_stages(self, seed):
        from blockmark import embed_bits

        rng = np.random.default_rng(seed)
        plane = valid_pair_plane(rng, 32, 32)
        pair = find_pp_zp(plane)
        inter = shift_histogram(plane, pair)
        grid = split_blocks(inter, 8)
        inter = block_stack(inter, grid)

        plan1 = build_order_plan(inter, pair)
        bits = rng.integers(0, 2, size=plan1.slots.size, dtype=np.uint8)
        marked = embed_bits(inter.copy(), pair, plan1.slots, bits)
        plan2 = build_order_plan(marked, pair)

        assert plan_blocks(plan1, 64).tolist() == plan_blocks(plan2, 64).tolist()
        assert self._content_keys(inter, pair, plan1) == self._content_keys(
            marked, pair, plan2
        )
        assert np.array_equal(plan1.rot_eligible, plan2.rot_eligible)
        assert np.array_equal(plan1.scr_eligible, plan2.scr_eligible)
        assert np.array_equal(plan1.slots, plan2.slots)

        key1, key2 = bytes(range(16)), bytes(range(16, 32))
        enc = stack_to_plane(marked, grid)
        enc = ref_rotate_flip(enc, grid, plan2.rot_eligible, key2, TAG_ORIENT)
        enc = block_stack(ref_scramble(enc, grid, plan2.scr_eligible, key1, TAG_SCRAMBLE), grid)
        plan3 = build_order_plan(enc, pair)

        assert self._content_keys(enc, pair, plan3) == self._content_keys(
            marked, pair, plan2
        )
        assert len(plan_blocks(plan3, 64)) == len(plan_blocks(plan2, 64))
        # Scramble closure: the permutation maps the scramble-eligible
        # position set onto itself. (The rotation set travels with block
        # content instead, so it is only recomputable after unscrambling.)
        assert np.array_equal(plan3.scr_eligible, plan2.scr_eligible)
        # The embedded values are read back in the same order.
        assert np.array_equal(
            enc.ravel()[plan3.slots], marked.ravel()[plan2.slots]
        )

        unscrambled = ref_scramble(
            stack_to_plane(enc, grid), grid, plan3.scr_eligible, key1, TAG_SCRAMBLE, inverse=True
        )
        plan4 = build_order_plan(block_stack(unscrambled, grid), pair)
        assert np.array_equal(plan4.rot_eligible, plan2.rot_eligible)


class TestUnshiftedState:
    """A payload-free unshifted stack, planned with `shifted_state=False`,
    has the plan of its shift: its pp cells are the slots and its moved
    band maps onto the shifted band."""

    @settings(max_examples=300)
    @given(st.data())
    def test_plan_equals_plan_of_the_shift(self, data):
        block = data.draw(st.sampled_from([2, 3, 4, 9]))
        n_blocks = data.draw(st.integers(1, 12))
        pp = data.draw(st.sampled_from([0, 1, 100, 254, 255]))
        # Up, down and adjacent pairs; zp is an empty bin of the plane.
        zp = pp + data.draw(st.sampled_from([1, 2, 3, 5, -1, -2, -4]))
        assume(0 <= zp <= 255)
        values = [v for v in range(max(0, pp - 6), min(256, pp + 7)) if v != zp]
        stack = data.draw(
            arrays(np.uint8, (n_blocks, block, block), elements=st.sampled_from(values))
        )
        labels = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=n_blocks, max_size=n_blocks))
        )
        pair = HistPair(pp=pp, zp=zp)
        got = build_order_plan(stack, pair, labels, shifted_state=False)
        want = build_order_plan(shift_histogram(stack, pair), pair, labels)
        for field in fields(OrderPlan):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
