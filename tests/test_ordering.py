"""Dihedral canonicalization, among-block sorting, and plan stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockmark import (
    BlockKey,
    HistPair,
    among_block_order,
    apply_orientation,
    build_order_plan,
    canonical_orientation,
    find_pp_zp,
    invert_orientation,
    pp_signature,
    rotate_flip_blocks,
    scramble_blocks,
    shift_histogram,
    split_blocks,
    visiting_order,
)
from conftest import ref_canonical_signature, valid_pair_plane

mask_strategy = arrays(
    np.bool_, st.sampled_from([(4, 4), (5, 5), (8, 8)])
).filter(lambda m: m.any())


def _single_mask(n, r, c):
    mask = np.zeros((n, n), dtype=bool)
    mask[r, c] = True
    return mask


class TestOrientations:
    def test_identity(self, rng):
        mat = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        assert np.array_equal(apply_orientation(mat, 0), mat)

    @pytest.mark.parametrize("o", range(8))
    def test_inverse(self, o, rng):
        mat = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        restored = apply_orientation(apply_orientation(mat, o), invert_orientation(o))
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

    def test_bad_id(self):
        with pytest.raises(ValueError):
            apply_orientation(np.zeros((2, 2)), 8)


class TestSignature:
    def test_identity_signature(self):
        assert pp_signature(_single_mask(4, 0, 1), 0).tolist() == [1]

    def test_rotate_cw_signature(self):
        # Clockwise 90 degrees maps (0, 1) to (1, 3): scan index 7.
        mask = _single_mask(4, 0, 1)
        sigs = {o: pp_signature(mask, o).tolist() for o in range(8)}
        assert [7] in sigs.values()
        cw = apply_orientation(np.arange(16).reshape(4, 4), 3)  # three CCW = one CW
        assert cw.ravel()[7] == 1

    def test_corner_mask_invariant(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 0, 3, 3], [0, 3, 0, 3]] = True
        for o in range(8):
            assert pp_signature(mask, o).tolist() == [0, 3, 12, 15]


class TestCanonical:
    def test_single_cell_unambiguous(self):
        within = canonical_orientation(_single_mask(4, 0, 1))
        assert within.signature == (1,)
        assert not within.ambiguous

    def test_single_cell_all_signatures(self):
        sigs = {tuple(pp_signature(_single_mask(4, 0, 1), o)) for o in range(8)}
        assert (1,) in sigs and (2,) in sigs and (4,) in sigs
        assert min(sigs) == (1,)

    def test_four_corners_ambiguous(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[[0, 0, 3, 3], [0, 3, 0, 3]] = True
        within = canonical_orientation(mask)
        assert within.ambiguous
        assert within.orientation == 0
        assert within.signature == (0, 3, 12, 15)

    def test_center_cell_ambiguous(self):
        within = canonical_orientation(_single_mask(5, 2, 2))
        assert within.ambiguous
        assert within.signature == (12,)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            canonical_orientation(np.zeros((4, 4), dtype=bool))

    def test_non_square_rejected(self):
        from blockmark import GeometryError

        with pytest.raises(GeometryError):
            canonical_orientation(np.ones((2, 4), dtype=bool))

    @settings(max_examples=150)
    @given(mask_strategy)
    def test_matches_exhaustive_oracle(self, mask):
        within = canonical_orientation(mask)
        best, ambiguous = ref_canonical_signature(mask)
        assert within.signature == best
        assert within.ambiguous == ambiguous

    @settings(max_examples=100)
    @given(mask_strategy, st.integers(0, 7))
    def test_signature_invariant_under_orientations(self, mask, o):
        transformed = apply_orientation(mask, o)
        assert (
            canonical_orientation(transformed).signature
            == canonical_orientation(mask).signature
        )
        assert (
            canonical_orientation(transformed).ambiguous
            == canonical_orientation(mask).ambiguous
        )

    @settings(max_examples=100)
    @given(st.integers(0, 7), st.data())
    def test_visiting_values_invariant_when_unambiguous(self, o, data):
        mask = data.draw(mask_strategy)
        within = canonical_orientation(mask)
        if within.ambiguous:
            return
        n = mask.shape[0]
        values = np.arange(n * n, dtype=np.uint8).reshape(n, n)
        before = values.ravel()[visiting_order(mask, within)]
        t_mask = apply_orientation(mask, o)
        t_values = apply_orientation(values, o)
        after = t_values.ravel()[
            visiting_order(t_mask, canonical_orientation(t_mask))
        ]
        assert np.array_equal(before, after)


class TestAmongOrder:
    def test_sort_example(self):
        entries = [
            (0, BlockKey(3, 4, (1,))),
            (1, BlockKey(5, 0, (0,))),
            (2, BlockKey(3, 1, (1,))),
        ]
        order, flagged = among_block_order(entries)
        assert order == [1, 2, 0]
        assert not flagged

    def test_single_block(self):
        order, flagged = among_block_order([(9, BlockKey(2, 0, (0, 1)))])
        assert order == [9]
        assert not flagged

    def test_forced_tie_uses_index(self):
        key = BlockKey(2, 3, (0, 5))
        order, flagged = among_block_order([(7, key), (2, key)])
        assert order == [2, 7]
        assert flagged == {2, 7}

    def test_signature_breaks_ties(self):
        entries = [
            (0, BlockKey(2, 1, (3, 4))),
            (1, BlockKey(2, 1, (0, 9))),
        ]
        order, flagged = among_block_order(entries)
        assert order == [1, 0]
        assert not flagged


class TestOrderPlan:
    def test_no_marked_blocks(self):
        plane = np.full((32, 32), 50, dtype=np.uint8)
        grid = split_blocks(plane, 16, 16)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid)
        assert plan.among == []
        assert plan.slots.size == 0
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0, 1, 2, 3]

    def test_marks_in_one_block(self):
        plane = np.full((32, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[2, 3] = 7
        grid = split_blocks(plane, 16, 16)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid)
        assert plan.among == [0]
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0, 1, 2, 3]
        assert plan.slots.tolist() == [1, 2 * 32 + 3]

    def test_identical_blocks_not_scramble_eligible(self):
        plane = np.full((16, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 17] = 7
        grid = split_blocks(plane, 16, 16)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid)
        assert plan.among == [0, 1]
        assert np.flatnonzero(plan.tie_flagged).tolist() == [0, 1]
        assert np.flatnonzero(plan.scr_eligible).tolist() == []
        assert np.flatnonzero(plan.rot_eligible).tolist() == [0, 1]

    def test_ambiguous_block_not_rotation_eligible(self):
        plane = np.full((16, 16), 50, dtype=np.uint8)
        plane[[0, 0, 15, 15], [0, 15, 0, 15]] = 7
        grid = split_blocks(plane, 16, 16)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid)
        assert np.flatnonzero(plan.rot_eligible).tolist() == []
        assert np.flatnonzero(plan.scr_eligible).tolist() == [0]

    def test_subset_restricts_everything(self):
        plane = np.full((16, 32), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 20] = 7
        grid = split_blocks(plane, 16, 16)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid, np.array([1]))
        assert plan.among == [1]
        assert not plan.rot_eligible[0]
        assert plan.slots.tolist() == [20]

    def test_slot_order_among_blocks(self):
        # Block 1 holds two slots, block 0 holds one: block 1 leads.
        plane = np.full((8, 16), 50, dtype=np.uint8)
        plane[0, 1] = 7
        plane[0, 9] = 7
        plane[1, 9] = 7
        grid = split_blocks(plane, 8, 8)
        plan = build_order_plan(plane, HistPair(pp=7, zp=9), grid)
        assert plan.among == [1, 0]
        assert plan.slots.tolist() == [9, 16 + 9, 1]


    @pytest.mark.parametrize("field", ["rot_eligible", "scr_eligible"])
    def test_shared_key_intersection_matches_sets(self, field):
        # Shared keys (per_plane=False) move only blocks every plane allows:
        # the mask intersection must hold exactly the common block indices.
        from blockmark.pipeline import _intersect

        rng = np.random.default_rng(3)
        masks = []
        for _ in range(3):
            plane = valid_pair_plane(rng, 32, 32)
            pair = find_pp_zp(plane)
            inter = shift_histogram(plane, pair)
            plan = build_order_plan(inter, pair, split_blocks(inter, 4, 4))
            masks.append(getattr(plan, field))
        sets = [set(np.flatnonzero(m).tolist()) for m in masks]
        common = set.intersection(*sets)
        assert any(s != common for s in sets)  # the planes disagree somewhere
        shared = _intersect(masks)
        assert shared.dtype == bool and shared.shape == (64,)
        assert set(np.flatnonzero(shared).tolist()) == common


class TestPlanStability:
    """The same plan must emerge before embedding, after embedding, and
    after encryption restricted to the eligible sets."""

    def _content_keys(self, plan):
        return [plan.blocks[a].key for a in plan.among]

    @pytest.mark.parametrize("seed", range(5))
    def test_plan_stable_across_stages(self, seed):
        from blockmark import embed_bits

        rng = np.random.default_rng(seed)
        plane = valid_pair_plane(rng, 32, 32)
        pair = find_pp_zp(plane)
        inter = shift_histogram(plane, pair)
        grid = split_blocks(inter, 8, 8)

        plan1 = build_order_plan(inter, pair, grid)
        bits = rng.integers(0, 2, size=plan1.slots.size, dtype=np.uint8)
        marked = embed_bits(inter, pair, plan1.slots, bits)
        plan2 = build_order_plan(marked, pair, grid)

        assert plan1.among == plan2.among
        assert self._content_keys(plan1) == self._content_keys(plan2)
        assert np.array_equal(plan1.rot_eligible, plan2.rot_eligible)
        assert np.array_equal(plan1.scr_eligible, plan2.scr_eligible)
        assert np.array_equal(plan1.slots, plan2.slots)

        key1, key2 = bytes(range(16)), bytes(range(16, 32))
        enc = rotate_flip_blocks(marked, grid, plan2.rot_eligible, key2)
        enc = scramble_blocks(enc, grid, plan2.scr_eligible, key1)
        plan3 = build_order_plan(enc, pair, grid)

        assert self._content_keys(plan3) == self._content_keys(plan2)
        assert len(plan3.among) == len(plan2.among)
        # Scramble closure: the permutation maps the scramble-eligible
        # position set onto itself. (The rotation set travels with block
        # content instead, so it is only recomputable after unscrambling.)
        assert np.array_equal(plan3.scr_eligible, plan2.scr_eligible)
        # The embedded values are read back in the same order.
        assert np.array_equal(
            enc.ravel()[plan3.slots], marked.ravel()[plan2.slots]
        )

        from blockmark import unscramble_blocks

        unscrambled = unscramble_blocks(enc, grid, plan3.scr_eligible, key1)
        plan4 = build_order_plan(unscrambled, pair, grid)
        assert np.array_equal(plan4.rot_eligible, plan2.rot_eligible)
