"""End-to-end flows: all modes, both receiver orders, side-info transport."""

import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockmark import (
    CapacityExceededError,
    GeometryError,
    HistPair,
    Image,
    KeySet,
    Mode,
    PayloadError,
    SideInfo,
    SideInfoError,
    block_stack,
    capacity_report,
    decrypt,
    embed_plain_then_encrypt,
    embed_two_domain,
    encrypt_then_embed,
    extract_payload,
    extract_two_domain,
    generate_keys,
    histogram,
    psnr,
    split_blocks,
)
from blockmark import histshift, ordering, pipeline
from blockmark.histshift import is_shifted
from blockmark.image_io import stack_to_plane
from blockmark.ordering import apply_orientation, build_order_plan
from blockmark.pipeline import region_labels
from conftest import (
    block_slice,
    encrypted_domain_reference,
    random_bits,
    ref_decrypt,
    region_capacities,
    synth_image,
)


def _plane_hists(image):
    return [histogram(p).tolist() for p in image.planes]


@pytest.fixture
def keys():
    return generate_keys(two_domain=True, seed=2024)


class TestSingleDomain:
    def test_zero_payload_round_trip(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        out, side = embed_plain_then_encrypt(img, [], keys, 16)
        bits, etc_img = extract_payload(out, side)
        assert bits.size == 0
        assert decrypt(etc_img, side, keys) == img

    def test_bad_geometry_raises_geometry_error(self, rng):
        keys = generate_keys(seed=1)
        img = synth_image(16, 16, rng, color=False)
        for block in (4.0, "4"):
            with pytest.raises(GeometryError):
                embed_plain_then_encrypt(img, [], keys, block)
        empty = Image((np.zeros((0, 8), np.uint8),))
        with pytest.raises(GeometryError):
            embed_plain_then_encrypt(empty, [], keys, 4)
        side = SideInfo(Mode.PLAIN_FIRST, 4, (HistPair(1, 2),), (0,))
        with pytest.raises(GeometryError):
            decrypt(empty, side, keys)

    def test_full_capacity_round_trip(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        bits, etc_img = extract_payload(out, side)
        assert np.array_equal(bits, payload)
        assert decrypt(etc_img, side, keys) == img

    def test_decrypt_then_extract(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 8)
        marked = decrypt(out, side, keys)
        bits, original = extract_payload(marked, side)
        assert np.array_equal(bits, payload)
        assert original == img

    def test_encrypt_then_embed_round_trip(self, rng, keys):
        for trial in range(10):
            img = synth_image(64, 64, rng, color=trial % 2 == 0)
            payload = random_bits(rng, capacity_report(img)["total"])
            out, side = encrypt_then_embed(img, payload, keys, 16)
            marked = decrypt(out, side, keys)
            bits, original = extract_payload(marked, side)
            assert np.array_equal(bits, payload)
            assert original == img

    def test_mode_equivalence(self, rng, keys):
        for trial in range(10):
            img = synth_image(64, 64, rng, color=trial % 2 == 0)
            payload = random_bits(rng, capacity_report(img)["total"] // 2)
            a, side_a = embed_plain_then_encrypt(img, payload, keys, 16)
            b, side_b = encrypt_then_embed(img, payload, keys, 16)
            assert a == b
            assert side_a.pairs == side_b.pairs
            assert side_a.bit_lengths == side_b.bit_lengths

    def test_capacity_exceeded(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        too_many = capacity_report(img)["total"] + 1
        with pytest.raises(CapacityExceededError):
            embed_plain_then_encrypt(img, np.ones(too_many, np.uint8), keys, 16)

    @pytest.mark.parametrize("bits", [[0.6, 1.9, 1.0], [-1], [256], [0, 2]])
    @pytest.mark.parametrize("embed", [embed_plain_then_encrypt, encrypt_then_embed])
    def test_payload_must_be_bits(self, rng, keys, embed, bits):
        # Refused before the uint8 cast could truncate or overflow them.
        img = synth_image(64, 64, rng, color=False)
        with pytest.raises(ValueError, match="0 or 1"):
            embed(img, bits, keys, 16)

    def test_bool_and_whole_float_bits_accepted(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        out, side = embed_plain_then_encrypt(img, [True, 0.0, 1.0], keys, 16)
        assert extract_payload(out, side)[0].tolist() == [1, 0, 1]

    def test_payload_spans_planes_in_order(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        report = capacity_report(img)
        payload = random_bits(rng, report["per_plane"][0] + 5)
        _, side = embed_plain_then_encrypt(img, payload, keys, 16)
        assert side.bit_lengths == (report["per_plane"][0], 5, 0)

    def test_histogram_invariance(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        marked_plain = decrypt(out, side, keys)
        assert _plane_hists(out) == _plane_hists(marked_plain)
        _, etc_img = extract_payload(out, side)
        assert _plane_hists(etc_img) == _plane_hists(img)

    def test_marked_image_quality_floor(self, rng, keys):
        img = synth_image(128, 128, rng, color=True)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        assert psnr(img, decrypt(out, side, keys)) >= 10 * np.log10(255**2)

    def test_wrong_scramble_key_garbles(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        out, side = embed_plain_then_encrypt(img, [], keys, 8)
        bad = KeySet(k_scramble=bytes(16), k_orient=keys.k_orient)
        assert decrypt(out, side, bad) != img

    def test_tamper_locality(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        pair = side.pairs[0]
        grid = split_blocks(out.planes[0], 16)
        stack = block_stack(out.planes[0], grid)
        plan = build_order_plan(stack, pair)
        hit = 3  # flip the fourth slot between pp and the marked value
        flat = stack.ravel()
        slot = plan.visit_order()[0][hit]
        flat[slot] = pair.marked_value if flat[slot] == pair.pp else pair.pp
        bits, _ = extract_payload(Image((stack_to_plane(stack, grid),)), side)
        flipped = np.flatnonzero(bits != payload)
        assert flipped.tolist() == [hit]

    def test_extract_twice_detected(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        _, etc_img = extract_payload(out, side)
        with pytest.raises(SideInfoError, match="shifted state"):
            extract_payload(etc_img, side)

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="needs ROADMAP item 2's payload checksum: under the adjacent pair the "
        "shift is the identity, so an extracted image still reads as shifted",
    )
    def test_extract_twice_detected_under_adjacent_pair(self, keys):
        # pp = 100 is the tallest bin and 101 is empty: the pair is (100, 101).
        others = np.repeat(np.r_[90:100, 102:110], 8)
        plane = np.concatenate([others, np.full(256 - others.size, 100)]).reshape(16, 16)
        img = Image((plane.astype(np.uint8),))
        out, side = embed_plain_then_encrypt(img, np.ones(8, np.uint8), keys, 8)
        assert side.pairs == (HistPair(pp=100, zp=101),)
        bits, etc_img = extract_payload(out, side)
        assert bits.tolist() == [1] * 8
        assert decrypt(etc_img, side, keys) == img
        with pytest.raises(SideInfoError):
            extract_payload(etc_img, side)  # reads eight 0-bits today

    def test_joint_key_mode(self, rng):
        keys = KeySet(k_scramble=bytes(range(16)), k_orient=bytes(16), per_plane=False)
        img = synth_image(64, 64, rng, color=True)
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 8)
        assert not side.per_plane_keys
        bits, etc_img = extract_payload(out, side)
        assert np.array_equal(bits, payload)
        assert decrypt(etc_img, side, keys) == img

    def test_per_plane_flag_mismatch_rejected(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        out, side = embed_plain_then_encrypt(img, [], keys, 16)
        joint = KeySet(
            k_scramble=keys.k_scramble, k_orient=keys.k_orient, per_plane=False
        )
        with pytest.raises(SideInfoError, match="per-plane"):
            decrypt(out, side, joint)

    def test_operations_never_mutate_inputs(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        snapshot = Image(tuple(p.copy() for p in img.planes))
        payload = random_bits(rng, capacity_report(img)["total"])
        out, side = embed_plain_then_encrypt(img, payload, keys, 16)
        out_snapshot = Image(tuple(p.copy() for p in out.planes))
        extract_payload(out, side)
        decrypt(out, side, keys)
        assert img == snapshot
        assert out == out_snapshot


class TestTwoDomain:
    def test_both_payloads_at_capacity(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        caps = region_capacities(img, keys.k_region, 16)
        pa, pb = random_bits(rng, caps["A"]), random_bits(rng, caps["B"])
        out, side = embed_two_domain(img, pa, pb, keys, 16)

        bits_a, bits_b, etc_img = extract_two_domain(out, side, keys.k_region)
        assert np.array_equal(bits_a, pa)
        assert np.array_equal(bits_b, pb)
        assert decrypt(etc_img, side, keys) == img

        marked = decrypt(out, side, keys)
        bits_a2, bits_b2, original = extract_two_domain(marked, side, keys.k_region)
        assert np.array_equal(bits_a2, pa)
        assert np.array_equal(bits_b2, pb)
        assert original == img

    def test_empty_region_b_payload(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        caps = region_capacities(img, keys.k_region, 8)
        pa = random_bits(rng, caps["A"])
        out, side = embed_two_domain(img, pa, [], keys, 8)
        bits_a, bits_b, etc_img = extract_two_domain(out, side, keys.k_region)
        assert np.array_equal(bits_a, pa)
        assert bits_b.size == 0
        assert decrypt(etc_img, side, keys) == img

    def test_regional_capacity_sums_to_single_domain(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        caps = region_capacities(img, keys.k_region, 16)
        assert caps["A"] + caps["B"] == capacity_report(img)["total"]

    def test_per_region_capacity_errors(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        caps = region_capacities(img, keys.k_region, 16)
        with pytest.raises(CapacityExceededError, match="region A"):
            embed_two_domain(img, np.ones(caps["A"] + 1, np.uint8), [], keys, 16)
        with pytest.raises(CapacityExceededError, match="region B"):
            embed_two_domain(img, [], np.ones(caps["B"] + 1, np.uint8), keys, 16)

    @pytest.mark.parametrize("bits", [[0.6, 1.9, 1.0], [-1], [256]])
    def test_payloads_must_be_bits(self, rng, keys, bits):
        img = synth_image(64, 64, rng, color=False)
        for payload_a, payload_b in ((bits, []), ([], bits)):
            with pytest.raises(ValueError, match="0 or 1"):
                embed_two_domain(img, payload_a, payload_b, keys, 16)

    def test_ragged_payload_rejected(self, rng, keys):
        # Both payloads are read by `histshift.payload_bits`.
        img = synth_image(64, 64, rng, color=False)
        for payload_a, payload_b in (([[1, 0], [1]], []), ([], [[1, 0], [1]])):
            with pytest.raises(PayloadError, match="^payload is not an array of bits"):
                embed_two_domain(img, payload_a, payload_b, keys, 16)

    def test_requires_region_key(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        no_region = generate_keys(seed=3)
        with pytest.raises(SideInfoError, match="region key"):
            embed_two_domain(img, [], [], no_region, 16)
        out, side = embed_two_domain(img, [1, 0, 1], [], keys, 16)
        with pytest.raises(SideInfoError, match="region key"):
            extract_two_domain(out, side, None)
        with pytest.raises(SideInfoError, match="region key"):
            decrypt(out, side, no_region)
        # Every path above reads its region key through `region_labels`.
        with pytest.raises(SideInfoError, match="^two-domain mode requires a region key$"):
            region_labels(None, split_blocks(img.planes[0], 16))

    def test_region_with_no_marked_blocks(self, keys):
        # All slot pixels sit in region A's blocks; region B still encrypts
        # but carries an empty payload.
        grid = split_blocks(np.zeros((16, 32), np.uint8), 16)
        labels = region_labels(keys.k_region, grid)
        plane = np.full((16, 32), 50, dtype=np.uint8)
        target = int(np.flatnonzero(~labels)[0])
        rs, cs = block_slice(grid, target)
        plane[rs.start, cs.start] = 40
        plane[rs.start + 1, cs.start + 2] = 40
        img = Image((plane,))
        out, side = embed_two_domain(img, [1, 0], [], keys, 16)
        bits_a, bits_b, etc_img = extract_two_domain(out, side, keys.k_region)
        assert bits_a.tolist() == [1, 0]
        assert bits_b.size == 0
        assert decrypt(etc_img, side, keys) == img

    def test_region_map_regenerates(self, keys):
        grid = split_blocks(np.zeros((64, 64), np.uint8), 8)
        a = region_labels(keys.k_region, grid)
        b = region_labels(keys.k_region, grid)
        assert np.array_equal(a, b)
        region_a, region_b = np.flatnonzero(~a), np.flatnonzero(a)
        assert set(region_a) | set(region_b) == set(range(64))
        assert not set(region_a) & set(region_b)

    def test_joint_keys_two_domain(self, rng, keys):
        joint = KeySet(
            k_scramble=keys.k_scramble,
            k_orient=keys.k_orient,
            k_region=keys.k_region,
            per_plane=False,
        )
        img = synth_image(64, 64, rng, color=True)
        caps = region_capacities(img, joint.k_region, 8)
        pa, pb = random_bits(rng, caps["A"]), random_bits(rng, caps["B"])
        out, side = embed_two_domain(img, pa, pb, joint, 8)
        bits_a, bits_b, etc_img = extract_two_domain(out, side, joint.k_region)
        assert np.array_equal(bits_a, pa)
        assert np.array_equal(bits_b, pb)
        assert decrypt(etc_img, side, joint) == img

    def test_wrong_region_key_garbles(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        caps = region_capacities(img, keys.k_region, 16)
        pa, pb = random_bits(rng, caps["A"]), random_bits(rng, caps["B"])
        out, side = embed_two_domain(img, pa, pb, keys, 16)
        try:
            bits_a, bits_b, _ = extract_two_domain(out, side, bytes(16))
            assert not (
                np.array_equal(bits_a, pa) and np.array_equal(bits_b, pb)
            )
        except SideInfoError:
            pass  # detected inconsistency is equally acceptable


class TestShiftedStateProbe:
    @pytest.mark.parametrize("at", [None, 0, 2**18 - 1, 2**18, 2 * 2**18 + 4])
    def test_finds_zp_in_any_slice(self, at):
        # Three probe slices, the last one partial; zp (9) sits in any of them.
        stack = np.full((2 * 2**18 + 5, 1, 1), 50, dtype=np.uint8)
        if at is not None:
            stack[at] = 9
        assert (not is_shifted(stack, HistPair(pp=7, zp=9))) == (at is None)

    @pytest.mark.parametrize("pair", [HistPair(pp=7, zp=8), HistPair(pp=7, zp=6)])
    def test_adjacent_pair_is_always_shifted(self, pair):
        # zp is the marked value: the shift is the identity, so a plane with
        # or without zp samples is in both states at once.
        stack = np.full((4, 1, 1), 7, dtype=np.uint8)
        assert is_shifted(stack, pair)
        stack[-1] = pair.zp
        assert is_shifted(stack, pair)


class TestPlanBuilds:
    """One order plan per plane serves every scope and every step: embedding
    writes every scope before the blocks move, extraction plans once, and
    decryption carries the rotation set through unscrambling. Each call
    converts every plane to its block stack once and back once."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_builds_per_plane(self, rng, keys, monkeypatch, mode):
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        for fn in (build_order_plan, block_stack, stack_to_plane, is_shifted):
            monkeypatch.setattr(pipeline, fn.__name__, counting(fn))
        per_call = ["block_stack", "build_order_plan", "stack_to_plane"] * 3
        # Each receiver call probes each plane once.
        per_receive = per_call + ["is_shifted"] * 3
        img = synth_image(64, 64, rng, color=True)
        if mode == Mode.TWO_DOMAIN:
            out, side = embed_two_domain(img, [1, 0, 1], [0, 1], keys, 16)
        elif mode == Mode.PLAIN_FIRST:
            out, side = embed_plain_then_encrypt(img, [1, 0, 1], keys, 16)
        else:
            out, side = encrypt_then_embed(img, [1, 0, 1], keys, 16)
        assert sorted(calls) == sorted(per_call)
        calls.clear()
        if mode == Mode.TWO_DOMAIN:
            *_, etc_img = extract_two_domain(out, side, keys.k_region)
        else:
            _, etc_img = extract_payload(out, side)
        assert sorted(calls) == sorted(per_receive)
        calls.clear()
        assert decrypt(etc_img, side, keys) == img
        assert sorted(calls) == sorted(per_receive)

    @pytest.mark.parametrize("extract_first", [True, False])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_visit_order_only_where_read(self, rng, keys, monkeypatch, mode, extract_first):
        # Decryption reads only the plans' eligibility masks, so it never
        # builds the slot visit order; embedding and extraction build it
        # once per plane.
        calls = []
        visit_order = ordering._visit_order

        def counted(*args):
            calls.append(1)
            return visit_order(*args)

        monkeypatch.setattr(ordering, "_visit_order", counted)
        embed = {
            Mode.PLAIN_FIRST: embed_plain_then_encrypt,
            Mode.ENCRYPT_FIRST: encrypt_then_embed,
            Mode.TWO_DOMAIN: embed_two_domain,
        }[mode]
        img = synth_image(64, 64, rng, color=True)
        payloads = ([1, 0, 1], [0, 1]) if mode == Mode.TWO_DOMAIN else ([1, 0, 1],)
        out, side = embed(img, *payloads, keys, 16)
        assert len(calls) == 3

        def extract(image):
            calls.clear()
            if mode == Mode.TWO_DOMAIN:
                *_, plain = extract_two_domain(image, side, keys.k_region)
            else:
                plain = extract_payload(image, side)[1]
            assert len(calls) == 3
            return plain

        def decrypt_once(image):
            calls.clear()
            plain = decrypt(image, side, keys)
            assert calls == []
            return plain

        if extract_first:
            assert decrypt_once(extract(out)) == img
        else:
            assert extract(decrypt_once(out)) == img


@st.composite
def transport_cases(draw):
    """Three planes of small values (ties and ambiguous blocks are common)
    or of one tile under random orientations, a mode, and per-plane or
    shared keys."""
    block = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    planes = []
    for _ in range(3):
        if draw(st.booleans()):
            plane = draw(
                arrays(np.uint8, (rows * block, cols * block), elements=st.integers(10, 13))
            )
        else:
            tile = draw(arrays(np.uint8, (block, block), elements=st.integers(10, 12)))
            ids = draw(st.lists(st.integers(0, 7), min_size=rows * cols, max_size=rows * cols))
            plane = np.block(
                [[apply_orientation(tile, ids[r * cols + c]) for c in range(cols)]
                 for r in range(rows)]
            )
        planes.append(plane)
    keys = generate_keys(
        two_domain=True, per_plane=draw(st.booleans()), seed=draw(st.integers(0, 2**32))
    )
    return planes, block, draw(st.sampled_from(list(Mode))), keys


def _embed_case(case, seed):
    """The case's image, random payloads within each scope's capacity, and
    the embedding's output and side info."""
    planes, block, mode, keys = case
    image = Image(tuple(planes))
    caps = region_capacities(image, keys.k_region, block)
    caps = [caps["A"], caps["B"]] if mode == Mode.TWO_DOMAIN else [sum(caps.values())]
    rng = np.random.default_rng(seed)
    payloads = tuple(random_bits(rng, rng.integers(0, cap + 1)) for cap in caps)
    return image, payloads, *pipeline._embed(mode, image, payloads, keys, block)


class TestPlanTransport:
    """Nothing is planned twice, and the rebuilt plan is the reference:
    embedding equals the keyless hider that plans the ciphertext again, and
    decryption, which carries its rotation set through the unscramble,
    equals a decryptor that plans the unscrambled planes again."""

    @settings(max_examples=200)
    @given(transport_cases(), st.integers(0, 2**32 - 1))
    def test_embed_equals_reference(self, case, seed):
        _, block, mode, keys = case
        image, payloads, out, _ = _embed_case(case, seed)
        assert out == encrypted_domain_reference(image, payloads, keys, block, mode)

    @settings(max_examples=200)
    @given(transport_cases(), st.integers(0, 2**32 - 1))
    def test_decrypt_equals_reference(self, case, seed):
        _, block, mode, keys = case
        *_, out, side = _embed_case(case, seed)
        assert decrypt(out, side, keys) == ref_decrypt(out, side.pairs, keys, block, mode)

    @pytest.mark.parametrize("extract_first", [True, False])
    @settings(max_examples=200)
    @given(transport_cases(), st.integers(0, 2**32 - 1))
    def test_receiver_orders_restore_original(self, extract_first, case, seed):
        # Extraction leaves unshifted planes, which decryption plans as
        # they arrive; decryption first leaves marked plain planes.
        keys = case[3]
        image, payloads, out, side = _embed_case(case, seed)

        def extract(img):
            if side.mode == Mode.TWO_DOMAIN:
                *bits, plain = extract_two_domain(img, side, keys.k_region)
                return bits, plain
            bits, plain = extract_payload(img, side)
            return [bits], plain

        if extract_first:
            bits, plain = extract(out)
            restored = decrypt(plain, side, keys)
        else:
            bits, restored = extract(decrypt(out, side, keys))
        assert restored == image
        assert len(bits) == len(payloads)
        for got, want in zip(bits, payloads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("extract_first", [True, False])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_decrypt_neither_shifts_nor_unshifts(
        self, rng, keys, monkeypatch, mode, extract_first
    ):
        img = synth_image(64, 64, rng, color=True)
        payloads = ([1, 0, 1], [0, 1]) if mode == Mode.TWO_DOMAIN else ([1, 0, 1],)
        out, side = pipeline._embed(mode, img, payloads, keys, 8)

        def extract(image):
            if mode == Mode.TWO_DOMAIN:
                *_, plain = extract_two_domain(image, side, keys.k_region)
                return plain
            return extract_payload(image, side)[1]

        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        for fn in (histshift.shift_histogram, histshift.unshift_histogram):
            for module in (pipeline, histshift):
                monkeypatch.setattr(module, fn.__name__, counting(fn))
        if extract_first:
            plain = extract(out)
            calls.clear()
            assert decrypt(plain, side, keys) == img
            assert calls == []
        else:
            marked = decrypt(out, side, keys)
            assert calls == []
            assert extract(marked) == img

    @pytest.mark.parametrize("per_plane", [True, False])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_shared_keys_draw_once(self, rng, monkeypatch, mode, per_plane):
        # One draw of each kind per scope and plane, or per scope when every
        # plane shares the keys.
        calls = []

        def counting(draw):
            def counted(*args):
                calls.append(draw.__name__)
                return draw(*args)

            return counted

        for draw in (pipeline.draw_permutation, pipeline.draw_orientations):
            monkeypatch.setattr(pipeline, draw.__name__, counting(draw))
        keys = generate_keys(two_domain=True, per_plane=per_plane, seed=7)
        img = synth_image(64, 64, rng, color=True)
        n_scopes = 2 if mode == Mode.TWO_DOMAIN else 1
        per_kind = n_scopes * (3 if per_plane else 1)
        payloads = ([1, 0], [1]) if mode == Mode.TWO_DOMAIN else ([1, 0],)
        out, side = pipeline._embed(mode, img, payloads, keys, 8)
        assert sorted(calls) == ["draw_orientations"] * per_kind + ["draw_permutation"] * per_kind
        calls.clear()
        decrypt(out, side, keys)
        assert sorted(calls) == ["draw_orientations"] * per_kind + ["draw_permutation"] * per_kind


class TestSideInfo:
    def _sample(self):
        return SideInfo(
            mode=Mode.TWO_DOMAIN,
            block=16,
            pairs=(HistPair(12, 17), HistPair(200, 190), HistPair(3, 4)),
            bit_lengths=(10, 0, 99, 1, 2**40, 7),
            per_plane_keys=False,
        )

    def test_round_trip(self):
        side = self._sample()
        assert SideInfo.from_bytes(side.to_bytes()) == side

    def test_file_round_trip(self, tmp_path):
        side = self._sample()
        side.save(tmp_path / "s.etrd")
        assert SideInfo.load(tmp_path / "s.etrd") == side

    def test_magic(self):
        assert self._sample().to_bytes()[:4] == b"ETRD"

    def test_crc_detects_corruption(self):
        raw = bytearray(self._sample().to_bytes())
        raw[10] ^= 0xFF
        with pytest.raises(SideInfoError, match="CRC"):
            SideInfo.from_bytes(bytes(raw))

    def test_truncation_detected(self):
        raw = self._sample().to_bytes()
        with pytest.raises(SideInfoError):
            SideInfo.from_bytes(raw[:9])
        for size in range(4, 8):  # the magic, and less than a CRC after it
            with pytest.raises(SideInfoError, match="side info truncated"):
                SideInfo.from_bytes(raw[:size])

    def test_trailing_bytes_detected(self):
        raw = self._sample().to_bytes()
        with pytest.raises(SideInfoError):
            SideInfo.from_bytes(raw[:-4] + b"\x00" + raw[-4:])

    def test_fields_past_the_body_read_truncated(self):
        # The pair count sits at byte 11; with two pairs the length count
        # sits at byte 16. Under a recomputed CRC the declared fields need
        # 25 bytes of a 23-byte body.
        raw = bytearray(SideInfo(Mode.PLAIN_FIRST, 16, (HistPair(1, 2),), (3,)).to_bytes())
        raw[11], raw[16] = 2, 1
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "big")
        with pytest.raises(SideInfoError, match="truncated"):
            SideInfo.from_bytes(bytes(raw))

    def test_non_square_blocks_rejected(self):
        # Block width and height sit at bytes 7-10; declare 16x8 blocks and
        # recompute the CRC so that only the geometry is wrong.
        raw = bytearray(self._sample().to_bytes())
        raw[9:11] = (8).to_bytes(2, "big")
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "big")
        with pytest.raises(SideInfoError, match="square blocks"):
            SideInfo.from_bytes(bytes(raw))

    def test_per_plane_flag_must_be_0_or_1(self):
        # The per-plane key flag sits at byte 6. The writer emits only 0 and
        # 1; every other value is refused, even under a recomputed CRC.
        raw = bytearray(self._sample().to_bytes())
        for value in range(256):
            raw[6] = value
            raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "big")
            if value in (0, 1):
                assert SideInfo.from_bytes(bytes(raw)).per_plane_keys is bool(value)
                continue
            with pytest.raises(SideInfoError, match="per-plane key flag"):
                SideInfo.from_bytes(bytes(raw))

    def test_mode_byte_must_name_a_mode(self):
        # The mode sits at byte 5. Under a recomputed CRC each mode's value
        # reads back as that mode, where the length count fits it, and every
        # other value is refused.
        single = SideInfo(Mode.PLAIN_FIRST, 16, (HistPair(12, 17),), (10,))
        for side in (single, self._sample()):
            raw = bytearray(side.to_bytes())
            for value in range(256):
                raw[5] = value
                raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "big")
                if value >= len(Mode):
                    with pytest.raises(SideInfoError, match="malformed side info: .*Mode"):
                        SideInfo.from_bytes(bytes(raw))
                elif (value == Mode.TWO_DOMAIN) == (side.mode == Mode.TWO_DOMAIN):
                    got = SideInfo.from_bytes(bytes(raw))
                    assert got.mode is Mode(value)
                    assert got == replace(side, mode=value)
                else:
                    with pytest.raises(SideInfoError, match="bit lengths"):
                        SideInfo.from_bytes(bytes(raw))

    def test_version_byte_is_read_first(self):
        # The version sits at byte 4. Any other version is refused as such,
        # before fields whose meaning it could change: here a mode byte that
        # version 1 does not define.
        raw = bytearray(self._sample().to_bytes())
        raw[5] = 7
        for value in range(256):
            raw[4] = value
            raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "big")
            want = "malformed side info" if value == 1 else f"unsupported side-info version {value}"
            with pytest.raises(SideInfoError, match=want):
                SideInfo.from_bytes(bytes(raw))

    def test_length_count_must_match_mode(self):
        with pytest.raises(SideInfoError):
            SideInfo(
                mode=Mode.PLAIN_FIRST,
                block=16,
                pairs=(HistPair(1, 2),),
                bit_lengths=(1, 2),
            )

    @pytest.mark.parametrize(
        "block, n_pairs, lengths",
        [
            (0, 1, (1,)),
            (70000, 1, (1,)),
            (-16, 1, (1,)),
            (16, 1, (-1,)),
            (16, 1, (2**64,)),
            (16, 256, (0,) * 256),
        ],
    )
    def test_unwritable_fields_rejected(self, block, n_pairs, lengths):
        # Every field `to_bytes` could not pack is refused at construction,
        # with the library's error rather than a raw struct.error.
        pairs = (HistPair(1, 2),) * n_pairs
        with pytest.raises(SideInfoError):
            SideInfo(mode=Mode.PLAIN_FIRST, block=block, pairs=pairs, bit_lengths=lengths)

    def test_limits_accepted(self):
        for block, n_pairs in ((1, 0), (65535, 255)):
            lengths = (2**64 - 1,) * n_pairs
            side = SideInfo(Mode.ENCRYPT_FIRST, block, (HistPair(9, 0),) * n_pairs, lengths)
            assert SideInfo.from_bytes(side.to_bytes()) == side

    @settings(max_examples=200)
    @given(st.data())
    def test_every_accepted_side_info_round_trips(self, data):
        mode = data.draw(st.sampled_from(list(Mode)))
        per_pair = 2 if mode == Mode.TWO_DOMAIN else 1
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 255), st.integers(0, 255))
                .filter(lambda v: v[0] != v[1])
                .map(lambda v: HistPair(*v)),
                max_size=255 // per_pair,
            )
        )
        lengths = data.draw(
            st.lists(
                st.integers(0, 2**64 - 1),
                min_size=per_pair * len(pairs),
                max_size=per_pair * len(pairs),
            )
        )
        side = SideInfo(
            mode=mode,
            block=data.draw(st.integers(1, 65535)),
            pairs=tuple(pairs),
            bit_lengths=tuple(lengths),
            per_plane_keys=data.draw(st.booleans()),
        )
        assert SideInfo.from_bytes(side.to_bytes()) == side

    def test_declared_length_beyond_slots(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        out, side = embed_plain_then_encrypt(img, [], keys, 16)
        bogus = SideInfo(
            mode=side.mode,
            block=16,
            pairs=side.pairs,
            bit_lengths=(10**6,),
        )
        with pytest.raises(SideInfoError, match="slots"):
            extract_payload(out, bogus)

    def test_plane_count_mismatch(self, rng, keys):
        img = synth_image(64, 64, rng, color=True)
        out, side = embed_plain_then_encrypt(img, [], keys, 16)
        with pytest.raises(SideInfoError, match="planes"):
            extract_payload(Image((out.planes[0],)), side)

    def test_two_domain_side_needs_two_domain_extract(self, rng, keys):
        img = synth_image(64, 64, rng, color=False)
        out, side = embed_two_domain(img, [], [], keys, 16)
        with pytest.raises(SideInfoError):
            extract_payload(out, side)
        out, side = embed_plain_then_encrypt(img, [], keys, 16)
        with pytest.raises(SideInfoError, match="does not describe two-domain"):
            extract_two_domain(out, side, keys.k_region)
