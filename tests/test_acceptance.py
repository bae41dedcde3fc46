"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The reversibility trials are shared by criteria 1, 3, and 4 through a
module-scoped fixture so the suite stays within its time budget.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from blockmark import (
    CodecSpec,
    Image,
    Mode,
    block_stack,
    capacity_report,
    compression_eval,
    correlation_report,
    decrypt,
    embed_bits,
    embed_plain_then_encrypt,
    embed_two_domain,
    encrypt_then_embed,
    extract_payload,
    extract_two_domain,
    find_pp_zp,
    generate_keys,
    histogram,
    load_codec_config,
    load_image,
    psnr,
    resize_topleft,
    save_image,
    shift_histogram,
    split_blocks,
)
from blockmark.image_io import stack_to_plane
from blockmark.ordering import (
    apply_orientation,
    build_order_plan,
    canonical_keys,
)
from blockmark.pipeline import region_labels
from conftest import (
    encrypted_domain_reference,
    key_signature,
    natural_plane,
    ref_canonical_signature,
    ref_orientation_permutations,
    region_capacities,
    synth_image,
)

PSNR_FLOOR = 10 * math.log10(255**2)  # 48.1308 dB


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")


@dataclass
class TrialRecord:
    mode: str
    payload_ok: bool
    image_ok: bool
    psnr_db: float
    hist_encryption_ok: bool
    hist_restored_ok: bool


@dataclass
class TrialSuite:
    records: list[TrialRecord] = field(default_factory=list)
    elapsed: float = 0.0


def _plane_hists(image: Image) -> list[list[int]]:
    return [histogram(p).tolist() for p in image.planes]


def _marked_plain_reference(image, payload, keys, block, mode):
    """Plain-domain marked image rebuilt from primitives only (no cipher),
    used as the non-circular before-encryption histogram reference."""
    grid = split_blocks(image.planes[0], block)
    if mode == "two-domain":
        labels = region_labels(keys.k_region, grid)
        payloads = list(payload)  # (bits_a, bits_b)
    else:
        labels = None
        payloads = [payload]
    planes = []
    offsets = [0] * len(payloads)
    for plane in image.planes:
        pair = find_pp_zp(plane)
        work = block_stack(plane, grid)
        shift_histogram(work, pair)
        plan = build_order_plan(work, pair, labels)
        plan_slots, slot_labels = plan.visit_order()
        for s, bits in enumerate(payloads):
            slots = plan_slots[slot_labels == s]
            take = min(slots.size, bits.size - offsets[s])
            chunk = bits[offsets[s] : offsets[s] + take]
            offsets[s] += take
            embed_bits(work, pair, slots, chunk)
        planes.append(stack_to_plane(work, grid))
    return Image(tuple(planes))


def _run_trial(trial: int, color: bool, size: int, block: int, mode: str) -> TrialRecord:
    rng = np.random.default_rng(10_000 + trial)
    image = synth_image(size, size, rng, color=color)
    keys = generate_keys(two_domain=True, seed=77_000 + trial)

    if mode == "two-domain":
        cap_a, cap_b = region_capacities(image, keys.k_region, block).values()
        bits_a = rng.integers(0, 2, size=cap_a, dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=cap_b, dtype=np.uint8)
        output, side = embed_two_domain(image, bits_a, bits_b, keys, block)
        reference = _marked_plain_reference(
            image, (bits_a, bits_b), keys, block, mode
        )

        got_a1, got_b1, etc_img = extract_two_domain(output, side, keys.k_region)
        original_1 = decrypt(etc_img, side, keys)
        marked = decrypt(output, side, keys)
        got_a2, got_b2, original_2 = extract_two_domain(marked, side, keys.k_region)

        payload_ok = (
            np.array_equal(got_a1, bits_a)
            and np.array_equal(got_b1, bits_b)
            and np.array_equal(got_a2, bits_a)
            and np.array_equal(got_b2, bits_b)
        )
    else:
        payload = rng.integers(
            0, 2, size=capacity_report(image)["total"], dtype=np.uint8
        )
        embed = embed_plain_then_encrypt if mode == "plain-first" else encrypt_then_embed
        output, side = embed(image, payload, keys, block)
        reference = _marked_plain_reference(image, payload, keys, block, mode)

        got_1, etc_img = extract_payload(output, side)
        original_1 = decrypt(etc_img, side, keys)
        marked = decrypt(output, side, keys)
        got_2, original_2 = extract_payload(marked, side)

        payload_ok = np.array_equal(got_1, payload) and np.array_equal(got_2, payload)

    return TrialRecord(
        mode=mode,
        payload_ok=payload_ok,
        image_ok=original_1 == image and original_2 == image,
        psnr_db=psnr(image, marked),
        hist_encryption_ok=_plane_hists(output) == _plane_hists(reference),
        hist_restored_ok=_plane_hists(etc_img) == _plane_hists(image),
    )


@pytest.fixture(scope="module")
def trial_suite() -> TrialSuite:
    combos = list(
        itertools.product(
            (False, True),  # grayscale, RGB
            (64, 128),
            (8, 16),
            ("plain-first", "encrypted-first", "two-domain"),
        )
    )
    suite = TrialSuite()
    start = time.monotonic()
    for trial in range(200):
        color, size, block, mode = combos[trial % len(combos)]
        suite.records.append(_run_trial(trial, color, size, block, mode))
    suite.elapsed = time.monotonic() - start
    return suite


def test_c1_reversibility(trial_suite):
    """200 randomized trials: payloads and images recovered byte-exactly via
    both (extract, decrypt) orders, in under five minutes."""
    failures = [
        i
        for i, r in enumerate(trial_suite.records)
        if not (r.payload_ok and r.image_ok)
    ]
    ok = not failures and len(trial_suite.records) == 200 and trial_suite.elapsed < 300
    _report(
        "C1 reversibility (200 trials, both orders)",
        ok,
        f"{200 - len(failures)}/200 exact, {trial_suite.elapsed:.1f}s",
    )
    assert not failures, f"trials with imperfect recovery: {failures}"
    assert trial_suite.elapsed < 300, f"suite took {trial_suite.elapsed:.1f}s"


def test_c2_dihedral_canonicalization():
    """1,000 random masks: canonical signature invariant under all 8
    orientations; ambiguity exactly when >= 2 orientations tie."""
    rng = np.random.default_rng(42)
    checked = 0
    for n in (8, 16):
        masks = []
        for _ in range(500):
            density = rng.uniform(0.05, 0.6)
            mask = rng.random((n, n)) < density
            if not mask.any():
                mask[rng.integers(n), rng.integers(n)] = True
            masks.append(mask)
        # One call per block size: row 8 * i + o is mask i under orientation o.
        stack = np.stack(
            [apply_orientation(m, o).ravel() for m in masks for o in range(8)]
        )
        orientation, ambiguous, key = canonical_keys(
            *np.nonzero(stack), stack.sum(axis=1), stack.shape[1]
        )
        # Each row read under its chosen orientation.
        rows = np.arange(len(stack))[:, None]
        oriented = stack[rows, ref_orientation_permutations(n)[orientation]]
        for i, mask in enumerate(masks):
            expected_sig, expected_amb = ref_canonical_signature(mask)
            for row in range(8 * i, 8 * i + 8):
                assert key_signature(key[row], n * n) == expected_sig
                assert ambiguous[row] == expected_amb
                if not expected_amb:
                    assert tuple(np.flatnonzero(oriented[row])) == expected_sig
            checked += 1
    _report("C2 dihedral canonicalization oracle", checked == 1000, f"{checked} masks x 8 orientations")
    assert checked == 1000


def test_c3_histogram_invariance(trial_suite):
    """Every trial: multiset unchanged by encryption, original histogram
    restored after un-shift. Exact equality."""
    enc_bad = [i for i, r in enumerate(trial_suite.records) if not r.hist_encryption_ok]
    res_bad = [i for i, r in enumerate(trial_suite.records) if not r.hist_restored_ok]
    ok = not enc_bad and not res_bad
    _report("C3 histogram invariance (exact)", ok, f"{len(trial_suite.records)} trials")
    assert not enc_bad, f"encryption changed the histogram in trials {enc_bad}"
    assert not res_bad, f"un-shift failed to restore the histogram in trials {res_bad}"


def test_c4_psnr_floor(trial_suite):
    """Marked (decryption-only) image quality >= 48.13 dB in every trial."""
    values = [r.psnr_db for r in trial_suite.records]
    worst = min(values)
    ok = worst >= PSNR_FLOOR - 1e-9
    _report("C4 PSNR floor 48.13 dB", ok, f"worst {worst:.2f} dB")
    assert ok, f"worst marked-image PSNR {worst:.4f} below floor {PSNR_FLOOR:.4f}"


KODAK_DIR = os.environ.get("BLOCKMARK_KODAK_DIR")
KODAK_CAPACITIES = [313_482, 601_220, 484_534, 528_158]
KODAK_PSNRS = [57.44, 52.56, 52.00, 54.55]


@pytest.mark.skipif(
    not KODAK_DIR,
    reason="reference test images not configured (set BLOCKMARK_KODAK_DIR); "
    "the analytic floor plus property suite substitutes",
)
def test_c4_reference_images():
    """Exact capacities and PSNR within +/-0.5 dB on the reference images."""
    rng = np.random.default_rng(0)
    for i, (cap_expected, psnr_expected) in enumerate(
        zip(KODAK_CAPACITIES, KODAK_PSNRS), start=1
    ):
        image = load_image(os.path.join(KODAK_DIR, f"image{i}.ppm"))
        report = capacity_report(image)
        assert report["total"] == cap_expected, f"image {i} capacity {report}"
        values = []
        for trial in range(20):
            payload = rng.integers(0, 2, size=report["total"], dtype=np.uint8)
            keys = generate_keys(seed=trial)
            output, side = embed_plain_then_encrypt(image, payload, keys, 16)
            values.append(psnr(image, decrypt(output, side, keys)))
        mean = float(np.mean(values))
        assert abs(mean - psnr_expected) <= 0.5, f"image {i} PSNR {mean:.2f}"
    _report("C4b reference-image capacity/PSNR", True)


def test_c5_capacity_block_size_independence():
    """Capacity identical across block sizes 16/32/64, exact."""
    rng = np.random.default_rng(9)
    image = synth_image(192, 192, rng, color=True)
    report_total = capacity_report(image)["total"]
    slot_totals = {}
    for block in (16, 32, 64):
        grid = split_blocks(image.planes[0], block)
        total = 0
        for plane in image.planes:
            pair = find_pp_zp(plane)
            stack = block_stack(plane, grid)
            shift_histogram(stack, pair)
            total += build_order_plan(stack, pair).visit_order()[0].size
        slot_totals[block] = total
    ok = all(t == report_total for t in slot_totals.values())
    _report("C5 capacity block-size independence", ok, f"{slot_totals}")
    assert ok, f"capacities diverge: report {report_total}, slots {slot_totals}"


def test_c6_correlation():
    """20 random-key encryptions of a natural 512x512 image: mean |r| <= 0.05
    in all directions on the subsampled output; original r_h > 0.5."""
    start = time.monotonic()
    block = 8  # the subsampled image must admit 2000 distinct anchor pairs
    image = Image((natural_plane(512, 512, seed=31),))

    original_resized = resize_topleft(image, block).planes[0]
    original_report = correlation_report(original_resized, pairs=2000, seed=0)

    sums = {"horizontal": 0.0, "vertical": 0.0, "diagonal": 0.0}
    for trial in range(20):
        keys = generate_keys(seed=50_000 + trial)
        output, _ = embed_plain_then_encrypt(image, [], keys, block)
        resized = resize_topleft(output, block).planes[0]
        report = correlation_report(resized, pairs=2000, seed=trial)
        sums["horizontal"] += report.horizontal
        sums["vertical"] += report.vertical
        sums["diagonal"] += report.diagonal
    means = {k: abs(v / 20) for k, v in sums.items()}
    elapsed = time.monotonic() - start

    ok = all(v <= 0.05 for v in means.values()) and original_report.horizontal > 0.5
    detail = (
        f"mean |r| h={means['horizontal']:.4f} v={means['vertical']:.4f} "
        f"d={means['diagonal']:.4f}; original r_h={original_report.horizontal:.4f}; "
        f"{elapsed:.1f}s"
    )
    _report("C6 block correlation destroyed", ok, detail)
    assert original_report.horizontal > 0.5
    assert all(v <= 0.05 for v in means.values()), detail
    assert elapsed < 120, f"criterion took {elapsed:.1f}s"


def test_c7_mode_equivalence():
    """Plain-first and encrypted-first outputs pixel-identical, and equal to
    the keyless encrypted-domain hider's, 100 trials."""
    mismatches = 0
    for trial in range(100):
        rng = np.random.default_rng(3_000 + trial)
        image = synth_image(64, 64, rng, color=trial % 2 == 0)
        payload = rng.integers(
            0, 2, size=capacity_report(image)["total"], dtype=np.uint8
        )
        keys = generate_keys(seed=8_000 + trial)
        block = 8 if trial % 3 == 0 else 16
        a, side_a = embed_plain_then_encrypt(image, payload, keys, block)
        b, side_b = encrypt_then_embed(image, payload, keys, block)
        ref = encrypted_domain_reference(image, (payload,), keys, block, Mode.ENCRYPT_FIRST)
        if not (a == b == ref and side_a.pairs == side_b.pairs):
            mismatches += 1
    _report("C7 mode equivalence (100 trials)", mismatches == 0)
    assert mismatches == 0


CODEC_CONFIG = os.environ.get("BLOCKMARK_CODEC_CONFIG")


@pytest.mark.skipif(
    not CODEC_CONFIG,
    reason="no external JPEG-LS codec configured (set BLOCKMARK_CODEC_CONFIG "
    "to a codec JSON file); criterion skipped and reported as such",
)
def test_c8_compression_harness(tmp_path):
    """With an external lossless codec: output image compresses to within
    10% of the original image's compressed size at 16x16 blocks."""
    specs = load_codec_config(CODEC_CONFIG)
    image = Image((natural_plane(512, 512, seed=77),))
    keys = generate_keys(seed=123)
    payload = np.random.default_rng(5).integers(
        0, 2, size=capacity_report(image)["total"], dtype=np.uint8
    )
    output, _ = embed_plain_then_encrypt(image, payload, keys, 16)

    src_path = tmp_path / "original.pgm"
    out_path = tmp_path / "output.pgm"
    save_image(image, src_path)
    save_image(output, out_path)

    for spec in specs:
        original = compression_eval(src_path, spec)
        encrypted = compression_eval(out_path, spec)
        delta = abs(encrypted.compressed_bytes - original.compressed_bytes)
        rel = delta / original.compressed_bytes
        _report(
            f"C8 compression ({spec.name})",
            rel <= 0.10,
            f"original {original.compressed_bytes} B, output "
            f"{encrypted.compressed_bytes} B, delta {rel:.1%}",
        )
        assert rel <= 0.10


def test_c8_reports_skip_reason():
    """The harness criterion is conditional; record the active state."""
    if CODEC_CONFIG:
        _report("C8 codec configured", True, CODEC_CONFIG)
    else:
        _report(
            "C8 compression harness", True,
            "SKIPPED: no external JPEG-LS codec configured",
        )
