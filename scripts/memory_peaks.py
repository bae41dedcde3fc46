#!/usr/bin/env python3
"""Traced peak memory of each API call, in multiples of the raw image.

For every benchmark workload, runs one round trip on its golden input
(`bench/workloads.py`, read-only) through the public pipeline calls, in the
workload's mode and receiver order, and prints one `key=value` line per call:

    texture-rgb-b16.embed_peak_x=3.90

The figure is the `tracemalloc` peak during the call, less what was traced
before it, divided by the raw image bytes (one byte per sample). It counts
live Python and numpy allocations only, so unlike the benchmark's resident
set reading it does not depend on heap layout. `--scale N` divides every
image side by N. The round trip must restore the image and the payload
byte for byte; otherwise the script exits 1.

    python scripts/memory_peaks.py --scale 8
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import blockmark as bm  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS, make_inputs  # noqa: E402


def traced_peak(fn, *args):
    """`fn(*args)` and the traced peak it added, in bytes."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - before


def round_trip(w, inp):
    """Per-call traced peaks of one round trip, and whether it was exact."""
    image = bm.decode_image(inp.image_bytes)
    embed = {
        "plain-first": bm.embed_plain_then_encrypt,
        "encrypted-first": bm.encrypt_then_embed,
        "two-domain": bm.embed_two_domain,
    }[w.mode]
    (sent, side), peaks = traced_peak(embed, image, *inp.payloads, inp.keys, w.block)
    peaks = {"embed": peaks}

    def extract(img):
        if w.mode == "two-domain":
            (a, b, rest), peaks["extract"] = traced_peak(
                bm.extract_two_domain, img, side, inp.keys.k_region
            )
            return (a, b), rest
        (bits, rest), peaks["extract"] = traced_peak(bm.extract_payload, img, side)
        return (bits,), rest

    if w.extract_first:
        bits, plain = extract(sent)
        restored, peaks["decrypt"] = traced_peak(bm.decrypt, plain, side, inp.keys)
    else:
        marked, peaks["decrypt"] = traced_peak(bm.decrypt, sent, side, inp.keys)
        bits, restored = extract(marked)
    ok = bm.encode_image(restored) == inp.image_bytes and all(
        np.array_equal(got, want) for got, want in zip(bits, inp.payloads)
    )
    return peaks, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=1, help="divide every image side by this")
    args = parser.parse_args()

    failed = False
    for name, w in WORKLOADS.items():
        inp = make_inputs(bm, w, GOLDEN_SEED, args.scale)
        tracemalloc.start()
        try:
            peaks, ok = round_trip(w, inp)
        finally:
            tracemalloc.stop()
        print(f"{name}.image_bytes={inp.samples}")
        for call, peak in peaks.items():
            print(f"{name}.{call}_peak_x={peak / inp.samples:.2f}")
        print(f"{name}.roundtrip_ok={int(ok)}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
