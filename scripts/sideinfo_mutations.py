#!/usr/bin/env python3
"""What the receiver does with every single-byte mutation of side info.

Embeds plain-first into IMAGE with fixed keys (`generate_keys(seed=1)`)
and a `default_rng(0)` payload, once at full capacity and once at half
capacity. Then it tries every single-byte mutation of the side info
between the magic and the CRC, with the CRC recomputed, and runs extract,
then decrypt, on each. It prints one `key=value` count per outcome; on
`make_test_images.py`'s 128x128 `synth1.pgm` at block 8 the full-capacity
counts read:

    full.raised=4520
    full.wrong_image=323
    full.wrong_payload=1
    full.exact=1
    full.other=0

`raised` is a `BlockmarkError`; `wrong_image` and `wrong_payload` returned
without an error but did not restore the image or the payload; `other` is
any other exception. The script exits 1 when `other` is not 0.

    python scripts/sideinfo_mutations.py synth1.pgm --block 8
"""

import argparse
import zlib

import numpy as np

from blockmark import (
    BlockmarkError,
    SideInfo,
    capacity_report,
    decrypt,
    embed_plain_then_encrypt,
    extract_payload,
    generate_keys,
    load_image,
)

OUTCOMES = ("raised", "wrong_image", "wrong_payload", "exact", "other")


def outcome(marked, original, payload, keys, data: bytes) -> str:
    try:
        side = SideInfo.from_bytes(data)
        bits, unmarked = extract_payload(marked, side)
        restored = decrypt(unmarked, side, keys)
    except BlockmarkError:
        return "raised"
    except Exception:
        return "other"
    if not all(np.array_equal(a, b) for a, b in zip(restored.planes, original.planes)):
        return "wrong_image"
    if not np.array_equal(bits, payload):
        return "wrong_payload"
    return "exact"


def sweep(image, payload, keys, block: int) -> dict[str, int]:
    marked, side = embed_plain_then_encrypt(image, payload, keys, block)
    body = side.to_bytes()[:-4]
    counts = dict.fromkeys(OUTCOMES, 0)
    for pos in range(4, len(body)):
        for value in range(256):
            if value == body[pos]:
                continue
            mutated = body[:pos] + bytes([value]) + body[pos + 1 :]
            data = mutated + zlib.crc32(mutated).to_bytes(4, "big")
            counts[outcome(marked, image, payload, keys, data)] += 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("image")
    parser.add_argument("--block", type=int, default=8)
    args = parser.parse_args()

    image = load_image(args.image)
    keys = generate_keys(seed=1)
    cap = capacity_report(image, args.block)["total"]
    other = 0
    for name, n in (("full", cap), ("half", cap // 2)):
        payload = np.random.default_rng(0).integers(0, 2, n, dtype=np.uint8)
        counts = sweep(image, payload, keys, args.block)
        for key in OUTCOMES:
            print(f"{name}.{key}={counts[key]}")
        other += counts["other"]
    return 1 if other else 0


if __name__ == "__main__":
    raise SystemExit(main())
