"""Workload definitions and seeded input generation for the round-trip benchmark.

Every input is a pure function of (workload, seed, scale). Smooth fields and
the texture get an exact, seed-independent histogram: the seed moves pixels
around but never changes the capacity or the shifted band. A smooth field is
also fixed per workload and the seed only rolls it by whole blocks, because
the number of blocks its peak level set touches varies up to twofold between
random fields, and with it the plan and cipher work. Both keep per-run work,
and so the timings, comparable across seeds.
Per-pixel generation is integer arithmetic and stable sorts, so the same
seed gives the same bytes wherever numpy's seeded generator does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOLDEN_SEED = 20201117
FIELD_SEED = 20201117  # the one smooth field of each workload


@dataclass(frozen=True)
class Workload:
    name: str
    side: int  # full-size image side in pixels
    planes: int  # 1 gray, 3 RGB
    block: int
    content: str  # "smooth" or "texture"
    mode: str  # "plain-first", "encrypted-first" or "two-domain"
    per_plane: bool  # per-plane subkeys; False shares keys across planes
    extract_first: bool  # receiver order: extract then decrypt, or the reverse


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smooth-gray-b4",
            side=1024,
            planes=1,
            block=4,
            content="smooth",
            mode="plain-first",
            per_plane=True,
            extract_first=True,
        ),
        Workload(
            name="texture-rgb-b16",
            side=1024,
            planes=3,
            block=16,
            content="texture",
            mode="encrypted-first",
            per_plane=False,
            extract_first=False,
        ),
        Workload(
            name="smooth-rgb-b32-2d",
            side=2048,
            planes=3,
            block=32,
            content="smooth",
            mode="two-domain",
            per_plane=True,
            extract_first=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    image_bytes: bytes  # encoded PGM/PPM, the round trip's input
    keys: object  # blockmark.KeySet
    payloads: tuple  # one bit array, or (region A, region B) in two-domain mode
    capacity_bits: int
    samples: int  # pixels x planes


def _box_sum(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable box sum with edge padding, exact in int64."""
    width = 2 * radius + 1
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius + 1, radius)
        c = np.cumsum(np.pad(a, pad, mode="edge"), axis=axis)
        a = c[width:, :] - c[:-width, :] if axis == 0 else c[:, width:] - c[:, :-width]
    return a


def _target_counts(n: int, lo: int, hi: int, mean: float, sd: float, floor: float):
    """Values lo..hi and integer counts summing to n, shaped like a normal
    bump over a flat floor. Bins outside [lo, hi] stay empty, so every plane
    has a zero point."""
    values = np.arange(lo, hi + 1)
    weights = np.exp(-0.5 * ((values - mean) / sd) ** 2) + floor
    counts = np.floor(weights / weights.sum() * n).astype(np.int64)
    counts[np.argsort(-weights, kind="stable")[: n - int(counts.sum())]] += 1
    return values, counts


def _smooth_plane(side: int, rng: np.random.Generator) -> np.ndarray:
    radius = max(1, side // 42)
    field = rng.integers(0, 256, size=(side, side), dtype=np.int64)
    field = _box_sum(_box_sum(field, radius), radius)
    field -= field.min()
    # A horizontal ramp breaks the field's symmetry, as in natural scenes.
    ramp = np.arange(side, dtype=np.int64)[None, :] * (int(field.max()) // (2 * side))
    field = field + ramp
    # Rank on 16 bits so the stable sort is a radix sort.
    field = (field * 65535 // int(field.max())).astype(np.uint16)
    order = np.argsort(field, axis=None, kind="stable")
    values, counts = _target_counts(side * side, 30, 225, 128.0, 40.0, 0.15)
    out = np.empty(side * side, dtype=np.uint8)
    out[order] = np.repeat(values, counts)
    return out.reshape(side, side)


def _texture_plane(side: int, rng: np.random.Generator) -> np.ndarray:
    # Clipped normal(128, 20): about 2% of pixels hold the peak value, so a
    # 16x16 block carries ~5 slots and almost none is slot-free.
    values, counts = _target_counts(side * side, 40, 216, 128.0, 20.0, 0.0)
    return rng.permutation(np.repeat(values, counts)).astype(np.uint8).reshape(side, side)


def make_inputs(bm, w: Workload, seed: int, scale: int = 1) -> Inputs:
    """Seeded inputs for one workload; `scale` divides the image side."""
    rng = np.random.default_rng([seed % 2**64, sum(w.name.encode())])
    side = w.side // scale
    if w.content == "smooth":
        field_rng = np.random.default_rng([FIELD_SEED, sum(w.name.encode())])
        shift = tuple(int(n) * w.block for n in rng.integers(0, side // w.block, size=2))
        planes = tuple(
            np.roll(_smooth_plane(side, field_rng), shift, axis=(0, 1)) for _ in range(w.planes)
        )
    else:
        planes = tuple(_texture_plane(side, rng) for _ in range(w.planes))
    image = bm.Image(planes)
    keys = bm.generate_keys(
        two_domain=w.mode == "two-domain", per_plane=w.per_plane, seed=seed
    )
    capacity = sum(bm.capacity(p, bm.find_pp_zp(p)) for p in image.planes)
    if w.mode == "two-domain":
        payloads = tuple(
            rng.integers(0, 2, size=capacity // 3, dtype=np.uint8) for _ in range(2)
        )
    else:
        payloads = (rng.integers(0, 2, size=capacity, dtype=np.uint8),)
    return Inputs(
        image_bytes=bm.encode_image(image),
        keys=keys,
        payloads=payloads,
        capacity_bits=capacity,
        samples=side * side * w.planes,
    )
