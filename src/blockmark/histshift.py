"""Histogram-shift embedding primitives for a single 8-bit plane.

A pair (pp, zp) of a peak bin and an empty bin defines the scheme: every
value strictly between them moves one step toward zp, which frees the bin
adjacent to pp. Peak-valued pixels then carry one bit each: value pp means 0,
the freed adjacent value means 1. Every changed pixel moves by exactly one
level, so the marked plane never differs from the original by more than 1
per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, NoZeroPointError, PayloadError

# Samples per slice of the whole-plane passes that work in slices.
_SLICE = 1 << 18


@dataclass(frozen=True)
class HistPair:
    """Peak point / zero point pair. Direction is up when pp < zp."""

    pp: int
    zp: int

    def __post_init__(self):
        if not (0 <= self.pp <= 255 and 0 <= self.zp <= 255):
            raise ValueError(f"pp/zp must lie in [0, 255], got ({self.pp}, {self.zp})")
        if self.pp == self.zp:
            raise ValueError("pp and zp must differ")

    @property
    def up(self) -> bool:
        return self.pp < self.zp

    @property
    def marked_value(self) -> int:
        """Pixel value that encodes an embedded 1-bit."""
        return self.pp + 1 if self.up else self.pp - 1

    @property
    def moved(self) -> tuple[int, int]:
        """Inclusive value range that the shift moves; empty when lo > hi."""
        if self.up:
            return self.pp + 1, self.zp - 1
        return self.zp + 1, self.pp - 1

    @property
    def band(self) -> tuple[int, int]:
        """Inclusive value range holding shifted pixels; empty when lo > hi."""
        if self.up:
            return self.pp + 2, self.zp
        return self.zp, self.pp - 2


def histogram(plane: np.ndarray) -> np.ndarray:
    """Count of each sample value in a `uint8` plane. Samples are counted in
    pairs: the even-length prefix, viewed as `uint16`, is bincounted into
    65,536 bins, and the row and column sums of that `(256, 256)` table count
    each pair's two samples, in either byte order. `np.bincount` casts its
    input to intp (8 bytes an item), so it runs on chunks of 65,536 pairs. A
    trailing odd sample is counted on its own."""
    if plane.dtype != np.uint8:  # the pair view would misread wider samples
        raise ValueError(f"plane must be uint8, got {plane.dtype}")
    flat = plane.ravel()
    pairs = flat[: flat.size & ~1].view(np.uint16)
    table = np.zeros(65536, dtype=np.intp)
    for start in range(0, pairs.size, 65536):
        table += np.bincount(pairs[start : start + 65536], minlength=65536)
    table = table.reshape(256, 256)
    hist = table.sum(axis=0) + table.sum(axis=1)
    if flat.size & 1:
        hist[flat[-1]] += 1
    return hist


def find_pp_zp(plane: np.ndarray) -> HistPair:
    """Select the maximal bin and its nearest empty bin.

    Ties: the smallest value wins among equally tall peaks; the larger value
    wins among equidistant empty bins. Raises NoZeroPointError when every bin
    is occupied.
    """
    if plane.size == 0:
        raise ValueError("plane is empty")
    hist = histogram(plane)
    pp = int(np.argmax(hist))
    zeros = np.flatnonzero(hist == 0)
    if zeros.size == 0:
        raise NoZeroPointError("histogram has no empty bin")
    dist = np.abs(zeros - pp)
    nearest = zeros[dist == dist.min()]
    return HistPair(pp=pp, zp=int(nearest.max()))


def _step_band(
    plane: np.ndarray, lo: int, hi: int, step: int, out: np.ndarray | None
) -> np.ndarray:
    """`plane` with `step` (+1 or -1) added to every value in [lo, hi] (none
    when lo = hi + 1), written into `out` or a new C-order array."""
    if out is None:
        out = np.empty(plane.shape, plane.dtype)
    elif out.shape != plane.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the plane's shape")
    np.copyto(out, plane)  # a no-op when `out` is the plane
    # Unsigned wrap-around maps [lo, hi] onto [0, hi - lo] (an empty band
    # onto -1), so one compare finds the band. Its 0/1 flags go into one
    # reused slice buffer, and each slice becomes itself +/- flag: no
    # whole-plane temporary.
    flat = out.reshape(-1)
    flag = np.empty(min(flat.size, _SLICE), out.dtype)
    for i in range(0, flat.size, _SLICE):
        part = flat[i : i + _SLICE]
        f = flag[: part.size]
        np.subtract(part, np.uint8(lo & 0xFF), out=f)
        np.less_equal(f, hi - lo, out=f.view(np.bool_))
        (np.add if step > 0 else np.subtract)(part, f, out=part)
    return out


def shift_histogram(
    plane: np.ndarray, pair: HistPair, out: np.ndarray | None = None
) -> np.ndarray:
    """Move every value strictly between pp and zp one step toward zp.

    As in numpy, `out` receives the result: a C-contiguous array of the
    plane's shape, the plane itself included (any other raises ValueError).
    Without it the result is a new C-order array."""
    lo, hi = pair.moved
    return _step_band(plane, lo, hi, +1 if pair.up else -1, out)


def unshift_histogram(
    plane: np.ndarray, pair: HistPair, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact inverse of shift_histogram on a plane without 1-bit pixels;
    `out` as there."""
    lo, hi = pair.band
    return _step_band(plane, lo, hi, -1 if pair.up else +1, out)


def is_shifted(plane: np.ndarray, pair: HistPair) -> bool:
    """Whether a plane of the pair's image is shifted (intermediate or
    marked) rather than original. The nearest-empty-bin rule leaves the bin
    next to zp (toward pp) occupied in the original, so a shifted plane has
    zp samples and an original one has none. Under the adjacent pair zp is
    the marked value and the shift is the identity: True. Slices of 2**18
    samples stop at the first zp sample and scan a whole plane faster than
    one pass."""
    if pair.zp == pair.marked_value:
        return True
    flat = plane.reshape(-1)
    return any((flat[i : i + _SLICE] == pair.zp).any() for i in range(0, flat.size, _SLICE))


def marked_mask(plane: np.ndarray, pair: HistPair) -> np.ndarray:
    """Boolean mask of payload slots: pixels valued pp or pp +/- 1.

    The same positions are selected on the intermediate plane (where the
    adjacent bin is empty) and on a marked plane, so ordering decisions made
    before embedding can be reproduced afterwards. One unsigned compare, as
    in `_step_band`, finds both values.
    """
    out = plane - np.uint8(min(pair.pp, pair.marked_value))
    return np.less_equal(out, 1, out=out.view(np.bool_))


def capacity(plane: np.ndarray, pair: HistPair) -> int:
    """Number of embeddable bits: the count of peak-valued pixels.

    Defined on the plane the pair came from; shifting does not touch the
    peak bin, so the original and intermediate planes agree.
    """
    return int(histogram(plane)[pair.pp])


def embed_bits(
    plane: np.ndarray, pair: HistPair, slots: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Write bits into slot pixels (flat indices, caller's order) in place,
    and return `plane` itself.

    Slot k moves to the marked value for a 1-bit and stays at pp for a
    0-bit; slots beyond len(bits) are untouched. `bits` is read in its
    flat order. Every check runs before the first write.
    """
    slots = np.asarray(slots, dtype=np.intp)
    try:
        bits = np.asarray(bits).ravel()
    except ValueError as exc:  # a ragged nesting has no array form
        raise PayloadError(f"payload is not an array of bits: {exc}") from None
    if bits.size > slots.size:
        raise CapacityExceededError(
            f"payload of {bits.size} bits exceeds {slots.size} available slots"
        )
    if not ((bits == 0) | (bits == 1)).all():  # 0.6 must not pass as a 0-bit
        raise PayloadError("payload bits must be 0 or 1")
    used = slots[: bits.size]
    if np.any(np.take(plane, used) != pair.pp):
        raise ValueError("slots must address pp-valued pixels")
    np.put(plane, used[bits == 1], pair.marked_value)
    return plane


def extract_bits(
    plane: np.ndarray, pair: HistPair, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read bits back from slot pixels and restore them to pp in place;
    returns the bits and `plane` itself."""
    slots = np.asarray(slots, dtype=np.intp)
    bits = (np.take(plane, slots) == pair.marked_value).astype(np.uint8)
    np.put(plane, slots, pair.pp)
    return bits, plane
