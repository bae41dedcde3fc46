"""Evaluation metrics: PSNR, capacity, block-level correlation, codec harness."""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CodecError,
    DegenerateSampleError,
    GeometryError,
    ImageFormatError,
    LossyCodecError,
)
from .histshift import capacity, find_pp_zp
from .image_io import Image, decode_image, split_blocks

_OFFSETS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}


def mse(a: Image, b: Image) -> float:
    """Mean squared sample difference over all planes. Each plane's int16
    difference is squared and summed in int64, so the sum is exact and the
    one temporary is the size of a plane at 2 bytes per sample."""
    if a.width != b.width or a.height != b.height or a.is_color != b.is_color:
        raise GeometryError("images must share dimensions and plane count")
    total = 0
    for pa, pb in zip(a.planes, b.planes):
        diff = np.subtract(pa, pb, dtype=np.int16)
        total += int(np.einsum("ij,ij->", diff, diff, dtype=np.int64))
    # As `np.mean` divides: nan, with a warning, for empty planes.
    return float(np.true_divide(total, a.width * a.height * len(a.planes)))


def psnr(a: Image, b: Image) -> float:
    """Peak signal-to-noise ratio in dB over all samples; +inf when equal."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def resize_topleft(image: Image, block: int) -> Image:
    """One pixel per block: the block's top-left sample."""
    split_blocks(image.planes[0], block)  # geometry check
    return Image(tuple(p[::block, ::block].copy() for p in image.planes))


def correlation(
    plane: np.ndarray, direction: str, pairs: int = 2000, seed: int = 0
) -> float:
    """Correlation coefficient of `pairs` randomly sampled neighbor pairs.

    Sample moments use divisor S (the pair count). Anchors are drawn
    uniformly without replacement; the diagonal neighbor is (+1, +1).
    """
    if direction not in _OFFSETS:
        raise ValueError(f"direction must be one of {sorted(_OFFSETS)}")
    dr, dc = _OFFSETS[direction]
    h, w = plane.shape
    nr, nc = h - dr, w - dc
    n_valid = nr * nc
    if pairs <= 0:
        raise ValueError("pair count must be positive")
    if pairs > n_valid:
        raise ValueError(f"cannot draw {pairs} distinct pairs from {n_valid} anchors")
    rng = np.random.default_rng(seed)
    anchors = rng.choice(n_valid, size=pairs, replace=False)
    rows, cols = anchors // nc, anchors % nc
    x = plane[rows, cols].astype(np.float64)
    y = plane[rows + dr, cols + dc].astype(np.float64)
    ex, ey = x.mean(), y.mean()
    dx = np.mean((x - ex) ** 2)
    dy = np.mean((y - ey) ** 2)
    if dx == 0.0 or dy == 0.0:
        raise DegenerateSampleError(f"zero variance in {direction} sample")
    cov = np.mean((x - ex) * (y - ey))
    return float(cov / (math.sqrt(dx) * math.sqrt(dy)))


@dataclass(frozen=True)
class CorrelationReport:
    horizontal: float
    vertical: float
    diagonal: float
    pairs: int


def correlation_report(
    plane: np.ndarray, pairs: int = 2000, seed: int = 0
) -> CorrelationReport:
    return CorrelationReport(
        horizontal=correlation(plane, "horizontal", pairs, seed),
        vertical=correlation(plane, "vertical", pairs, seed),
        diagonal=correlation(plane, "diagonal", pairs, seed),
        pairs=pairs,
    )


def capacity_report(image: Image, block_size: int | None = None) -> dict:
    """Embeddable bits per plane and in total, and each plane's (pp, zp) pair.

    Capacity counts peak-bin pixels, so it does not depend on the block
    size; when one is given it is only validated against the geometry.
    """
    if block_size is not None:
        split_blocks(image.planes[0], block_size)
    pairs = [find_pp_zp(p) for p in image.planes]
    per_plane = [capacity(p, pair) for p, pair in zip(image.planes, pairs)]
    return {"per_plane": per_plane, "total": int(sum(per_plane)), "pairs": pairs}


@dataclass(frozen=True)
class CodecSpec:
    """External codec templates; {in} and {out} are substituted per token."""

    name: str
    encode: str
    decode: str | None = None


def load_codec_config(path) -> list[CodecSpec]:
    """JSON list of {name, encode, decode?} codec entries.

    `name` must be a non-empty string and `encode`, and `decode` when
    present, a command template with at least one token. Anything else, and
    a file that is not UTF-8 JSON, raises CodecError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CodecError(f"codec config is not UTF-8 JSON: {exc}") from None
    if not isinstance(raw, list):
        raise CodecError("codec config must be a JSON list")
    specs = []
    for entry in raw:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and entry["name"]):
            raise CodecError(f"bad codec entry {entry!r}: needs a non-empty string name")
        name = entry["name"]
        _command(name, entry.get("encode"))
        if "decode" in entry:
            _command(name, entry["decode"])
        specs.append(CodecSpec(name, entry["encode"], entry.get("decode")))
    return specs


@dataclass(frozen=True)
class CompressionResult:
    codec: str
    original_bytes: int
    compressed_bytes: int
    ratio: float


def _command(name: str, template, inp: Path | str = "", outp: Path | str = "") -> list[str]:
    """The command a template runs, {in} and {out} substituted per token.

    Raises CodecError unless `template` is a string that splits into at
    least one token and names no other field.
    """
    mapping = {"in": str(inp), "out": str(outp)}
    try:
        tokens = shlex.split(template) if isinstance(template, str) else []
        cmd = [tok.format_map(mapping) for tok in tokens]
    except (ValueError, LookupError, AttributeError, TypeError) as exc:
        raise CodecError(f"{name}: bad command template {template!r}: {exc!r}") from None
    if not cmd:
        raise CodecError(f"{name}: command template must hold a command, got {template!r}")
    return cmd


def _run_template(name: str, template: str, inp: Path, outp: Path) -> None:
    cmd = _command(name, template, inp, outp)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the command
        raise CodecError(f"{name}: cannot run {cmd[0]!r}: {exc}") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise CodecError(f"{name}: {cmd[0]} exited {proc.returncode}: {tail[0]}")


def compression_eval(image_path, codec: CodecSpec) -> CompressionResult:
    """Compress one image file with an external codec and report the ratio.

    When a decode template is configured the round trip is verified: the
    decoded file must reproduce the input pixels (or, if it is not a
    readable netpbm file, the exact input bytes).
    """
    src = Path(image_path)
    original = src.stat().st_size
    with tempfile.TemporaryDirectory(prefix="blockmark-codec-") as tmp:
        compressed = Path(tmp) / f"{src.name}.{codec.name}"
        _run_template(codec.name, codec.encode, src, compressed)
        if not compressed.exists():
            raise CodecError(f"{codec.name} produced no output file")
        comp_size = compressed.stat().st_size
        if codec.decode:
            decoded = Path(tmp) / f"{src.name}.decoded"
            _run_template(codec.name, codec.decode, compressed, decoded)
            if not decoded.exists():
                raise CodecError(f"{codec.name} decoder produced no output file")
            if not _round_trip_ok(src.read_bytes(), decoded.read_bytes()):
                raise LossyCodecError(f"{codec.name} round trip is not lossless")
    if comp_size <= 0:
        raise CodecError(f"{codec.name} produced an empty file")
    return CompressionResult(
        codec=codec.name,
        original_bytes=original,
        compressed_bytes=comp_size,
        ratio=original / comp_size,
    )


def _round_trip_ok(original: bytes, decoded: bytes) -> bool:
    try:
        return decode_image(decoded) == decode_image(original)
    except ImageFormatError:
        return decoded == original
