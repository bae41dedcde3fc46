"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 external
codec failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, pipeline
from .cipher import KeySet, generate_keys, load_key_file, save_key_file
from .errors import BlockmarkError, CodecError
from .image_io import block_stack, load_image, save_image, split_blocks

_MODES = {
    "plain-first": pipeline.Mode.PLAIN_FIRST,
    "encrypted-first": pipeline.Mode.ENCRYPT_FIRST,
    "two-domain": pipeline.Mode.TWO_DOMAIN,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_payload_bits(path: str) -> np.ndarray:
    data = Path(path).read_bytes()
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def _write_payload_bits(bits: np.ndarray, path: str) -> None:
    Path(path).write_bytes(np.packbits(bits).tobytes())


def _load_keys(ns, need_region: bool = False) -> KeySet:
    keys = load_key_file(ns.key, per_plane=not getattr(ns, "joint_keys", False))
    if need_region and keys.k_region is None:
        raise BlockmarkError("key file lacks the region key required here")
    return keys


def _emit(lines: dict, json_path: str | None) -> None:
    for key, value in lines.items():
        print(f"{key}={value}")
    if json_path:
        Path(json_path).write_text(json.dumps(lines, indent=2) + "\n")


def _cmd_keygen(ns) -> int:
    keys = generate_keys(two_domain=ns.two_domain, seed=ns.seed)
    save_key_file(keys, ns.out)
    return 0


def _cmd_embed(ns) -> int:
    image = load_image(ns.input)
    mode = _MODES[ns.mode]
    payload = _read_payload_bits(ns.payload)
    if mode == pipeline.Mode.TWO_DOMAIN:
        if ns.payload_b is None:
            raise BlockmarkError("two-domain mode requires --payload-b")
        keys = _load_keys(ns, need_region=True)
        payload_b = _read_payload_bits(ns.payload_b)
        out, side = pipeline.embed_two_domain(image, payload, payload_b, keys, ns.block)
    else:
        if ns.payload_b is not None:
            raise BlockmarkError("--payload-b is only valid in two-domain mode")
        keys = _load_keys(ns)
        embed = (
            pipeline.embed_plain_then_encrypt
            if mode == pipeline.Mode.PLAIN_FIRST
            else pipeline.encrypt_then_embed
        )
        out, side = embed(image, payload, keys, ns.block)
    save_image(out, ns.output)
    side.save(ns.sideinfo)
    return 0


def _cmd_extract(ns) -> int:
    image = load_image(ns.input)
    side = pipeline.SideInfo.load(ns.sideinfo)
    if side.mode == pipeline.Mode.TWO_DOMAIN:
        if ns.key is None or ns.payload_b_out is None:
            raise BlockmarkError(
                "two-domain extraction requires --key and --payload-b-out"
            )
        keys = _load_keys(ns, need_region=True)
        bits_a, bits_b, etc_image = pipeline.extract_two_domain(
            image, side, keys.k_region
        )
        _write_payload_bits(bits_a, ns.payload_out)
        _write_payload_bits(bits_b, ns.payload_b_out)
    else:
        if ns.payload_b_out is not None:
            raise BlockmarkError("--payload-b-out is only valid for two-domain side info")
        if ns.key is not None:
            raise BlockmarkError("--key is only valid for two-domain side info")
        bits, etc_image = pipeline.extract_payload(image, side)
        _write_payload_bits(bits, ns.payload_out)
    if ns.image_out:
        save_image(etc_image, ns.image_out)
    return 0


def _cmd_decrypt(ns) -> int:
    image = load_image(ns.input)
    side = pipeline.SideInfo.load(ns.sideinfo)
    keys = load_key_file(ns.key, per_plane=side.per_plane_keys)
    save_image(pipeline.decrypt(image, side, keys), ns.output)
    return 0


def _cmd_analyze_psnr(ns) -> int:
    value = analysis.psnr(load_image(ns.image_a), load_image(ns.image_b))
    _emit({"psnr_db": "inf" if value == float("inf") else round(value, 4)}, ns.json)
    return 0


def _cmd_analyze_capacity(ns) -> int:
    image = load_image(ns.input)
    report = analysis.capacity_report(image, ns.block)
    lines = {f"plane{i}": c for i, c in enumerate(report["per_plane"])}
    lines["total"] = report["total"]
    if ns.key:
        keys = load_key_file(ns.key)
        if keys.k_region is None:
            raise BlockmarkError("region capacities need a key file with a region key")
        grid = split_blocks(image.planes[0], ns.block or 16)
        labels = pipeline.region_labels(keys.k_region, grid)
        # A region carries one bit per pp-valued pixel in its blocks: the
        # shift leaves the pp bin alone, so the unshifted plane counts them.
        caps = np.zeros(2)
        for plane, pair in zip(image.planes, report["pairs"]):
            per_block = block_stack(plane == pair.pp, grid).sum(axis=(1, 2))
            caps += np.bincount(labels, weights=per_block, minlength=2)
        lines["region_a"], lines["region_b"] = caps.astype(int).tolist()
    _emit(lines, ns.json)
    return 0


def _cmd_analyze_correlation(ns) -> int:
    image = load_image(ns.input)
    if ns.subsample:
        image = analysis.resize_topleft(image, ns.subsample)
    lines = {}
    for i, plane in enumerate(image.planes):
        report = analysis.correlation_report(plane, pairs=ns.pairs, seed=ns.seed)
        prefix = f"plane{i}." if image.is_color else ""
        lines[f"{prefix}horizontal"] = round(report.horizontal, 6)
        lines[f"{prefix}vertical"] = round(report.vertical, 6)
        lines[f"{prefix}diagonal"] = round(report.diagonal, 6)
    lines["pairs"] = ns.pairs
    _emit(lines, ns.json)
    return 0


def _cmd_compress_eval(ns) -> int:
    codecs = analysis.load_codec_config(ns.codecs)
    lines = {}
    for path in ns.images:
        for codec in codecs:
            result = analysis.compression_eval(path, codec)
            stem = Path(path).name
            lines[f"{stem}.{codec.name}.original_bytes"] = result.original_bytes
            lines[f"{stem}.{codec.name}.compressed_bytes"] = result.compressed_bytes
            lines[f"{stem}.{codec.name}.ratio"] = round(result.ratio, 6)
    _emit(lines, ns.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blockmark", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="write a new key file")
    p.add_argument("--out", required=True)
    p.add_argument("--two-domain", action="store_true", help="include a region key")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("embed", help="embed a payload and encrypt")
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--block", type=int, default=16)
    p.add_argument("--key", required=True)
    p.add_argument("--payload", required=True)
    p.add_argument("--payload-b", default=None, help="region B payload (two-domain)")
    p.add_argument("--sideinfo", required=True)
    p.add_argument("--joint-keys", action="store_true",
                   help="share one key stream across color planes")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="recover the payload without keys")
    p.add_argument("--sideinfo", required=True)
    p.add_argument("--key", default=None, help="key file (two-domain only)")
    p.add_argument("--payload-b-out", default=None)
    p.add_argument("--image-out", default=None, help="write the payload-free image")
    p.add_argument("input")
    p.add_argument("payload_out")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("decrypt", help="invert the block encryption")
    p.add_argument("--sideinfo", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("analyze", help="metrics")
    asub = p.add_subparsers(dest="metric", required=True)

    pa = asub.add_parser("psnr")
    pa.add_argument("image_a")
    pa.add_argument("image_b")
    pa.add_argument("--json", default=None)
    pa.set_defaults(func=_cmd_analyze_psnr)

    pa = asub.add_parser("capacity")
    pa.add_argument("input")
    pa.add_argument("--block", type=int, default=None)
    pa.add_argument("--key", default=None,
                    help="also report per-region capacities (needs region key)")
    pa.add_argument("--json", default=None)
    pa.set_defaults(func=_cmd_analyze_capacity)

    pa = asub.add_parser("correlation")
    pa.add_argument("input")
    pa.add_argument("--pairs", type=int, default=2000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--subsample", type=int, default=None,
                    help="first reduce to one top-left pixel per NxN block")
    pa.add_argument("--json", default=None)
    pa.set_defaults(func=_cmd_analyze_correlation)

    p = sub.add_parser("compress-eval", help="drive external lossless codecs")
    p.add_argument("--codecs", required=True, help="JSON codec config")
    p.add_argument("--json", default=None)
    p.add_argument("images", nargs="+")
    p.set_defaults(func=_cmd_compress_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except CodecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (BlockmarkError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
