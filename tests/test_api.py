"""The package-level names of `blockmark`: what the CLI, the benchmark, the
scripts and the README call. Helpers that only the tests use are imported
from their modules, so re-exporting one fails here."""

import types

import blockmark

PUBLIC = {
    # Errors, which callers catch.
    "BlockmarkError",
    "CapacityExceededError",
    "CodecError",
    "DegenerateSampleError",
    "GeometryError",
    "ImageFormatError",
    "KeyFormatError",
    "LossyCodecError",
    "NoZeroPointError",
    "SideInfoError",
    # Images and keys.
    "Image",
    "decode_image",
    "encode_image",
    "load_image",
    "save_image",
    "block_stack",
    "split_blocks",
    "KeySet",
    "generate_keys",
    "load_key_file",
    "save_key_file",
    # Histogram shifting and the order plan.
    "HistPair",
    "capacity",
    "embed_bits",
    "extract_bits",
    "find_pp_zp",
    "histogram",
    "shift_histogram",
    "unshift_histogram",
    "build_order_plan",
    # The flows.
    "Mode",
    "SideInfo",
    "decrypt",
    "embed_plain_then_encrypt",
    "embed_two_domain",
    "encrypt_then_embed",
    "extract_payload",
    "extract_two_domain",
    # Analysis.
    "CodecSpec",
    "capacity_report",
    "compression_eval",
    "correlation",
    "correlation_report",
    "load_codec_config",
    "psnr",
    "resize_topleft",
}


def test_public_names_are_pinned():
    # Submodules become attributes once imported anywhere; they are not
    # exports.
    names = {
        name
        for name, value in vars(blockmark).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
