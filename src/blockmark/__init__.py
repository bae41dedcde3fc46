"""Reversible histogram-shift data hiding that commutes with block-permutation
image encryption: embed in the plain or encrypted domain, extract and decrypt
in either order, recover payload and image exactly."""

from .analysis import (
    CodecSpec,
    capacity_report,
    compression_eval,
    correlation,
    correlation_report,
    load_codec_config,
    psnr,
    resize_topleft,
)
from .cipher import (
    KeySet,
    generate_keys,
    load_key_file,
    save_key_file,
)
from .errors import (
    BlockmarkError,
    CapacityExceededError,
    CodecError,
    DegenerateSampleError,
    GeometryError,
    ImageFormatError,
    KeyFormatError,
    LossyCodecError,
    NoZeroPointError,
    SideInfoError,
)
from .histshift import (
    HistPair,
    capacity,
    embed_bits,
    extract_bits,
    find_pp_zp,
    histogram,
    shift_histogram,
    unshift_histogram,
)
from .image_io import (
    Image,
    block_stack,
    decode_image,
    encode_image,
    load_image,
    save_image,
    split_blocks,
)
from .ordering import build_order_plan
from .pipeline import (
    Mode,
    SideInfo,
    decrypt,
    embed_plain_then_encrypt,
    embed_two_domain,
    encrypt_then_embed,
    extract_payload,
    extract_two_domain,
)

__version__ = "0.1.0"
