"""Exception types shared across the toolkit."""


class BlockmarkError(Exception):
    """Base class for all blockmark errors."""


class ImageFormatError(BlockmarkError):
    """Malformed or unsupported PGM/PPM data."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


class GeometryError(BlockmarkError):
    """Image dimensions incompatible with the requested block layout."""


class NoZeroPointError(BlockmarkError):
    """The histogram has no empty bin, so no shift pair exists."""


class CapacityExceededError(BlockmarkError):
    """Payload is longer than the available embedding slots."""


class PayloadError(BlockmarkError, ValueError):
    """Payload that is not an array of 0 and 1 bits."""


class SideInfoError(BlockmarkError):
    """Side-information is malformed or inconsistent with the image."""


class KeyFormatError(BlockmarkError):
    """Key material is malformed."""


class DegenerateSampleError(BlockmarkError):
    """A correlation sample has zero variance in one coordinate."""


class CodecError(BlockmarkError):
    """External codec invocation failed."""


class LossyCodecError(CodecError):
    """External codec failed the lossless round-trip check."""
