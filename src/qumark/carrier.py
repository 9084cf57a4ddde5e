"""Payload ingestion: raw byte streams and binary 8-bit PGM images.

A carrier exposes its content as a bitstring plus the format it came in,
and the format fixes the eligibility mask: the positions a watermark may
occupy without perceptible damage.
Raw streams make every bit eligible; PGM images admit only each pixel's
least significant bit, which bounds any watermark to one grey level per
pixel. Parsing is liberal about header whitespace and comments, emission is
canonical.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import (
    EmptyInput, InvalidArgument, MalformedHeader, MissingMeta, TruncatedPixelData,
    UnsupportedMaxval, _bytes, _count
)

__all__ = [
    "RAW",
    "PGM_LSB",
    "CarrierPayload",
    "ImageMeta",
    "bytes_to_bits",
    "bits_to_bytes",
    "ingest_raw",
    "ingest_pgm",
    "emit",
]

RAW = "raw"
PGM_LSB = "pgm_lsb"

# ingest_pgm's header; bytes \s is PGM's six whitespace bytes. A pass of the
# group takes a comment and the whitespace after it, so long runs are cheap.
# re.match compiles it on first use, so a run that reads no image never does.
_HEADER = rb"\s*(?:#[^\n]*\s*)*(\S*)" * 4 + rb"(\s?)"


def bytes_to_bits(data: bytes) -> str:
    """Big-endian bit expansion: 0xA5 -> '10100101'."""
    _bytes(data, "data")
    # base-2 conversions of int run in linear time, unlike decimal ones
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""


def _check_bits(bits: str, what: str = "bits") -> None:
    """Raise TypeError unless bits is a str, InvalidArgument unless it holds only '0' and '1'."""
    if not isinstance(bits, str):
        raise TypeError(f"{what} must be a str of '0'/'1', got {type(bits).__name__}")
    # int(_, 2) would also accept a 0b prefix, underscores and whitespace
    if bits.encode("ascii", "replace").translate(None, b"01"):
        raise InvalidArgument(f"{what} may contain only '0' and '1'")


def bits_to_bytes(bits: str) -> bytes:
    """Inverse of bytes_to_bits; the length must be a whole number of bytes."""
    _check_bits(bits)
    if len(bits) % 8:
        raise InvalidArgument(f"bit length {len(bits)} is not a multiple of 8")
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


class CarrierPayload(Record):
    """Payload bits plus the format that decides which of them may carry the mark."""

    bits: str
    format_tag: str

    def _check(self) -> None:
        bits, tag = self.bits, self.format_tag
        _check_bits(bits)
        if tag not in (RAW, PGM_LSB):
            raise InvalidArgument(f"unknown format tag {tag!r}")
        if tag == PGM_LSB and len(bits) % 8:
            raise InvalidArgument(f"a PGM payload holds whole pixel bytes, got {len(bits)} bits")

    @property
    def eligibility_mask(self) -> str:
        """'1' at each position the mark may occupy: every raw bit, each pixel's LSB."""
        if self.format_tag == RAW:
            return "1" * len(self.bits)
        return "00000001" * (len(self.bits) // 8)


class ImageMeta(Record):
    """Dimensions of an 8-bit greyscale image, as emit writes and ingest_pgm reads them."""

    width: int
    height: int
    max_value = 255  # not annotated, so not a field: no other maxval is supported

    def _check(self) -> None:
        width, height = _count(self.width, "width"), _count(self.height, "height")
        if width < 1 or height < 1:
            raise MalformedHeader(f"image dimensions must be positive, got {width}x{height}")


def ingest_raw(data: bytes) -> CarrierPayload:
    """Expand raw bytes to bits with every position eligible.

    Callers accept that watermark flips may be perceptible anywhere in the
    stream; use an image format when that matters.
    """
    _bytes(data, "data")
    if not data:
        raise EmptyInput("raw payload is empty")
    return CarrierPayload(bits=bytes_to_bits(data), format_tag=RAW)


def ingest_pgm(data: bytes) -> tuple[CarrierPayload, ImageMeta]:
    """Parse a binary PGM (magic P5, 8-bit) into payload bits and image metadata.

    The header is the magic P5, then width, height and maxval in ASCII
    digits, each after any run of whitespace (space, tab, LF, CR, VT, FF) and
    '#' comments to the end of a line; a '#' glued to a token is part of it.
    One whitespace byte and width * height pixel bytes end the data. The
    payload's eligibility mask admits only the least significant bit of each
    pixel byte.
    """
    _bytes(data, "data")
    if not data:
        raise EmptyInput("image payload is empty")
    header = re.match(_HEADER, data)
    *tokens, separator = header.groups()
    fields = []
    for name, token in zip(("magic", "width", "height", "maxval"), tokens):
        if not token:  # the data ran out, so every later token is empty too
            raise MalformedHeader("header ended before all fields were read")
        if name == "magic":
            if token != b"P5":
                raise MalformedHeader(f"expected P5 magic, got {token[:8]!r}")
            continue
        try:
            # int() would also take a sign and underscores, which no PGM writer emits
            if not token.isdigit():
                raise ValueError
            fields.append(int(token))
        except ValueError:  # also raised for more digits than int() converts
            raise MalformedHeader(f"{name} is not an integer: {token!r}") from None
    width, height, maxval = fields
    if not 1 <= maxval <= 65535:
        raise MalformedHeader(f"maxval {maxval} is outside the legal range")
    meta = ImageMeta(width=width, height=height)
    if maxval != meta.max_value:
        raise UnsupportedMaxval(f"only 8-bit images are supported, maxval is {maxval}")
    if not separator:
        raise MalformedHeader("missing single whitespace before pixel data")
    pos = header.end()
    expected = width * height
    pixels = data[pos : pos + expected]
    if len(pixels) < expected:
        raise TruncatedPixelData(f"need {expected} pixel bytes, found {len(pixels)}")
    if len(data) > pos + expected:
        raise MalformedHeader("trailing bytes after the pixel block")
    return CarrierPayload(bits=bytes_to_bits(pixels), format_tag=PGM_LSB), meta


def emit(payload: CarrierPayload, meta: ImageMeta | None = None) -> bytes:
    """Serialize a payload back to bytes; PGM payloads need their ImageMeta.

    Emission is canonical ("P5\\nW H\\nMAXVAL\\n" + pixels), so ingest of an
    emitted image and emission of an ingested canonical image are exact
    inverses.
    """
    if payload.format_tag == RAW:
        return bits_to_bytes(payload.bits)
    if meta is None:
        raise MissingMeta("PGM emission needs the ImageMeta from ingestion")
    pixels = bits_to_bytes(payload.bits)
    if len(pixels) != meta.width * meta.height:
        raise InvalidArgument(
            f"payload describes {len(pixels)} pixels,"
            f" metadata says {meta.width * meta.height}"
        )
    header = f"P5\n{meta.width} {meta.height}\n{meta.max_value}\n".encode("ascii")
    return header + pixels
