"""Tests for payload ingestion and emission.

Bit packing is pinned with exact small vectors; PGM parsing is exercised
with liberal headers (comments, odd whitespace) and the full error taxonomy
for broken files. Canonical emission must round-trip byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumark.carrier import (
    PGM_LSB,
    RAW,
    CarrierPayload,
    ImageMeta,
    bits_to_bytes,
    bytes_to_bits,
    emit,
    ingest_pgm,
    ingest_raw,
)
from qumark.errors import (
    EmptyInput,
    QumarkError,
    MalformedHeader,
    MissingMeta,
    TruncatedPixelData,
    UnsupportedMaxval,
)


def pgm(width, height, pixels, header=None):
    head = header if header is not None else f"P5\n{width} {height}\n255\n"
    return head.encode("ascii") + bytes(pixels)


class TestBitPacking:
    def test_known_vectors(self):
        assert bytes_to_bits(b"\xa5") == "10100101"
        assert bytes_to_bits(b"\x00\xff") == "0000000011111111"
        assert bits_to_bytes("10100101") == b"\xa5"

    def test_round_trip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_partial_bytes_are_refused(self):
        with pytest.raises(ValueError):
            bits_to_bytes("1010010")

    @pytest.mark.parametrize("bits", [
        "0b101010", "1_010101", " 1010101", "1010101\n", "22222222", "\uff110101010",
    ])
    def test_only_binary_digits_are_packed(self, bits):
        # int(_, 2) accepts each of these, so the check must come first
        with pytest.raises(ValueError):
            bits_to_bytes(bits)

    @pytest.mark.parametrize("bits", [123, b"10100101"])
    def test_non_str_bits_are_a_type_error(self, bits):
        with pytest.raises(TypeError):
            bits_to_bytes(bits)

    def test_empty_input(self):
        assert bytes_to_bits(b"") == ""
        assert bits_to_bytes("") == b""


class TestCarrierPayload:
    def test_format_tag_is_checked(self):
        with pytest.raises(ValueError):
            CarrierPayload(bits="01", format_tag="wav")

    @pytest.mark.parametrize("bits", ["01x2", "1a11", "1\uff11"])
    def test_bits_are_a_binary_string(self, bits):
        # the payload refuses them itself, not emit or DerivationParams later
        with pytest.raises(ValueError):
            CarrierPayload(bits, RAW)

    @pytest.mark.parametrize("bits", [b"01", ["0", "1"]])
    def test_bits_are_a_str(self, bits):
        with pytest.raises(TypeError):
            CarrierPayload(bits, RAW)

    def test_a_pgm_payload_holds_whole_bytes(self):
        # so the derived mask covers every bit
        with pytest.raises(ValueError, match="whole pixel bytes, got 12 bits"):
            CarrierPayload("0" * 12, PGM_LSB)


class TestIngestRaw:
    def test_everything_is_eligible(self):
        payload = ingest_raw(b"\x65")
        assert payload.bits == "01100101"
        assert payload.eligibility_mask == "11111111"
        assert payload.format_tag == RAW

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ingest_raw(b"")

    def test_round_trip_through_emit(self):
        data = bytes(range(64))
        assert emit(ingest_raw(data)) == data


class TestIngestPgm:
    def test_canonical_image(self):
        payload, meta = ingest_pgm(pgm(3, 2, range(6)))
        assert meta == ImageMeta(width=3, height=2)
        assert meta.max_value == 255
        assert payload.format_tag == PGM_LSB
        assert payload.bits == bytes_to_bits(bytes(range(6)))
        assert payload.eligibility_mask == "00000001" * 6

    def test_only_pixel_lsbs_are_eligible(self):
        payload, _ = ingest_pgm(pgm(2, 2, [0xFF] * 4))
        eligible = [i for i, flag in enumerate(payload.eligibility_mask) if flag == "1"]
        assert eligible == [7, 15, 23, 31]

    def test_liberal_header_whitespace_and_comments(self):
        data = (
            b"P5 # magic\n"
            b"# a comment line\n"
            b"  4\t1 # width then height\n"
            b"255\n" + bytes([9, 8, 7, 6])
        )
        payload, meta = ingest_pgm(data)
        assert meta == ImageMeta(width=4, height=1)
        assert bits_to_bytes(payload.bits) == bytes([9, 8, 7, 6])

    def test_single_whitespace_then_pixels(self):
        # the byte after maxval is the lone separator; pixel data may then
        # begin with bytes that look like whitespace
        data = b"P5 2 1 255\n" + bytes([0x20, 0x0A])
        payload, _ = ingest_pgm(data)
        assert bits_to_bytes(payload.bits) == bytes([0x20, 0x0A])

    def test_wrong_magic(self):
        with pytest.raises(MalformedHeader):
            ingest_pgm(b"P2\n2 2\n255\n" + bytes(4))

    def test_non_integer_field(self):
        # int() would read 1_0 as 10 and accept a sign; no PGM writer emits either
        for header in (b"wide 2\n255", b"1_0 1\n255", b"+2 2\n255", b"2 2\n+255"):
            with pytest.raises(MalformedHeader):
                ingest_pgm(b"P5\n" + header + b"\n" + bytes(4))

    def test_leading_zeros_are_legal(self):
        _, meta = ingest_pgm(b"P5\n02 002\n0255\n" + bytes(4))
        assert meta == ImageMeta(2, 2)

    def test_nonpositive_dimensions(self):
        with pytest.raises(MalformedHeader):
            ingest_pgm(b"P5\n0 2\n255\n")

    def test_illegal_maxval(self):
        with pytest.raises(MalformedHeader):
            ingest_pgm(b"P5\n2 2\n0\n" + bytes(4))
        with pytest.raises(MalformedHeader):
            ingest_pgm(b"P5\n2 2\n65536\n" + bytes(4))

    def test_legal_but_unsupported_maxval(self):
        with pytest.raises(UnsupportedMaxval):
            ingest_pgm(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(UnsupportedMaxval):
            ingest_pgm(b"P5\n2 2\n127\n" + bytes(4))

    def test_truncated_pixel_data(self):
        with pytest.raises(TruncatedPixelData):
            ingest_pgm(pgm(4, 4, range(15)))

    def test_trailing_bytes(self):
        with pytest.raises(MalformedHeader):
            ingest_pgm(pgm(2, 2, range(4)) + b"\x00")

    def test_header_cut_short(self):
        with pytest.raises(MalformedHeader):
            ingest_pgm(b"P5\n2")
        with pytest.raises(EmptyInput):
            ingest_pgm(b"")


class TestEmit:
    def test_canonical_round_trip(self):
        original = pgm(5, 3, range(15))
        payload, meta = ingest_pgm(original)
        assert emit(payload, meta) == original

    def test_liberal_input_emits_canonically(self):
        data = b"P5  # comment\n 3\t1\n255 " + bytes([1, 2, 3])
        payload, meta = ingest_pgm(data)
        assert emit(payload, meta) == b"P5\n3 1\n255\n" + bytes([1, 2, 3])

    def test_pgm_needs_its_meta(self):
        payload, _ = ingest_pgm(pgm(2, 2, range(4)))
        with pytest.raises(MissingMeta):
            emit(payload)

    def test_every_meta_that_constructs_reads_back(self):
        # ImageMeta owns the header rule, so emit can only write what ingest_pgm reads
        for width in range(-3, 9):
            for height in range(-3, 9):
                try:
                    meta = ImageMeta(width=width, height=height)
                except MalformedHeader:
                    assert width < 1 or height < 1
                    continue
                pixels = width * height
                payload = CarrierPayload(bits=bytes_to_bits(bytes(range(pixels))), format_tag=PGM_LSB)
                assert ingest_pgm(emit(payload, meta)) == (payload, meta)

    @pytest.mark.parametrize("fields", [(2.5, 2), (5, 1.0), (True, 5)])
    def test_meta_fields_must_be_int(self, fields):
        # 2.5 * 2 and True * 5 both count 5 pixels, but no header holds them
        with pytest.raises(TypeError):
            ImageMeta(*fields)

    def test_meta_must_match_the_payload(self):
        payload, _ = ingest_pgm(pgm(2, 2, range(4)))
        with pytest.raises(ValueError):
            emit(payload, ImageMeta(width=3, height=2))

    def test_lsb_flips_survive_the_round_trip(self):
        payload, meta = ingest_pgm(pgm(4, 2, [10, 20, 30, 40, 50, 60, 70, 80]))
        bits = list(payload.bits)
        bits[7] = "1"  # first pixel 10 -> 11
        bits[63] = "1"  # last pixel 80 -> 81
        flipped = CarrierPayload(bits="".join(bits), format_tag=payload.format_tag)
        out = emit(flipped, meta)
        _, _ = ingest_pgm(out)
        assert out == b"P5\n4 2\n255\n" + bytes([11, 20, 30, 40, 50, 60, 70, 81])

FIELDS = st.sampled_from([b"0", b"1", b"2", b"3", b"-1", b"x", b"1" + b"0" * 5000])
SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\n#c\n", b"#c", b""])
PGM_LIKE = st.builds(
    lambda magic, width, height, maxval, seps, pixels: (
        magic + seps[0] + width + seps[1] + height + seps[2] + maxval + seps[3] + pixels
    ),
    st.sampled_from([b"P5", b"P2", b""]),
    FIELDS,
    FIELDS,
    st.sampled_from([b"255", b"1", b"256", b"65536", b"65535", b"0"]),
    st.lists(SEPARATORS, min_size=4, max_size=4),
    st.binary(max_size=12),
)


VALID_PGM = st.builds(
    lambda width, height, pixels: pgm(width, height, pixels[: width * height]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.binary(min_size=16, max_size=16),
)


@settings(max_examples=500, deadline=None)
@given(st.binary() | PGM_LIKE | VALID_PGM)
def test_arbitrary_bytes_ingest_or_raise_a_qumark_error(data):
    try:
        payload, meta = ingest_pgm(data)
    except QumarkError:
        return
    assert len(payload.bits) == 8 * meta.width * meta.height


WHITESPACE_RUNS = st.lists(st.sampled_from(b" \t\n\r\x0b\x0c"), min_size=1, max_size=3).map(bytes)
COMMENT_TEXT = st.binary(max_size=4).map(lambda text: text.replace(b"\n", b""))
COMMENTS = COMMENT_TEXT.map(lambda text: b"#" + text + b"\n")
GAPS = st.lists(WHITESPACE_RUNS | COMMENTS, max_size=3).map(b"".join)


CUT_SHORT = "header ended before all fields were read"


@st.composite
def pgm_headers(draw):
    """(data, expected): an image whose header tokens are joined by random separators.

    expected is the (payload, meta) ingest_pgm returns, or the error type and
    the start of its message when a '#' is glued to a token, a comment
    without its newline ends the data, or the data stops inside the header.
    """
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = draw(st.binary(min_size=width * height, max_size=width * height))
    tokens = [b"P5", b"%d" % width, b"%d" % height, b"255"]
    # a separator between two tokens opens with whitespace; one before the magic need not
    gaps = [draw(GAPS)] + [draw(WHITESPACE_RUNS) + draw(GAPS) for _ in range(3)]
    expected = (
        CarrierPayload(bytes_to_bits(pixels), PGM_LSB),
        ImageMeta(width, height),
    )
    mode = draw(st.sampled_from(["valid", "glued", "comment at end", "cut"]))
    if mode == "glued":  # a '#' right after a token belongs to the token
        glued = draw(st.integers(0, 3))
        tokens[glued] += b"#" + draw(st.binary(max_size=3).map(lambda b: b"".join(b.split())))
        message = "expected P5 magic" if glued == 0 else "[a-z]+ is not an integer"
        expected = MalformedHeader, message
    header = b""
    for gap, token in zip(gaps, tokens):
        header += gap
        maxval_at = len(header)
        header += token
    separator = draw(st.sampled_from(b" \t\n\r\x0b\x0c"))
    data = header + bytes([separator]) + pixels
    if mode == "comment at end":  # the comment swallows every later token
        before = draw(st.integers(0, 3))
        data = b"".join(g + t for g, t in zip(gaps[:before], tokens)) + gaps[before]
        data += b"#" + draw(COMMENT_TEXT)
        expected = MalformedHeader, CUT_SHORT
    elif mode == "cut":
        cut = draw(st.integers(0, len(header)))
        data = header[:cut]
        # width and height have one digit, so only the magic and maxval can be cut inside
        if cut == 0:
            expected = EmptyInput, "image payload is empty"
        elif len(gaps[0]) < cut < len(gaps[0]) + 2:
            expected = MalformedHeader, "expected P5 magic, got b'P'"
        elif maxval_at < cut < len(header):
            expected = UnsupportedMaxval, "only 8-bit"  # "2" and "25" are legal maxvals
        elif cut == len(header):
            expected = MalformedHeader, "missing single whitespace"
        else:
            expected = MalformedHeader, CUT_SHORT
    return data, expected


@settings(max_examples=500, deadline=None)
@given(pgm_headers())
def test_headers_with_random_separators(case):
    data, expected = case
    if isinstance(expected[0], CarrierPayload):
        assert ingest_pgm(data) == expected
    else:
        error, message = expected
        with pytest.raises(error, match=f"^{message}"):
            ingest_pgm(data)
