"""Versioned JSON serialization of secrets, qubit messages, and observations.

Angles are stored as fixed-point strings with six decimal places so that
decode followed by encode is byte-identical on every platform; floats in
JSON would round-trip through repr and invite drift. Observation bits are
packed big-endian into base64 with the exact bit length alongside. Each
format carries a version field, and reading any other version is a hard
error rather than a guess.
"""

from __future__ import annotations

import base64
import json
import re
from itertools import chain, islice

from .carrier import bits_to_bytes, bytes_to_bits
from .errors import MalformedFile, UnsupportedVersion, _bytes, _probability
from .qstate import Basis, RebitState
from .watermark import ObservedMessage, QuantumMessage, WatermarkSecret, _int_items

__all__ = [
    "SECRET_FORMAT_VERSION",
    "MESSAGE_FORMAT_VERSION",
    "OBSERVATION_FORMAT_VERSION",
    "dump_secret",
    "load_secret",
    "dump_quantum_message",
    "load_quantum_message",
    "dump_observation",
    "load_observation",
]

SECRET_FORMAT_VERSION = 1
MESSAGE_FORMAT_VERSION = 1
OBSERVATION_FORMAT_VERSION = 1

# what _format_angle writes; float() would also take "4_5", " 45 ", "4.5e1"
# and digits of other scripts, which \d matches too
_FIXED_POINT = r"[0-9]+(?:\.[0-9]+)?"


def _format_angle(value: float, period: float) -> str:
    text = f"{value:.6f}"
    # angles just below the period round up to it, which _parse_angle
    # rejects; the period names the same angle as 0
    return f"{0.0:.6f}" if text == f"{period:.6f}" else text


def _parse_angle(value: object, field: str, period: float) -> float:
    if not isinstance(value, str):
        raise MalformedFile(f"{field} must be a fixed-point string, got {type(value).__name__}")
    if not re.fullmatch(_FIXED_POINT, value):
        raise MalformedFile(f"{field} is not a fixed-point decimal: {value!r}")
    angle = float(value)
    if not 0.0 <= angle < period:
        raise MalformedFile(f"{field} must lie in [0, {period:g}), got {value}")
    return angle


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _decode(text: str | bytes, kind: str) -> str:
    """Bytes decoded as json.loads decodes them: UTF-8, -16 or -32, with or without a BOM.

    Each loader rebinds its argument to the result. A caller that hands its
    bytes over, as the CLI does, then has them freed before the parse, which
    is the peak of a load: it holds the text and every parsed object at once.
    """
    _bytes(text, "text", or_str=True)
    if isinstance(text, str):
        return text
    try:
        return text.decode(json.detect_encoding(text), "surrogatepass")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{kind} file is not valid JSON: {exc}") from None


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def _load(text: str, expected_version: int, kind: str) -> dict:
    try:
        # json.loads takes NaN and Infinity by default; RFC 8259 has neither
        document = json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:  # a JSONDecodeError, an over-long integer or a constant
        raise MalformedFile(f"{kind} file is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedFile(f"{kind} file nests too deeply to parse") from None
    if not isinstance(document, dict):
        raise MalformedFile(f"{kind} file must hold a JSON object")
    version = document.get("version")
    # type() rather than ==, which would let true and 1.0 pass for 1
    if type(version) is not int or version != expected_version:
        raise UnsupportedVersion(
            f"{kind} file has version {version!r}, this build reads version {expected_version}"
        )
    return document


def _field(document: dict, name: str, kind: str) -> object:
    if name not in document:
        raise MalformedFile(f"{kind} file is missing field {name!r}")
    return document[name]


def dump_secret(secret: WatermarkSecret, expected_pe: float) -> str:
    """Serialize a secret; expected_pe records the flip rate planned at key time.

    The stored rate is advisory. Verification recomputes the rate from the
    bases actually in play, so editing this field cannot flip a verdict.
    """
    _probability(expected_pe, "expected_pe", "[]")  # also refuses NaN, which JSON cannot hold
    return _dump(
        {
            "version": SECRET_FORMAT_VERSION,
            "indices": list(secret.indices),
            "mark_basis_theta": _format_angle(secret.mark_basis.theta, 90.0),
            "key": None if secret.key is None else base64.b64encode(secret.key).decode("ascii"),
            "expected_pe": expected_pe,
        }
    )


_NOT_INTEGERS = "secret indices must be a list of integers"


def load_secret(text: str | bytes) -> tuple[WatermarkSecret, float]:
    text = _decode(text, "secret")
    document = _load(text, SECRET_FORMAT_VERSION, "secret")
    indices = _field(document, "indices", "secret")
    if not isinstance(indices, list):
        raise MalformedFile(_NOT_INTEGERS)
    try:
        theta = _parse_angle(
            _field(document, "mark_basis_theta", "secret"), "mark_basis_theta", 90.0
        )
        key = _field(document, "key", "secret")
        key = key if key is None else _base64(key, "secret key")
        expected_pe = _field(document, "expected_pe", "secret")
        _probability(expected_pe, "expected_pe", "[]")  # what dump_secret refuses to write
        secret = WatermarkSecret(indices, Basis(theta), key)
    except (ValueError, TypeError) as exc:
        # an index that is not an integer is reported first, as if checked first
        if not _int_items(indices):
            raise MalformedFile(_NOT_INTEGERS) from None
        if isinstance(exc, MalformedFile):
            raise
        raise MalformedFile(f"secret file holds an invalid secret: {exc}") from None
    return secret, float(expected_pe)


def _base64(value: object, field: str) -> bytes:
    """The bytes a base64 string field holds; MalformedFile naming the field for anything else."""
    if not isinstance(value, str):
        raise MalformedFile(f"{field} must be a base64 string, got {type(value).__name__}")
    try:
        return base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error is one
        raise MalformedFile(f"{field} must be valid base64") from None


def dump_quantum_message(message: QuantumMessage) -> str:
    # _dump of the whole document, byte for byte, in one join: each palette
    # entry is encoded once, with the separator that precedes it, and no
    # part of the document is copied twice (the join's list of one
    # reference per qubit is the only other allocation of its size)
    lines = [f",\n    {json.dumps(_format_angle(state.phi, 180.0))}" for state in message.palette]
    codes = message.codes
    theta = json.dumps(_format_angle(message.writing_basis.theta, 90.0))
    return "".join(chain(
        (_MESSAGE_HEADER.decode("ascii"), lines[codes[0]][2:]),
        map(lines.__getitem__, islice(codes, 1, None)),
        (
            f'\n  ],\n  "version": {MESSAGE_FORMAT_VERSION},\n'
            f'  "writing_basis_theta": {theta}\n}}\n',
        ),
    ))


# the bytes dump_quantum_message writes around the states block; the
# patterns go through re's cache on first use, not compiled at import
_MESSAGE_HEADER = b'{\n  "states": [\n'
_MESSAGE_FOOTER = rb'\n  \],\n  "version": %d,\n  "writing_basis_theta": "(%b)"\n\}\n' % (
    MESSAGE_FORMAT_VERSION, _FIXED_POINT.encode()
)
_STATE_LINE = rb'    "%b"' % _FIXED_POINT.encode()
_SLICE_BYTES = 1 << 16


def _scan_canonical_message(data: object) -> tuple[str, list[str], bytearray] | None:
    """Basis angle, distinct state angles and codes of a message in the writer's exact layout.

    None for any other input, which the json.loads path then reads. Each
    line of the layout is a fixed-point string, so json.loads gives the
    same three fields for a document that passes, and the caller checks
    them in the same order. The states block is read about 64 KiB at a
    time and each line mapped to its code through a dict, so only the
    distinct lines become str objects.
    """
    if not isinstance(data, bytes) or not data.startswith(_MESSAGE_HEADER):
        return None
    end = data.rfind(b"\n  ],\n")
    if end < len(_MESSAGE_HEADER):
        return None
    footer = re.fullmatch(_MESSAGE_FOOTER, data[end:])
    if footer is None:
        return None
    code_of: dict[bytes, int] = {}
    codes = bytearray()
    start = len(_MESSAGE_HEADER)
    while True:
        cut = data.find(b",\n", start + _SLICE_BYTES, end)
        cut = end if cut < 0 else cut
        lines = data[start:cut].split(b",\n")
        try:
            codes += bytes(map(code_of.__getitem__, lines))
        except KeyError:  # a line not seen before: codes go in order of first occurrence
            for line in dict.fromkeys(lines):
                if line not in code_of:
                    if len(code_of) == 256 or not re.fullmatch(_STATE_LINE, line):
                        return None
                    code_of[line] = len(code_of)
            codes += bytes(map(code_of.__getitem__, lines))
        if cut == end:
            break
        start = cut + 2
    states = [line[5:-1].decode("ascii") for line in code_of]
    return footer[1].decode("ascii"), states, codes


def load_quantum_message(text: str | bytes) -> QuantumMessage:
    canonical = _scan_canonical_message(text)
    if canonical is not None:
        del text
        theta_text, code_of, codes = canonical
        theta = _parse_angle(theta_text, "writing_basis_theta", 90.0)
    else:
        text = _decode(text, "message")
        document = _load(text, MESSAGE_FORMAT_VERSION, "message")
        del text  # the JSON text can run to megabytes; free it before the codes are built
        theta = _parse_angle(
            _field(document, "writing_basis_theta", "message"), "writing_basis_theta", 90.0
        )
        states = _field(document, "states", "message")
        if not isinstance(states, list):
            raise MalformedFile("message states must be a list")
        try:
            code_of = {text: code for code, text in enumerate(dict.fromkeys(states))}
        except TypeError:
            raise MalformedFile("state phi must be a fixed-point string") from None
        codes = map(code_of.__getitem__, states)
    # each distinct string is parsed once
    palette = [RebitState(_parse_angle(text, "state phi", 180.0)) for text in code_of]
    try:
        return QuantumMessage(palette, codes, Basis(theta))
    except ValueError as exc:
        raise MalformedFile(f"message file holds an invalid message: {exc}") from None


def dump_observation(observation: ObservedMessage) -> str:
    bits = observation.bits
    packed = bits_to_bytes(bits + "0" * (-len(bits) % 8))
    return _dump(
        {
            "version": OBSERVATION_FORMAT_VERSION,
            "observation_basis_theta": _format_angle(observation.observation_basis.theta, 90.0),
            "bit_length": len(observation.bits),
            "bits": base64.b64encode(packed).decode("ascii"),
        }
    )


def load_observation(text: str | bytes) -> ObservedMessage:
    text = _decode(text, "observation")
    document = _load(text, OBSERVATION_FORMAT_VERSION, "observation")
    field = "observation_basis_theta"
    theta = _parse_angle(_field(document, field, "observation"), field, 90.0)
    bit_length = _field(document, "bit_length", "observation")
    if not isinstance(bit_length, int) or isinstance(bit_length, bool) or bit_length < 1:
        raise MalformedFile("bit_length must be a positive integer")
    packed = _base64(_field(document, "bits", "observation"), "observation bits")
    if not bit_length <= 8 * len(packed) < bit_length + 8:
        raise MalformedFile(
            f"bit length {bit_length} inconsistent with a {len(packed)}-byte payload"
        )
    bits = bytes_to_bits(packed)
    if "1" in bits[bit_length:]:
        raise MalformedFile("observation padding bits must be zero")
    return ObservedMessage(bits=bits[:bit_length], observation_basis=Basis(theta))
