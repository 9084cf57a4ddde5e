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
import binascii
import json
import re

from .carrier import bits_to_bytes, bytes_to_bits
from .errors import InvalidProbability, MalformedFile, UnsupportedVersion
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


def _format_angle(value: float, period: float) -> str:
    text = f"{value:.6f}"
    # angles just below the period round up to it, which _parse_angle
    # rejects; the period names the same angle as 0
    return f"{0.0:.6f}" if text == f"{period:.6f}" else text


def _parse_angle(value: object, field: str, period: float) -> float:
    if not isinstance(value, str):
        raise MalformedFile(f"{field} must be a fixed-point string, got {type(value).__name__}")
    # what _format_angle writes; float() would also take "4_5", " 45 ", "4.5e1"
    # and digits of other scripts, which \d matches too
    if not re.fullmatch(r"[0-9]+(?:\.[0-9]+)?", value):
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
    if not isinstance(text, (bytes, bytearray)):
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
    if not 0.0 <= expected_pe <= 1.0:  # also refuses NaN, which JSON cannot hold
        raise InvalidProbability(f"expected_pe must be in [0, 1], got {expected_pe}")
    key_field = None
    if secret.key is not None:
        key_field = base64.b64encode(secret.key).decode("ascii")
    return _dump(
        {
            "version": SECRET_FORMAT_VERSION,
            "indices": list(secret.indices),
            "mark_basis_theta": _format_angle(secret.mark_basis.theta, 90.0),
            "key": key_field,
            "expected_pe": expected_pe,
        }
    )


def load_secret(text: str | bytes) -> tuple[WatermarkSecret, float]:
    text = _decode(text, "secret")
    document = _load(text, SECRET_FORMAT_VERSION, "secret")
    indices = _field(document, "indices", "secret")
    if not isinstance(indices, list) or not _int_items(indices):
        raise MalformedFile("secret indices must be a list of integers")
    theta = _parse_angle(_field(document, "mark_basis_theta", "secret"), "mark_basis_theta", 90.0)
    key_field = _field(document, "key", "secret")
    key = None
    if key_field is not None:
        if not isinstance(key_field, str):
            raise MalformedFile("secret key must be a base64 string or null")
        try:
            key = base64.b64decode(key_field, validate=True)
        except (binascii.Error, ValueError):
            raise MalformedFile("secret key is not valid base64") from None
    expected_pe = _field(document, "expected_pe", "secret")
    if not isinstance(expected_pe, (int, float)) or isinstance(expected_pe, bool):
        raise MalformedFile("expected_pe must be a number")
    try:
        secret = WatermarkSecret(indices, Basis(theta), key)
        expected_pe = float(expected_pe)  # an integer past 2**1024 overflows
    except (ValueError, OverflowError) as exc:
        raise MalformedFile(f"secret file holds an invalid secret: {exc}") from None
    if not 0.0 <= expected_pe <= 1.0:  # what dump_secret refuses to write
        raise MalformedFile(f"expected_pe must be in [0, 1], got {expected_pe}")
    return secret, expected_pe


def dump_quantum_message(message: QuantumMessage) -> str:
    # _dump of the whole document, byte for byte, with each palette entry
    # encoded once and the states block joined by hand
    lines = [f"    {json.dumps(_format_angle(state.phi, 180.0))}" for state in message.palette]
    states = ",\n".join(map(lines.__getitem__, message.codes))
    theta = json.dumps(_format_angle(message.writing_basis.theta, 90.0))
    return (
        f'{{\n  "states": [\n{states}\n  ],\n'
        f'  "version": {MESSAGE_FORMAT_VERSION},\n'
        f'  "writing_basis_theta": {theta}\n}}\n'
    )


def load_quantum_message(text: str | bytes) -> QuantumMessage:
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
    # each distinct string is parsed once
    palette = [RebitState(_parse_angle(text, "state phi", 180.0)) for text in code_of]
    try:
        return QuantumMessage.from_palette(palette, map(code_of.__getitem__, states), Basis(theta))
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
    theta = _parse_angle(
        _field(document, "observation_basis_theta", "observation"),
        "observation_basis_theta",
        90.0,
    )
    bit_length = _field(document, "bit_length", "observation")
    if not isinstance(bit_length, int) or isinstance(bit_length, bool) or bit_length < 1:
        raise MalformedFile("bit_length must be a positive integer")
    encoded = _field(document, "bits", "observation")
    if not isinstance(encoded, str):
        raise MalformedFile("observation bits must be a base64 string")
    try:
        packed = base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError):
        raise MalformedFile("observation bits are not valid base64") from None
    if not bit_length <= 8 * len(packed) < bit_length + 8:
        raise MalformedFile(
            f"bit length {bit_length} inconsistent with a {len(packed)}-byte payload"
        )
    bits = bytes_to_bits(packed)
    if "1" in bits[bit_length:]:
        raise MalformedFile("observation padding bits must be zero")
    bits = bits[:bit_length]
    try:
        return ObservedMessage(bits=bits, observation_basis=Basis(theta))
    except ValueError as exc:
        raise MalformedFile(f"observation file holds an invalid observation: {exc}") from None
