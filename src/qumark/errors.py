"""Exception types shared across the package, and one argument checker per kind.

Everything derives from QumarkError, itself a ValueError. A checker raises
TypeError naming the parameter for a wrong type, bool included wherever a
number or a bit is expected, and a QumarkError subclass for a wrong value.
"""

from __future__ import annotations

from operator import index


class QumarkError(ValueError):
    """Base class for protocol, statistics, and format errors."""


class EmptyMessage(QumarkError):
    """A message, payload, or bitstring with zero length was supplied."""


class IndexOutOfRange(QumarkError):
    """An index set points outside the message it is applied to."""


class BasisNotDissimilar(QumarkError):
    """Marking basis equals the writing basis, so the mark would be invisible."""


class LengthMismatch(QumarkError):
    """Two observations that must align have different lengths."""


class BasisMismatch(QumarkError):
    """Two observations that must align were read in different bases."""


class InvalidArgument(QumarkError):
    """An argument of the right type whose value the callee cannot take."""


class InvalidProbability(QumarkError):
    """A probability argument lies outside its allowed range."""


class SampleTooSmall(QumarkError):
    """Strict embedding refused an index set whose unmarked copy the default rule accepts."""


class TooFewEligiblePositions(QumarkError):
    """The eligibility mask admits fewer positions than the requested set size."""


class CountExceedsTotal(QumarkError):
    """An error count larger than the sample it was counted in."""


class ZeroTotal(QumarkError):
    """A frequency was requested over an empty sample."""


class RatesEqual(QumarkError):
    """Sample-size planning needs two distinguishable rates."""


class Unachievable(QumarkError):
    """No sample size within the supported cap reaches the requested power."""


class TooFewCopies(QumarkError):
    """Collusion averaging needs at least two observed copies."""


class OffsetTooLarge(QumarkError):
    """A shift offset at least as long as the message leaves nothing behind."""


class EmptyInput(QumarkError):
    """A carrier payload with no bytes."""


class MalformedHeader(QumarkError):
    """An image file whose header does not parse."""


class UnsupportedMaxval(QumarkError):
    """An image with a sample depth other than 8 bits."""


class TruncatedPixelData(QumarkError):
    """An image file shorter than its header promises."""


class MissingMeta(QumarkError):
    """Image serialization was requested without the ingested dimensions."""


class MalformedFile(QumarkError):
    """A JSON artifact missing fields or holding values of the wrong shape."""


class UnsupportedVersion(QumarkError):
    """A JSON artifact written by an incompatible format version."""


def _number(value: float, name: str) -> float:
    """value if it is an int or a float, else TypeError."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    return value


def _probability(value: float, name: str, interval: str) -> None:
    """Raise InvalidProbability unless value lies in interval: "[]", "()" or "[)" around 0 and 1."""
    _number(value, name)
    low, high = interval
    if not (0.0 < value < 1.0 or value == 0.0 and low == "[" or value == 1.0 and high == "]"):
        raise InvalidProbability(f"{name} must be in {low}0, 1{high}, got {value}")


def _count(value: int, name: str, minimum: int | None = None, what: str = "an int") -> int:
    """value as an int: anything operator.index takes but a bool, so numpy integers too.

    what names the accepted type in the TypeError; a value below minimum, 0
    or 1, raises InvalidArgument "<name> must be nonnegative" or "positive".
    """
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be {what}, got {type(value).__name__},"
                        " which cannot be interpreted as an integer")
    if minimum is not None and value < minimum:
        bound = "positive" if minimum else "nonnegative"
        raise InvalidArgument(f"{name.replace('_', ' ')} must be {bound}, got {value}")
    return index(value)


def _bit(value: int, name: str) -> int:
    """value as 0 or 1: TypeError as for a count, InvalidArgument for any other int."""
    bit = _count(value, name)
    if bit not in (0, 1):
        raise InvalidArgument(f"{name.replace('_', ' ')} must be 0 or 1, got {value!r}")
    return bit


def _bytes(value: bytes, name: str, or_str: bool = False) -> None:
    """Raise TypeError unless value is bytes or a bytearray, or with or_str set a str."""
    if not (isinstance(value, (bytes, bytearray)) or or_str and isinstance(value, str)):
        expected = "bytes or str" if or_str else "bytes"
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
