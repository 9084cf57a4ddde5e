"""Exception types shared across the package.

Everything derives from QumarkError, itself a ValueError, so callers can
catch broadly while tests pin the precise failure.
"""


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
