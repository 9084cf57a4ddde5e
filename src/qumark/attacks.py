"""Adversary toolkit: collusion averaging, random noise, and index shifting.

All attacks operate on observed, classical messages. Releasing observed
copies is exactly what a careful owner does (handing out live qubit
messages would let one colluder measure in the marking basis and strip the
mark outright), so the classical setting is the interesting one.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Sequence
from itertools import compress

from . import stats
from ._record import Record
from .errors import (
    BasisMismatch, InvalidArgument, LengthMismatch, OffsetTooLarge, TooFewCopies, _bit, _count,
    _probability
)
from .qstate import RandomSource
from .watermark import (
    _BITS_TO_CODES, ObservedMessage, VerificationReport, WatermarkSecret, _flip_bits, verify
)

__all__ = [
    "AveragingResult",
    "AttackOutcome",
    "averaging_attack",
    "noise_attack",
    "shift_attack",
    "run_attack_report",
]


class AveragingResult(Record):
    """What collusion over several releases reveals and reconstructs.

    suspected_indices are the positions where any two copies disagree;
    disagreement_counts[i] is how many copies were outvoted at position i
    (zero everywhere the copies agree).
    """

    recovered_bits: str
    disagreement_counts: tuple[int, ...]

    @property
    def suspected_indices(self) -> tuple[int, ...]:
        counts = self.disagreement_counts
        return tuple(compress(range(len(counts)), counts))


class AttackOutcome(Record):
    """An attacked observation, with verification before and after the attack."""

    attacked: ObservedMessage
    verification_before: VerificationReport
    verification_after: VerificationReport


def averaging_attack(copies: Sequence[ObservedMessage]) -> AveragingResult:
    """Collude over several observed releases of the same message.

    Unmarked positions read identically in every copy, so any position where
    the copies disagree betrays the secret index set. A per-position majority
    vote (ties resolved to 0, deterministically) reconstructs an
    approximation of the unwatermarked original: for flip rates below 1/2 the
    vote converges on the true plaintext as copies accumulate, while at flip
    rate exactly 1/2 the marked values are coin flips and only the positions
    themselves are learned.
    """
    if len(copies) < 2:
        raise TooFewCopies(f"averaging needs at least two copies, got {len(copies)}")
    first = copies[0]
    for other in copies[1:]:
        if len(other) != len(first):
            raise LengthMismatch("copies must share one length to be averaged")
        if other.observation_basis != first.observation_basis:
            raise BasisMismatch("copies must share one observation basis to be averaged")
    m, n = len(copies), len(first)
    # each copy becomes one integer with a 0/1 digit per position; digits of
    # `width` bytes hold counts up to m, so summing the copies never carries
    # from one position into the next and leaves each position's ones count
    code = next(c for c in "BHILQ" if 256 ** array(c).itemsize > m)
    width = array(code).itemsize
    low_bytes = slice(0 if sys.byteorder == "little" else width - 1, None, width)
    total = 0
    for copy in copies:
        digits = bytearray(n * width)
        digits[low_bytes] = copy.bits.encode("ascii").translate(_BITS_TO_CODES)
        total += int.from_bytes(digits, sys.byteorder)
    ones = total.to_bytes(n * width, sys.byteorder)
    # lookup tables indexed by the ones count
    majority = bytes(ord("1") if 2 * c > m else ord("0") for c in range(m + 1))
    outvoted = [min(c, m - c) for c in range(m + 1)]
    if width == 1:  # counts are bytes, so bytes.translate does both lookups in C
        recovered = ones.translate(majority.ljust(256, b"0"))
        counts = ones.translate(bytes(outvoted).ljust(256, b"\0"))
    else:
        column_ones = array(code, ones)
        recovered = bytes(map(majority.__getitem__, column_ones))
        counts = array(code, map(outvoted.__getitem__, column_ones))
    return AveragingResult(recovered.decode("ascii"), tuple(counts))


def noise_attack(message: ObservedMessage, flip_rate: float, rng: RandomSource) -> ObservedMessage:
    """Flip every bit independently with probability flip_rate, one draw per bit.

    Noise at rate q moves an existing flip rate p to p + q(1 - 2p), so it
    degrades a watermark only by dragging its statistic toward 1/2.
    """
    _probability(flip_rate, "flip rate", "[]")
    bits = _flip_bits(message.bits, None, flip_rate, rng)
    return ObservedMessage(bits=bits, observation_basis=message.observation_basis)


def shift_attack(message: ObservedMessage, offset: int, pad_bit: int) -> ObservedMessage:
    """Desynchronize the index set by moving every bit up offset places.

    The front is padded with pad_bit and the tail truncated, preserving
    length. Verification anchored to absolute positions then compares mostly
    unrelated bits.
    """
    offset, pad_bit = _count(offset, "offset"), _bit(pad_bit, "pad_bit")
    if offset < 1:
        raise InvalidArgument(f"offset must be at least 1, got {offset}")
    if offset >= len(message):
        raise OffsetTooLarge(
            f"offset {offset} would shift the whole {len(message)}-bit message away"
        )
    bits = "01"[pad_bit] * offset + message.bits[: len(message) - offset]
    return ObservedMessage(bits=bits, observation_basis=message.observation_basis)


def run_attack_report(
    observation: ObservedMessage,
    reference: ObservedMessage,
    secret: WatermarkSecret,
    rule: stats.DecisionRule,
    attack: Callable[[ObservedMessage], ObservedMessage],
) -> AttackOutcome:
    """Apply an attack to a genuine observation and verify before and after."""
    before = verify(observation, reference, secret, rule)
    attacked = attack(observation)
    after = verify(attacked, reference, secret, rule)
    return AttackOutcome(attacked, before, after)
