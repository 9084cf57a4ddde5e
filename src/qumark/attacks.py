"""Adversary toolkit: collusion averaging, random noise, and index shifting.

All attacks operate on observed, classical messages. Releasing observed
copies is exactly what a careful owner does (handing out live qubit
messages would let one colluder measure in the marking basis and strip the
mark outright), so the classical setting is the interesting one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import stats
from .errors import (
    BasisMismatch,
    InvalidProbability,
    LengthMismatch,
    OffsetTooLarge,
    TooFewCopies,
)
from .qstate import RandomSource
from .watermark import ObservedMessage, VerificationReport, WatermarkSecret, _flip_bits, verify

__all__ = [
    "AveragingResult",
    "AttackOutcome",
    "averaging_attack",
    "noise_attack",
    "shift_attack",
    "run_attack_report",
]


@dataclass(frozen=True)
class AveragingResult:
    """What collusion over several releases reveals and reconstructs.

    suspected_indices are the positions where any two copies disagree;
    disagreement_counts[i] is how many copies were outvoted at position i
    (zero everywhere the copies agree).
    """

    recovered_bits: str
    suspected_indices: tuple[int, ...]
    disagreement_counts: tuple[int, ...]


@dataclass(frozen=True)
class AttackOutcome:
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
    m = len(copies)
    recovered = []
    suspected = []
    counts = []
    for i, column in enumerate(zip(*(copy.bits for copy in copies))):
        ones = column.count("1")
        majority = "1" if 2 * ones > m else "0"
        recovered.append(majority)
        counts.append(m - ones if majority == "1" else ones)
        if 0 < ones < m:
            suspected.append(i)
    return AveragingResult(
        recovered_bits="".join(recovered),
        suspected_indices=tuple(suspected),
        disagreement_counts=tuple(counts),
    )


def noise_attack(message: ObservedMessage, flip_rate: float, rng: RandomSource) -> ObservedMessage:
    """Flip every bit independently with probability flip_rate, one draw per bit.

    Noise at rate q moves an existing flip rate p to p + q(1 - 2p), so it
    degrades a watermark only by dragging its statistic toward 1/2.
    """
    if not 0.0 <= flip_rate <= 1.0:
        raise InvalidProbability(f"flip rate must be in [0, 1], got {flip_rate}")
    bits = _flip_bits(message.bits, range(len(message)), flip_rate, rng)
    return ObservedMessage(bits=bits, observation_basis=message.observation_basis)


def shift_attack(message: ObservedMessage, offset: int, pad_bit: int) -> ObservedMessage:
    """Desynchronize the index set by moving every bit up offset places.

    The front is padded with pad_bit and the tail truncated, preserving
    length. Verification anchored to absolute positions then compares mostly
    unrelated bits.
    """
    if offset < 1:
        raise ValueError(f"offset must be at least 1, got {offset}")
    if offset >= len(message):
        raise OffsetTooLarge(
            f"offset {offset} would shift the whole {len(message)}-bit message away"
        )
    if pad_bit not in (0, 1):
        raise ValueError(f"pad bit must be 0 or 1, got {pad_bit!r}")
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
    return AttackOutcome(
        attacked=attacked,
        verification_before=before,
        verification_after=after,
    )
