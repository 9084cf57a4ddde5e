"""Protocol core: build qubit messages, embed the mark, observe, verify.

Embedding measures the qubits at a secret index set in the message's own
writing basis and rewrites the observed values in a dissimilar marking
basis. When anyone later observes the message back in the writing basis,
each marked position reads flipped with probability sin^2 of the angle
between the two bases, while every other position reads back exactly.
Ownership is then a statistical claim: the relative flip frequency over the
secret positions matches the expected rate.
"""

from __future__ import annotations

import operator
import warnings
from array import array
from collections.abc import Iterable, MutableSequence, Sequence
from itertools import islice

from . import stats
from ._record import Record
from .carrier import _check_bits
from .errors import (
    BasisMismatch,
    BasisNotDissimilar,
    EmptyMessage,
    IndexOutOfRange,
    InvalidProbability,
    LengthMismatch,
    SampleTooSmall,
)
from .qstate import (
    Basis,
    RandomSource,
    RebitState,
    encode_bit,
    expected_error_probability,
    outcome_probability,
)

__all__ = [
    "COMFORTABLE_MARK_COUNT",
    "WEAK_PE_THRESHOLD",
    "SmallSampleWarning",
    "WeakWatermarkWarning",
    "QuantumMessage",
    "WatermarkSecret",
    "ObservedMessage",
    "VerificationReport",
    "build_message",
    "embed",
    "observe",
    "verify",
    "classical_flip_embed",
]

COMFORTABLE_MARK_COUNT = 64  # below this, embed warns that verification is shaky
WEAK_PE_THRESHOLD = 0.05


class SmallSampleWarning(UserWarning):
    """The index set is small enough to make verification unreliable."""


class WeakWatermarkWarning(UserWarning):
    """The basis pair flips so rarely the mark is hard to tell from no mark."""


def _check_bitstring(bits: str) -> None:
    _check_bits(bits)
    if not bits:
        raise EmptyMessage("message bits must be nonempty")


def _check_indices(indices: Sequence[int], length: int) -> None:
    # indices arrive sorted, so the ends bound the whole set
    if indices and (indices[0] < 0 or indices[-1] >= length):
        raise IndexOutOfRange(
            f"indices must lie in [0, {length}), got {indices[0]}..{indices[-1]}"
        )


def _flip_kernel(
    codes: MutableSequence[int],
    positions: Iterable[int],
    threshold: Sequence[float],
    below: Sequence[int],
    above: Sequence[int],
    rng: RandomSource,
) -> None:
    """Redraw codes[i] for each i in positions, in place.

    With c = codes[i], the new code is below[c] when rng.draw() < threshold[c]
    and above[c] otherwise. Exactly one draw is made per position, in the
    order positions gives, through the source's own draw method. Every
    seeded transcript of the package rests on that contract.
    """
    draw = rng.draw
    for i in positions:
        c = codes[i]
        codes[i] = below[c] if draw() < threshold[c] else above[c]


def _measure(
    message: QuantumMessage, basis: Basis, positions: Iterable[int], zero: int, one: int,
    rng: RandomSource,
) -> list[int]:
    """A copy of the message's codes with each one at positions measured in basis: zero or one."""
    read0 = [outcome_probability(s, basis, 0) for s in message.palette]
    codes = list(message.codes)
    _flip_kernel(codes, positions, read0, [zero] * len(read0), [one] * len(read0), rng)
    return codes


# the maps between ASCII bits and 0 and 1, the codes of a two-entry palette
_BITS_TO_CODES = bytes.maketrans(b"01", b"\x00\x01")
_CODES_TO_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _flip_bits(bits: str, positions: Iterable[int], rate: float, rng: RandomSource) -> str:
    """Flip bits[i] for each i in positions with probability rate: draw < rate flips."""
    codes = list(bits.encode("ascii").translate(_BITS_TO_CODES))
    _flip_kernel(codes, positions, (rate, rate), (1, 0), (0, 1), rng)
    return bytes(codes).translate(_CODES_TO_BITS).decode("ascii")


class QuantumMessage(Record):
    """Ordered rebit states plus the basis the unmarked positions are written in.

    Each distinct angle is stored once in palette, since entries with equal
    angles are merged when a message is built, and each position holds
    the palette code of its state: bytes while the palette has at most 256
    entries, array('I') above that. states expands the codes into one
    RebitState per position; a caller with one state per position passes
    range(len(states)) as the codes. Equality compares position by position
    with the states' own angle tolerance, whatever the two palettes look like.
    """

    palette: tuple[RebitState, ...]
    codes: bytes | array
    writing_basis: Basis

    def __init__(
        self, palette: Iterable[RebitState], codes: Iterable[int], writing_basis: Basis
    ) -> None:
        palette = tuple(palette)
        out_of_range = IndexOutOfRange(f"palette codes must lie in [0, {len(palette)})")
        try:
            codes = bytes(codes) if len(palette) <= 256 else array("I", codes)
        except (ValueError, OverflowError):  # a code the storage cannot hold
            raise out_of_range from None
        if not codes:
            raise EmptyMessage("a quantum message needs at least one qubit")
        if max(codes) >= len(palette):
            raise out_of_range
        # the first entry with an angle keeps its code, later ones map onto it
        code_of: dict[float, int] = {}
        merged = [code_of.setdefault(state.phi, len(code_of)) for state in palette]
        if len(code_of) < len(palette):
            self.__init__(map(RebitState, code_of), map(merged.__getitem__, codes), writing_basis)
        else:
            vars(self).update(palette=palette, codes=codes, writing_basis=writing_basis)

    @property
    def states(self) -> tuple[RebitState, ...]:
        return tuple(map(self.palette.__getitem__, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumMessage):
            return NotImplemented
        if len(self) != len(other) or self.writing_basis != other.writing_basis:
            return False
        return all(
            self.palette[a] == other.palette[b] for a, b in set(zip(self.codes, other.codes))
        )


def _int_items(indices: Sequence) -> bool:
    """True when the indices can be kept as given: all ints, and no bool a secret could take.

    One pass, in C: a sum of ints (subclasses included) is an int, while a
    float makes it a float, numpy integers keep their own type and a str
    raises TypeError. A secret takes only nonnegative, strictly increasing
    indices, where the one at position i is at least i, so a bool (0 or 1)
    could pass it only at position 0 or 1; one further on is refused as is.
    """
    try:
        return type(sum(indices)) is int and bool not in map(type, indices[:2])
    except TypeError:
        return False


class WatermarkSecret(Record):
    """Verification secret: marked positions, marking basis, optional key bytes.

    indices must be strictly increasing; the key is carried only so a stored
    secret can re-derive or audit its own index set.
    """

    indices: tuple[int, ...]
    mark_basis: Basis
    key: bytes | None

    def __init__(self, indices: Iterable[int], mark_basis: Basis, key: bytes | None = None) -> None:
        indices = tuple(indices)
        if not _int_items(indices):
            indices = tuple(map(int, indices))
        vars(self).update(indices=indices, mark_basis=mark_basis, key=key)
        if not indices:
            raise ValueError("index set must not be empty")
        if indices[0] < 0:
            raise IndexOutOfRange(f"indices must be nonnegative, got {indices[0]}")
        if not all(map(operator.lt, indices, islice(indices, 1, None))):  # islice copies nothing
            raise ValueError("indices must be strictly increasing")


class ObservedMessage(Record):
    """Classical bits produced by measuring every qubit of a message in one basis."""

    bits: str
    observation_basis: Basis

    def _check(self) -> None:
        _check_bitstring(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


class VerificationReport(Record):
    """Outcome of comparing a suspect observation against the retained reference."""

    error_count: int
    sample_size: int
    expected_pe: float
    decision_detail: stats.DecisionOutcome

    @property
    def observed_frequency(self) -> float:
        return self.decision_detail.statistic

    @property
    def decision(self) -> str:
        return self.decision_detail.decision

    @property
    def accepted(self) -> bool:
        return self.decision_detail.accepted


def build_message(bits: str, basis: Basis) -> QuantumMessage:
    """Encode classical bits as eigenstates of basis, one qubit per bit."""
    _check_bitstring(bits)
    palette = (encode_bit(0, basis), encode_bit(1, basis))
    codes = bits.encode("ascii").translate(_BITS_TO_CODES)
    return QuantumMessage(palette, codes, basis)


def embed(
    message: QuantumMessage,
    secret: WatermarkSecret,
    rng: RandomSource,
    strict: bool = False,
) -> QuantumMessage:
    """Rewrite the qubits at the secret positions in the marking basis.

    Each marked qubit is measured in the message's writing basis and the
    observed bit re-encoded in the marking basis, consuming one rng draw per
    marked position in increasing index order. The input message is left
    untouched. With strict set, an index set too small for reliable
    verification raises instead of warning.
    """
    _check_indices(secret.indices, len(message))
    if not secret.mark_basis.is_dissimilar_to(message.writing_basis):
        raise BasisNotDissimilar(
            "marking basis equals the writing basis; the mark would never flip"
        )
    pe = expected_error_probability(secret.mark_basis, message.writing_basis)
    if pe < WEAK_PE_THRESHOLD:
        warnings.warn(
            f"flip probability {pe:.4g} is hard to tell from an unwatermarked copy",
            WeakWatermarkWarning,
            stacklevel=2,
        )
    if strict:
        needed = stats.recommended_sample_size(pe, 0.0, confidence=0.99, power=0.99)
        if len(secret.indices) < needed:
            raise SampleTooSmall(
                f"{len(secret.indices)} marked positions, strict embedding needs {needed}"
            )
    elif len(secret.indices) < COMFORTABLE_MARK_COUNT:
        warnings.warn(
            f"only {len(secret.indices)} marked positions; verification on so few"
            " is statistically weak",
            SmallSampleWarning,
            stacklevel=2,
        )
    # a measured qubit reads 0 with P(read 0) and is then rewritten as the
    # marking basis's eigenstate of what it read, code size or size + 1
    size = len(message.palette)
    palette = message.palette + (encode_bit(0, secret.mark_basis), encode_bit(1, secret.mark_basis))
    codes = _measure(message, message.writing_basis, secret.indices, size, size + 1, rng)
    return QuantumMessage(palette, codes, message.writing_basis)


def observe(message: QuantumMessage, basis: Basis, rng: RandomSource) -> ObservedMessage:
    """Measure every qubit in basis, consuming one draw per position in order."""
    codes = _measure(message, basis, range(len(message)), 0, 1, rng)
    bits = bytes(codes).translate(_CODES_TO_BITS).decode("ascii")
    return ObservedMessage(bits=bits, observation_basis=basis)


def verify(
    suspect: ObservedMessage,
    reference: ObservedMessage,
    secret: WatermarkSecret,
    rule: stats.DecisionRule,
) -> VerificationReport:
    """Decide whether a suspect observation carries the watermark.

    The reference is the owner's record of the original message observed in
    its writing basis, which for eigenstate messages is simply the original
    plaintext. Only the secret positions are compared; the expected flip
    rate is recomputed from the marking basis and the observation basis.
    """
    if len(suspect) != len(reference):
        raise LengthMismatch(
            f"suspect has {len(suspect)} bits, reference has {len(reference)}"
        )
    if suspect.observation_basis != reference.observation_basis:
        raise BasisMismatch("suspect and reference were observed in different bases")
    _check_indices(secret.indices, len(suspect))
    errors = sum(1 for i in secret.indices if suspect.bits[i] != reference.bits[i])
    total = len(secret.indices)
    pe = expected_error_probability(secret.mark_basis, suspect.observation_basis)
    return VerificationReport(errors, total, pe, stats.decide(errors, total, pe, rule))


def classical_flip_embed(
    bits: str,
    indices: Iterable[int],
    pe: float,
    rng: RandomSource,
) -> str:
    """Classical twin of embed-then-observe: flip each indexed bit with probability pe.

    Draws once per index in increasing order, so transcripts are directly
    comparable with the quantum pipeline's statistics.
    """
    _check_bitstring(bits)
    if not 0.0 <= pe <= 1.0:
        raise InvalidProbability(f"flip probability must be in [0, 1], got {pe}")
    order = sorted({int(i) for i in indices})
    _check_indices(order, len(bits))
    return _flip_bits(bits, order, pe, rng)
