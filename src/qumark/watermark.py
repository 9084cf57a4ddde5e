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
    BasisMismatch, BasisNotDissimilar, EmptyMessage, IndexOutOfRange, InvalidArgument,
    LengthMismatch, SampleTooSmall, _bytes, _count, _probability
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
    "SmallSampleWarning",
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


class SmallSampleWarning(UserWarning):
    """The default rule would accept an unmarked copy of the index set: 0 errors."""


def _check_bitstring(bits: str) -> None:
    _check_bits(bits)
    if not bits:
        raise EmptyMessage("message bits must be nonempty")


def _check_indices(indices: Sequence[int], length: int) -> None:
    # indices arrive sorted, so the ends bound the whole set
    if indices and (indices[0] < 0 or indices[-1] >= length):
        raise IndexOutOfRange(f"indices must lie in [0, {length}), got {indices[0]}..{indices[-1]}")


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
        # bytes codes: delete every valid code in one pass and see if any is left
        if (
            codes.translate(None, bytes(range(len(palette))))
            if isinstance(codes, bytes)
            else max(codes) >= len(palette)
        ):
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
    """True when every index is exactly an int, so the indices can be kept as given.

    One pass, in C, over the items' types, with no arithmetic on their
    values: a sum would add numpy integers in their own fixed width and warn
    when it overflowed. A bool or another subclass of int is not exactly an int.
    """
    return operator.countOf(map(type, indices), int) == len(indices)


def _as_ints(indices: Iterable) -> tuple[int, ...]:
    """indices as plain ints by errors._count's rule: a bool, float or str raises TypeError."""
    indices = tuple(indices)
    if not _int_items(indices):
        indices = tuple([_count(i, "indices", what="ints") for i in indices])
    return indices


class WatermarkSecret(Record):
    """Verification secret: marked positions, marking basis, optional key bytes.

    indices must be strictly increasing; the key is carried only so a stored
    secret can re-derive or audit its own index set.
    """

    indices: tuple[int, ...]
    mark_basis: Basis
    key: bytes | None

    def __init__(self, indices: Iterable[int], mark_basis: Basis, key: bytes | None = None) -> None:
        indices = _as_ints(indices)
        if key is not None:
            _bytes(key, "key")
            key = bytes(key)  # a bytearray would stay the caller's to change
        vars(self).update(indices=indices, mark_basis=mark_basis, key=key)
        if not indices:
            raise InvalidArgument("index set must not be empty")
        # islice copies nothing
        if indices[0] < 0 or not all(map(operator.lt, indices, islice(indices, 1, None))):
            if indices[0] < 0:
                raise IndexOutOfRange(f"indices must be nonnegative, got {indices[0]}")
            raise InvalidArgument("indices must be strictly increasing")


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
    untouched. When stats.DEFAULT_RULE would accept 0 errors over the index
    set, so that verification cannot tell an unmarked copy from a marked one,
    embed warns SmallSampleWarning, or with strict set raises SampleTooSmall.
    """
    _check_indices(secret.indices, len(message))
    if not secret.mark_basis.is_dissimilar_to(message.writing_basis):
        raise BasisNotDissimilar(
            "marking basis equals the writing basis; the mark would never flip"
        )
    pe = expected_error_probability(secret.mark_basis, message.writing_basis)
    n, rule = len(secret.indices), stats.DEFAULT_RULE
    if stats.decide(0, n, pe, rule).accepted:  # 0 errors: what an unmarked copy shows
        text = (f"{n} marked positions at flip rate {pe:.4g}: the default rule, {rule.kind}"
                f" at confidence {rule.confidence:g}, would accept an unmarked copy;"
                f" run qumark analyze --pe {pe:.12g} to size the index set")
        if strict:
            raise SampleTooSmall(text)
        warnings.warn(text, SmallSampleWarning, stacklevel=2)
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
    rate is recomputed from the marking basis and the observation basis,
    which must differ (BasisNotDissimilar): a rate of 0 passes every unmarked
    copy. The command line's rule, when none is named, is stats.DEFAULT_RULE.
    """
    if len(suspect) != len(reference):
        raise LengthMismatch(f"suspect has {len(suspect)} bits, reference has {len(reference)}")
    if suspect.observation_basis != reference.observation_basis:
        raise BasisMismatch("suspect and reference were observed in different bases")
    if not secret.mark_basis.is_dissimilar_to(suspect.observation_basis):
        raise BasisNotDissimilar(
            "marking basis equals the observation basis; an unmarked copy would pass"
        )
    _check_indices(secret.indices, len(suspect))
    # each side's marked bits as one base-2 int, which the int-digits limit
    # exempts; the errors are the ones of their XOR. For one index itemgetter
    # returns the bit itself, a 1-character str that join keeps as it is.
    pick = operator.itemgetter(*secret.indices)
    suspect_marks, reference_marks = (
        int("".join(pick(side.bits)), 2) for side in (suspect, reference)
    )
    errors = (suspect_marks ^ reference_marks).bit_count()
    total = len(secret.indices)
    pe = expected_error_probability(secret.mark_basis, suspect.observation_basis)
    return VerificationReport(errors, total, pe, stats.decide(errors, total, pe, rule))


def classical_flip_embed(bits: str, indices: Iterable[int], pe: float, rng: RandomSource) -> str:
    """Classical twin of embed-then-observe: flip each indexed bit with probability pe.

    Draws once per index in increasing order, so transcripts are directly
    comparable with the quantum pipeline's statistics.
    """
    _check_bitstring(bits)
    _probability(pe, "flip probability", "[]")
    order = sorted(set(_as_ints(indices)))
    _check_indices(order, len(bits))
    return _flip_bits(bits, order, pe, rng)
