"""Secret management: keys and the keyed derivation of watermark index sets.

The index set is a keyed pseudorandom sample of the eligible positions. A
keyed BLAKE2b in counter mode is expanded into unbiased integers that drive
a partial Fisher-Yates shuffle, so equal (key, params) pairs always select
the same set and the key holder can regenerate the set on demand instead of
storing it. Changing any of this is a format-breaking change: previously
issued keys would stop locating their watermarks.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from itertools import compress, count

from ._record import Record
from .carrier import _check_bits
from .errors import TooFewEligiblePositions
from .qstate import Basis, RandomSource
from .watermark import _BITS_TO_CODES, WatermarkSecret

__all__ = [
    "MIN_KEY_BYTES",
    "SecretKey",
    "DerivationParams",
    "derive_indices",
    "generate_secret",
]

MIN_KEY_BYTES = 16

_PERSONALIZATION = b"qumark.indices"  # domain-separates this use of the key


class SecretKey(Record):
    """Opaque key bytes, at least MIN_KEY_BYTES long."""

    data: bytes

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"key data must be bytes, got {type(data).__name__}")
        vars(self).update(data=bytes(data))
        if len(data) < MIN_KEY_BYTES:
            raise ValueError(f"key must be at least {MIN_KEY_BYTES} bytes, got {len(data)}")

    @classmethod
    def generate(cls, seed: int | None = None) -> "SecretKey":
        """Fresh 32-byte key, from system entropy or reproducibly from a nonnegative seed."""
        if seed is None:
            return cls(os.urandom(32))
        return cls(RandomSource(seed).randbytes(32))


class DerivationParams(Record):
    """Shape of an index-set derivation: message length, set size, optional mask.

    eligibility_mask, when given, is a '0'/'1' string of message_length marking
    the positions the watermark may occupy.
    """

    message_length: int
    mark_count: int
    eligibility_mask: str | None = None

    def _check(self) -> None:
        message_length, mask = self.message_length, self.eligibility_mask
        if message_length < 1:
            raise ValueError(f"message length must be positive, got {message_length}")
        if self.mark_count < 1:
            raise ValueError(f"mark count must be positive, got {self.mark_count}")
        if mask is not None:
            _check_bits(mask, "eligibility mask")
            if len(mask) != message_length:
                raise ValueError(
                    f"mask length {len(mask)} does not match message length {message_length}"
                )
        eligible = self.eligible_count()
        if self.mark_count > eligible:
            raise TooFewEligiblePositions(
                f"asked for {self.mark_count} marks but only {eligible} positions are eligible"
            )

    def eligible_count(self) -> int:
        if self.eligibility_mask is None:
            return self.message_length
        return self.eligibility_mask.count("1")

    def eligible_positions(self) -> list[int]:
        """Positions the watermark may occupy, in increasing order."""
        if self.eligibility_mask is None:
            return list(range(self.message_length))
        mask = self.eligibility_mask.encode("ascii").translate(_BITS_TO_CODES)
        return list(compress(range(self.message_length), mask))


def _key_words(key: SecretKey) -> Iterator[int]:
    """Deterministic stream of 64-bit words from a keyed BLAKE2b in counter mode."""
    import hashlib  # here, not at the top: only index derivation needs it

    raw = key.data
    if len(raw) > 64:
        raw = hashlib.blake2b(raw).digest()  # BLAKE2b keys cap at 64 bytes
    for counter in count():
        block = hashlib.blake2b(counter.to_bytes(8, "big"), key=raw, person=_PERSONALIZATION)
        yield from struct.unpack(">8Q", block.digest())


def _below(words: Iterator[int], bound: int) -> int:
    """Unbiased integer in [0, bound), by rejection sampling the word stream."""
    span = 1 << 64
    limit = span - span % bound
    for word in words:
        if word < limit:
            return word % bound


def derive_indices(key: SecretKey, params: DerivationParams) -> tuple[int, ...]:
    """Deterministically select params.mark_count distinct eligible positions.

    A partial Fisher-Yates shuffle over the eligible positions, driven by the
    key stream; the result is returned sorted. Without the key the selection
    is computationally indistinguishable from a uniform random subset.
    Only the entries the shuffle moves are stored, so without a mask the
    time and memory grow with mark_count, not with message_length.
    """
    if params.eligibility_mask is None:
        pool = range(params.message_length)
    else:
        pool = params.eligible_positions()
    moved: dict[int, int] = {}  # pool position -> the entry the shuffle put there
    chosen = []
    words = _key_words(key)
    for i in range(params.mark_count):
        j = i + _below(words, len(pool) - i)
        chosen.append(moved.get(j, pool[j]))
        moved[j] = moved.get(i, pool[i])
    return tuple(sorted(chosen))


def generate_secret(key: SecretKey, params: DerivationParams, mark_basis: Basis) -> WatermarkSecret:
    """Bundle a derived index set with its marking basis and the key that made it."""
    return WatermarkSecret(
        indices=derive_indices(key, params),
        mark_basis=mark_basis,
        key=key.data,
    )
