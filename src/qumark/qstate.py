"""Rebit states, measurement bases, and Born-rule measurement.

Everything here works with real-amplitude qubits in the linear-polarization
picture: a pure state is an angle phi in [0, 180) degrees whose amplitude
onto the basis vector |theta> is cos(phi - theta). A measurement basis is
the orthonormal pair {|theta>, |theta + 90>} with theta in [0, 90). Angles
phi and phi + 180 describe the same state, which is why both rings wrap.
"""

from __future__ import annotations

import math
import random
from sys import float_info

from ._record import Record
from .errors import InvalidArgument, _bit, _count, _number

__all__ = [
    "ANGLE_TOLERANCE",
    "Basis",
    "RebitState",
    "RandomSource",
    "encode_bit",
    "outcome_probability",
    "measure",
    "expected_error_probability",
]

ANGLE_TOLERANCE = 1e-9  # degrees; angles closer than this count as the same angle


def _reduce_angle(value: float, name: str, period: float) -> float:
    if not abs(_number(value, name)) <= float_info.max:  # NaN, inf, or an int past floats
        raise InvalidArgument(f"angle must be finite, got {value!r}")
    reduced = float(value) % period
    # x % period can round up to period itself for tiny negative x
    return 0.0 if reduced == period else reduced


def _ring_distance(a: float, b: float, period: float) -> float:
    d = abs(a - b)
    return min(d, period - d)


def _fold(delta: float) -> float:
    """Reduce an angle difference to [0, 90]; the Born rule only needs that range.

    Differences within ANGLE_TOLERANCE of a quarter turn snap onto it, the
    same identification the equality operators use. Encoding a 1 adds 90.0
    to theta, which rounds for most angles, and without the snap those
    eigenstates would carry flip probabilities of ~1e-30 instead of 0.
    """
    d = math.fabs(math.fmod(delta, 180.0))
    if d > 90.0:
        d = 180.0 - d  # exact, both operands within a factor of two
    if d <= ANGLE_TOLERANCE:
        return 0.0
    if d >= 90.0 - ANGLE_TOLERANCE:
        return 90.0
    return d


class Basis(Record):
    """Writing or measurement basis {|theta>, |theta + 90>}.

    theta is reduced into [0, 90) on construction. Equality is circular with
    tolerance ANGLE_TOLERANCE, so instances are deliberately unhashable.
    """

    theta: float

    def __init__(self, theta: float) -> None:
        vars(self).update(theta=_reduce_angle(theta, "theta", 90.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return _ring_distance(self.theta, other.theta, 90.0) <= ANGLE_TOLERANCE

    def is_dissimilar_to(self, other: "Basis") -> bool:
        """True when writing in one basis and reading in the other is lossy."""
        return not self == other


class RebitState(Record):
    """Pure rebit |phi> with phi reduced into [0, 180).

    Equality is circular with tolerance ANGLE_TOLERANCE (|0> and |180> are
    the same state up to a global sign).
    """

    phi: float

    def __init__(self, phi: float) -> None:
        vars(self).update(phi=_reduce_angle(phi, "phi", 180.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RebitState):
            return NotImplemented
        return _ring_distance(self.phi, other.phi, 180.0) <= ANGLE_TOLERANCE


class RandomSource(random.Random):
    """Seedable stream of uniform draws in [0, 1).

    Equal seeds yield equal streams on every platform, which is what makes
    embed and observe transcripts reproducible: draw is random.Random.random
    itself, so RandomSource(s) draws what random.Random(s) does. A seed
    other than an int or None raises TypeError, a negative one InvalidArgument.
    A source is single-consumer: concurrent users must take one source
    each, or draw order is undefined.
    """

    def __init__(self, seed: int | None = None) -> None:
        super().__init__(seed)

    def seed(self, a: int | None = None, version: int = 2) -> None:
        # random.Random seeds with abs(), so -5 would silently replay 5
        super().seed(a if a is None else _count(a, "seed", 0, "an int or None"), version)

    draw = random.Random.random  # the next uniform draw in [0, 1)


def encode_bit(bit: int, basis: Basis) -> RebitState:
    """Write a classical bit as the matching eigenstate of basis.

    Measuring the result in the same basis returns bit with probability 1.
    """
    return RebitState(basis.theta + 90.0 * _bit(bit, "bit"))


def outcome_probability(state: RebitState, basis: Basis, bit: int) -> float:
    """Born-rule probability of reading bit when measuring state in basis."""
    bit = _bit(bit, "bit")
    d = _fold(state.phi - basis.theta)
    # exact quarter turns get exact probabilities, so eigenstates of the
    # measured basis behave deterministically for every rng
    if d == 0.0 or d == 90.0:
        return 1.0 if (d == 90.0) == bool(bit) else 0.0
    radians = math.radians(d)
    return (math.sin(radians) if bit else math.cos(radians)) ** 2


def measure(state: RebitState, basis: Basis, rng: RandomSource) -> int:
    """Measure state in basis, consuming exactly one draw from rng.

    The simulator cannot stop a caller from re-measuring the same logical
    qubit; protocol code must treat measurement as destructive and only ever
    measure a state object once.
    """
    return 0 if rng.draw() < outcome_probability(state, basis, 0) else 1


def expected_error_probability(writing: Basis, reading: Basis) -> float:
    """Probability that a bit written in one basis reads back flipped in the other.

    Equals sin^2 of the angle between the bases; symmetric in its arguments,
    zero exactly when the bases coincide.
    """
    return outcome_probability(encode_bit(0, writing), reading, 1)
