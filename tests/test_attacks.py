"""Tests for the adversary toolkit.

Small exact cases pin the vote and shift mechanics; seeded Monte Carlo runs
check the statistical claims: how fast collusion finds the index set, how
noise rates compose, and which attacks actually strip the watermark.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from qumark.attacks import (
    AveragingResult,
    averaging_attack,
    noise_attack,
    run_attack_report,
    shift_attack,
)
from qumark.errors import (
    BasisMismatch,
    InvalidProbability,
    LengthMismatch,
    OffsetTooLarge,
    TooFewCopies,
)
from qumark.qstate import Basis, RandomSource
from qumark.stats import DecisionRule
from qumark.watermark import (
    ObservedMessage,
    WatermarkSecret,
    build_message,
    embed,
    observe,
    verify,
)

WRITING = Basis(0.0)
MARK45 = Basis(45.0)
MARK30 = Basis(30.0)


def obs(bits, basis=WRITING):
    return ObservedMessage(bits=bits, observation_basis=basis)


class CountingSource(RandomSource):
    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = 0

    def draw(self):
        self.calls += 1
        return super().draw()


def marked_release(plain, indices, mark, embed_seed=0):
    """Embed once; the per-copy randomness lives in the observe seeds."""
    secret = WatermarkSecret(indices=tuple(indices), mark_basis=mark)
    marked = embed(build_message(plain, WRITING), secret, RandomSource(embed_seed))
    return marked, secret


def reference_averaging(copies):
    """Column-by-column vote, the reference for averaging_attack: its result and suspects."""
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
    return AveragingResult("".join(recovered), tuple(counts)), tuple(suspected)


@st.composite
def colluding_copies(draw):
    # past 255 copies a one-byte count per position would carry
    m = draw(st.integers(2, 40) | st.integers(250, 600))
    n = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ones_rate = [rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(n)]
    return [
        obs("".join("1" if rng.random() < rate else "0" for rate in ones_rate))
        for _ in range(m)
    ]


class TestAveragingAttack:
    @settings(max_examples=150, deadline=None)
    @given(colluding_copies())
    @example([obs("01"), obs("10")])
    @example([obs("1")] * 256 + [obs("0")] * 255)
    @example([obs("1")] * 255 + [obs("0")] * 255)
    def test_equals_the_column_by_column_reference(self, copies):
        result = averaging_attack(copies)
        expected, suspected = reference_averaging(copies)
        assert result == expected
        assert result.suspected_indices == suspected

    def test_tie_votes_resolve_to_zero(self):
        result = averaging_attack([obs("01"), obs("10")])
        assert result == AveragingResult(recovered_bits="00", disagreement_counts=(1, 1))
        assert result.suspected_indices == (0, 1)

    def test_majority_and_counts(self):
        result = averaging_attack([obs("111"), obs("101"), obs("110")])
        assert result.recovered_bits == "111"
        assert result.suspected_indices == (1, 2)
        assert result.disagreement_counts == (0, 1, 1)

    def test_agreeing_copies_raise_no_suspicion(self):
        result = averaging_attack([obs("0110")] * 5)
        assert result.recovered_bits == "0110"
        assert result.suspected_indices == ()
        assert result.disagreement_counts == (0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(TooFewCopies):
            averaging_attack([obs("01")])
        with pytest.raises(LengthMismatch):
            averaging_attack([obs("01"), obs("010")])
        with pytest.raises(BasisMismatch):
            averaging_attack([obs("01"), obs("01", basis=Basis(30.0))])

    def test_suspicion_never_leaves_the_index_set(self):
        plain = "0110" * 64
        indices = tuple(range(3, 256, 7))
        marked, _ = marked_release(plain, indices, MARK45)
        copies = [observe(marked, WRITING, RandomSource(s)) for s in range(8)]
        result = averaging_attack(copies)
        assert set(result.suspected_indices) <= set(indices)
        for i in set(range(256)) - set(indices):
            assert result.recovered_bits[i] == plain[i]
            assert result.disagreement_counts[i] == 0

    def test_detection_rate_grows_with_the_number_of_copies(self):
        # a marked position at flip rate 1/2 stays hidden only when all m
        # copies agree by chance, so the expected detected fraction is
        # 1 - 2^(1 - m)
        length = 12500
        indices = tuple(i for i in range(length) if i % 5 != 0)
        marked, _ = marked_release("0" * length, indices, MARK45)
        seed = 100
        for m, slack in [(2, 0.02), (5, 0.012), (10, 0.003)]:
            copies = []
            for _ in range(m):
                copies.append(observe(marked, WRITING, RandomSource(seed)))
                seed += 1
            found = len(averaging_attack(copies).suspected_indices)
            assert abs(found / len(indices) - (1 - 2 ** (1 - m))) < slack

    def test_twenty_copies_find_essentially_every_mark(self):
        length = 12500
        indices = tuple(i for i in range(length) if i % 5 != 0)
        marked, _ = marked_release("0" * length, indices, MARK45)
        copies = [observe(marked, WRITING, RandomSource(200 + s)) for s in range(20)]
        found = len(averaging_attack(copies).suspected_indices)
        assert found >= len(indices) - 3


class TestNoiseAttack:
    def test_zero_rate_is_the_identity(self):
        message = obs("0110010")
        assert noise_attack(message, 0.0, RandomSource(1)) == message

    def test_unit_rate_is_the_complement(self):
        out = noise_attack(obs("0110010"), 1.0, RandomSource(1))
        assert out.bits == "1001101"

    def test_one_draw_per_bit_and_basis_preserved(self):
        rng = CountingSource(2)
        message = obs("0" * 40, basis=Basis(30.0))
        out = noise_attack(message, 0.5, rng)
        assert rng.calls == 40
        assert out.observation_basis == message.observation_basis

    def test_rate_validation(self):
        with pytest.raises(InvalidProbability):
            noise_attack(obs("01"), -0.1, RandomSource(0))
        with pytest.raises(InvalidProbability):
            noise_attack(obs("01"), 1.2, RandomSource(0))

    @staticmethod
    def _merged_bins(counts, expected, floor=5.0):
        lo, hi = 0, len(expected) - 1
        while hi > lo and expected[lo] < floor:
            expected[lo + 1] += expected[lo]
            counts[lo + 1] += counts[lo]
            lo += 1
        while hi > lo and expected[hi] < floor:
            expected[hi - 1] += expected[hi]
            counts[hi - 1] += counts[hi]
            hi -= 1
        return counts[lo : hi + 1], expected[lo : hi + 1]

    def test_flip_counts_follow_the_binomial_law(self):
        length, rate, trials = 64, 0.3, 5000
        message = obs("0" * length)
        rng = RandomSource(31)
        counts = [0] * (length + 1)
        for _ in range(trials):
            counts[noise_attack(message, rate, rng).bits.count("1")] += 1
        expected = [trials * sps.binom.pmf(k, length, rate) for k in range(length + 1)]
        got, want = self._merged_bins(counts, expected)
        assert sps.chisquare(got, f_exp=want).pvalue > 0.001

    def test_two_passes_compose_like_one(self):
        # q1 then q2 flips a bit iff exactly one pass does, which is the
        # single rate q1 + q2 - 2 q1 q2
        length, q1, q2, trials = 64, 0.25, 0.1, 5000
        combined = q1 + q2 - 2 * q1 * q2
        message = obs("0" * length)
        rng = RandomSource(32)
        counts = [0] * (length + 1)
        for _ in range(trials):
            once = noise_attack(message, q1, rng)
            twice = noise_attack(once, q2, rng)
            counts[twice.bits.count("1")] += 1
        expected = [
            trials * sps.binom.pmf(k, length, combined) for k in range(length + 1)
        ]
        got, want = self._merged_bins(counts, expected)
        assert sps.chisquare(got, f_exp=want).pvalue > 0.001


class TestShiftAttack:
    def test_shifts_forward_and_pads_the_front(self):
        out = shift_attack(obs("110010"), 2, 0)
        assert out.bits == "001100"
        assert shift_attack(obs("110010"), 2, 1).bits == "111100"

    def test_length_and_basis_are_preserved(self):
        message = obs("10110100", basis=Basis(30.0))
        out = shift_attack(message, 3, 0)
        assert len(out) == len(message)
        assert out.observation_basis == message.observation_basis

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_attack(obs("0101"), 0, 0)
        with pytest.raises(OffsetTooLarge):
            shift_attack(obs("0101"), 4, 0)
        with pytest.raises(ValueError):
            shift_attack(obs("0101"), 1, 2)

    @pytest.mark.parametrize(
        "offset, pad_bit, name", [(1.5, 0, "offset"), ("1", 0, "offset"), (1, 1.0, "pad_bit")]
    )
    def test_a_non_int_argument_is_a_type_error_naming_it(self, offset, pad_bit, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            shift_attack(obs("0101"), offset, pad_bit)


class TestAttackOutcomes:
    LENGTH = 4096
    INDICES = tuple(range(0, 4096, 2))
    RULE = DecisionRule.wilson(0.99)

    def _release(self, mark, embed_seed=0, observe_seed=1):
        marked, secret = marked_release("0" * self.LENGTH, self.INDICES, mark, embed_seed)
        observation = observe(marked, WRITING, RandomSource(observe_seed))
        reference = obs("0" * self.LENGTH)
        return observation, reference, secret

    def test_report_wires_the_pieces_together(self):
        observation, reference, secret = self._release(MARK45)
        attack = lambda message: shift_attack(message, 3, 0)
        outcome = run_attack_report(observation, reference, secret, self.RULE, attack)
        assert outcome.attacked == attack(observation)
        assert outcome.verification_before.accepted
        assert outcome.verification_before.sample_size == len(self.INDICES)

    def test_averaging_strips_a_skewed_payload(self):
        # with an all-zero payload the vote lands on 1 only at marked
        # positions where 11 or more of the 20 coin flips came up 1, a rate
        # of about 0.41, far enough below 1/2 to fail verification
        reference = obs("0" * self.LENGTH)
        marked, secret = marked_release(reference.bits, self.INDICES, MARK45)
        copies = [observe(marked, WRITING, RandomSource(300 + s)) for s in range(20)]
        recovered = obs(averaging_attack(copies).recovered_bits)
        assert verify(copies[0], reference, secret, self.RULE).accepted
        assert not verify(recovered, reference, secret, self.RULE).accepted

    def test_averaging_cannot_strip_a_balanced_payload(self):
        # a payload balanced over the marked positions keeps the recovered
        # flip frequency at 1/2, so the watermark statistic survives the
        # vote; collusion still learns the index set, it just cannot erase
        # the mark this way
        plain = "0011" * (self.LENGTH // 4)
        marked, secret = marked_release(plain, self.INDICES, MARK45)
        copies = [observe(marked, WRITING, RandomSource(400 + s)) for s in range(20)]
        recovered = obs(averaging_attack(copies).recovered_bits)
        assert verify(recovered, obs(plain), secret, self.RULE).accepted

    def test_noise_cannot_strip_a_half_rate_mark(self):
        # at expected rate 1/2 extra noise moves the statistic nowhere
        observation, reference, secret = self._release(MARK45)
        attack = lambda message: noise_attack(message, 0.5, RandomSource(41))
        outcome = run_attack_report(observation, reference, secret, self.RULE, attack)
        assert outcome.verification_before.accepted
        assert outcome.verification_after.accepted

    def test_noise_does_strip_a_quarter_rate_mark(self):
        # rate 0.25 plus noise 0.2 composes to 0.35, well outside the band
        observation, reference, secret = self._release(MARK30)
        attack = lambda message: noise_attack(message, 0.2, RandomSource(42))
        outcome = run_attack_report(observation, reference, secret, self.RULE, attack)
        assert outcome.verification_before.accepted
        assert not outcome.verification_after.accepted

    def test_shift_desynchronizes_the_index_set(self):
        observation, reference, secret = self._release(MARK45)
        attack = lambda message: shift_attack(message, 3, 0)
        outcome = run_attack_report(observation, reference, secret, self.RULE, attack)
        assert outcome.verification_before.accepted
        assert not outcome.verification_after.accepted
