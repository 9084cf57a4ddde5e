"""Tests for the embed/observe/verify protocol core.

Structural behavior is pinned with eigenstate messages, whose embedding is
deterministic; the statistical behavior of marked positions is checked with
seeded Monte Carlo runs against the Binomial law they must follow, and
against the classical flip model that mirrors the pipeline.
"""

import operator
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from qumark.errors import (
    BasisMismatch,
    BasisNotDissimilar,
    EmptyMessage,
    IndexOutOfRange,
    LengthMismatch,
    SampleTooSmall,
)
from qumark.qstate import Basis, RandomSource, expected_error_probability
from qumark.stats import ACCEPT, DecisionRule
from qumark.watermark import (
    COMFORTABLE_MARK_COUNT,
    ObservedMessage,
    QuantumMessage,
    SmallSampleWarning,
    WatermarkSecret,
    WeakWatermarkWarning,
    build_message,
    classical_flip_embed,
    embed,
    observe,
    verify,
)

WRITING = Basis(0.0)
MARK45 = Basis(45.0)
MARK30 = Basis(30.0)


@st.composite
def spelled_indices(draw):
    """Index lists, mostly valid, each index spelled as an int, a float, a bool or a str."""
    values = draw(st.lists(st.integers(-1, 2**70), max_size=6, unique=True))
    if draw(st.booleans()):
        values.sort()

    def spellings(value):
        spelled = [value, str(value), float(value) + 0.5]
        return spelled + [bool(value)] if value in (0, 1) else spelled

    return [draw(st.sampled_from(spellings(value))) for value in values]


class CountingSource(RandomSource):
    """RandomSource that counts how many draws were consumed."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.calls = 0

    def draw(self):
        self.calls += 1
        return super().draw()


class TestMessageTypes:
    def test_build_message_encodes_eigenstates(self):
        message = build_message("0110", WRITING)
        assert len(message) == 4
        assert [s.phi for s in message.states] == [0.0, 90.0, 90.0, 0.0]
        assert message.writing_basis == WRITING

    def test_empty_and_malformed_bits(self):
        with pytest.raises(EmptyMessage):
            build_message("", WRITING)
        with pytest.raises(ValueError):
            build_message("01x0", WRITING)
        with pytest.raises(TypeError):
            build_message(b"0110", WRITING)

    def test_secret_requires_increasing_indices(self):
        WatermarkSecret(indices=(2, 3, 4, 6), mark_basis=MARK45)
        with pytest.raises(ValueError):
            WatermarkSecret(indices=(), mark_basis=MARK45)
        with pytest.raises(ValueError):
            WatermarkSecret(indices=(3, 2), mark_basis=MARK45)
        with pytest.raises(ValueError):
            WatermarkSecret(indices=(2, 2), mark_basis=MARK45)
        with pytest.raises(IndexOutOfRange):
            WatermarkSecret(indices=(-1, 2), mark_basis=MARK45)

    @given(st.lists(st.integers(-2, 6) | st.floats(-2.0, 6.0) | st.booleans(), max_size=6))
    def test_secret_accepts_what_the_per_index_loop_accepted(self, raw):
        def reference(values):
            indices = tuple(int(i) for i in values)
            if not indices or indices[0] < 0:
                return None
            if any(b <= a for a, b in zip(indices, indices[1:])):
                return None
            return indices

        try:
            indices = WatermarkSecret(indices=raw, mark_basis=MARK45).indices
        except ValueError:
            indices = None
        assert indices == reference(raw)

    @given(spelled_indices() | st.lists(st.integers(-1, 2**70) | st.booleans(), max_size=6))
    def test_secret_indices_are_the_per_index_ints(self, raw):
        def outcome(values):
            try:
                return WatermarkSecret(indices=values, mark_basis=MARK45).indices
            except ValueError as exc:
                return type(exc), str(exc)

        got = outcome(raw)
        assert got == outcome([int(i) for i in raw])
        if not isinstance(got[0], type):  # a secret was made
            assert all(type(i) is int for i in got)
            if all(type(i) is int for i in raw):
                assert all(map(operator.is_, got, raw))

    def test_observed_message_validates_bits(self):
        observed = ObservedMessage(bits="0101", observation_basis=WRITING)
        assert len(observed) == 4
        with pytest.raises(ValueError):
            ObservedMessage(bits="012", observation_basis=WRITING)
        with pytest.raises(EmptyMessage):
            ObservedMessage(bits="", observation_basis=WRITING)


class TestEmbed:
    SECRET = WatermarkSecret(indices=(2, 3, 4, 6), mark_basis=MARK45)

    def test_marked_positions_move_to_the_marking_basis(self):
        message = build_message("01100101", WRITING)
        marked = embed(message, self.SECRET, RandomSource(1))
        # eigenstates measure deterministically, so the observed bit equals
        # the written bit and the marked angle is mark_basis + 90 * bit
        assert [s.phi for s in marked.states] == [
            0.0, 90.0, 135.0, 45.0, 45.0, 90.0, 45.0, 90.0,
        ]
        assert marked.writing_basis == WRITING

    def test_eigenstate_embedding_ignores_the_seed(self):
        message = build_message("01100101", WRITING)
        first = embed(message, self.SECRET, RandomSource(1))
        second = embed(message, self.SECRET, RandomSource(999))
        assert first == second

    def test_input_message_is_untouched(self):
        message = build_message("01100101", WRITING)
        before = message.states
        embed(message, self.SECRET, RandomSource(1))
        assert message.states == before

    def test_unmarked_positions_are_never_rewritten(self):
        message = build_message("0" * 64, WRITING)
        secret = WatermarkSecret(indices=tuple(range(0, 64, 4)), mark_basis=MARK30)
        marked = embed(message, secret, RandomSource(5))
        untouched = set(range(64)) - set(secret.indices)
        for i in untouched:
            assert marked.states[i] == message.states[i]

    def test_one_draw_per_marked_position(self):
        message = build_message("0" * 64, WRITING)
        secret = WatermarkSecret(indices=tuple(range(0, 64, 4)), mark_basis=MARK45)
        rng = CountingSource(3)
        embed(message, secret, rng)
        assert rng.calls == len(secret.indices)

    def test_similar_basis_is_refused(self):
        message = build_message("0101", WRITING)
        secret = WatermarkSecret(indices=(0, 2), mark_basis=Basis(0.0))
        with pytest.raises(BasisNotDissimilar):
            embed(message, secret, RandomSource(1))

    def test_out_of_range_indices_are_refused(self):
        message = build_message("0101", WRITING)
        secret = WatermarkSecret(indices=(0, 4), mark_basis=MARK45)
        with pytest.raises(IndexOutOfRange):
            embed(message, secret, RandomSource(1))

    def test_small_index_set_warns(self):
        message = build_message("0" * 128, WRITING)
        small = WatermarkSecret(indices=tuple(range(COMFORTABLE_MARK_COUNT - 1)), mark_basis=MARK45)
        with pytest.warns(SmallSampleWarning):
            embed(message, small, RandomSource(1))

    def test_comfortable_index_set_does_not_warn(self):
        message = build_message("0" * 128, WRITING)
        secret = WatermarkSecret(indices=tuple(range(COMFORTABLE_MARK_COUNT)), mark_basis=MARK45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            embed(message, secret, RandomSource(1))

    def test_nearly_similar_basis_warns_of_weak_mark(self):
        message = build_message("0" * 128, WRITING)
        secret = WatermarkSecret(indices=tuple(range(64)), mark_basis=Basis(1.0))
        with pytest.warns(WeakWatermarkWarning):
            embed(message, secret, RandomSource(1))

    def test_strict_mode_raises_below_the_recommended_size(self):
        message = build_message("0" * 16, WRITING)
        # at a flip rate of one half the recommended size is 8
        small = WatermarkSecret(indices=(0, 1, 2, 3), mark_basis=MARK45)
        with pytest.raises(SampleTooSmall):
            embed(message, small, RandomSource(1), strict=True)
        enough = WatermarkSecret(indices=tuple(range(8)), mark_basis=MARK45)
        embed(message, enough, RandomSource(1), strict=True)


class TestObserve:
    def test_unmarked_message_reads_back_exactly(self):
        for seed in range(20):
            message = build_message("0110010111001010", WRITING)
            observed = observe(message, WRITING, RandomSource(seed))
            assert observed.bits == "0110010111001010"
            assert observed.observation_basis == WRITING

    def test_one_draw_per_position(self):
        message = build_message("0" * 48, WRITING)
        rng = CountingSource(9)
        observe(message, WRITING, rng)
        assert rng.calls == 48

    def test_marked_message_only_differs_at_marked_positions(self):
        plain = "0110" * 8
        secret = WatermarkSecret(indices=(1, 7, 12, 25, 30), mark_basis=MARK45)
        marked = embed(build_message(plain, WRITING), secret, RandomSource(2))
        for seed in range(50):
            observed = observe(marked, WRITING, RandomSource(seed))
            diffs = {i for i in range(32) if observed.bits[i] != plain[i]}
            assert diffs <= set(secret.indices)

    def test_same_seed_reproduces_the_observation(self):
        secret = WatermarkSecret(indices=tuple(range(0, 32, 2)), mark_basis=MARK45)
        marked = embed(build_message("01" * 16, WRITING), secret, RandomSource(7))
        first = observe(marked, WRITING, RandomSource(123))
        second = observe(marked, WRITING, RandomSource(123))
        assert first == second


class TestFlipStatistics:
    @staticmethod
    def _merged_bins(counts, expected, floor=5.0):
        # fold sparse leading/trailing bins inward until all expectations
        # clear the chi-square validity floor
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

    @pytest.mark.parametrize("mark", [MARK30, MARK45])
    def test_flip_counts_follow_the_binomial_law(self, mark):
        plain = "0" * 32
        secret = WatermarkSecret(indices=tuple(range(0, 32, 2)), mark_basis=mark)
        marked = embed(build_message(plain, WRITING), secret, RandomSource(0))
        pe = expected_error_probability(mark, WRITING)
        trials, size = 10000, 16
        rng = RandomSource(1234)
        counts = [0] * (size + 1)
        for _ in range(trials):
            observed = observe(marked, WRITING, rng)
            errors = sum(
                1 for i in secret.indices if observed.bits[i] != plain[i]
            )
            counts[errors] += 1
        expected = [trials * sps.binom.pmf(k, size, pe) for k in range(size + 1)]
        got, want = self._merged_bins(counts, expected)
        result = sps.chisquare(got, f_exp=want)
        assert result.pvalue > 0.001

    def test_classical_flip_model_matches_the_quantum_pipeline(self):
        plain = "0" * 32
        indices = tuple(range(0, 32, 2))
        secret = WatermarkSecret(indices=indices, mark_basis=MARK30)
        marked = embed(build_message(plain, WRITING), secret, RandomSource(0))
        pe = expected_error_probability(MARK30, WRITING)
        trials, size = 10000, 16
        q_rng, c_rng = RandomSource(55), RandomSource(56)
        q_counts = np.zeros(size + 1, dtype=int)
        c_counts = np.zeros(size + 1, dtype=int)
        for _ in range(trials):
            observed = observe(marked, WRITING, q_rng)
            q_counts[sum(observed.bits[i] != plain[i] for i in indices)] += 1
            flipped = classical_flip_embed(plain, indices, pe, c_rng)
            c_counts[sum(flipped[i] != plain[i] for i in indices)] += 1
        keep = (q_counts + c_counts) >= 10
        table = np.array([
            np.append(q_counts[keep], q_counts[~keep].sum()),
            np.append(c_counts[keep], c_counts[~keep].sum()),
        ])
        table = table[:, table.sum(axis=0) > 0]
        result = sps.chi2_contingency(table)
        assert result.pvalue > 0.001


class TestClassicalFlipEmbed:
    def test_flips_only_at_the_given_indices(self):
        rng = RandomSource(4)
        out = classical_flip_embed("00000000", [1, 3, 5], 1.0, rng)
        assert out == "01010100"

    def test_zero_rate_is_the_identity(self):
        rng = RandomSource(4)
        assert classical_flip_embed("0110", [0, 1, 2, 3], 0.0, rng) == "0110"

    def test_duplicate_indices_collapse(self):
        out = classical_flip_embed("0000", [2, 2, 2], 1.0, RandomSource(0))
        assert out == "0010"

    def test_one_draw_per_distinct_index(self):
        rng = CountingSource(8)
        classical_flip_embed("0" * 32, range(0, 32, 4), 0.5, rng)
        assert rng.calls == 8

    def test_validation(self):
        with pytest.raises(IndexOutOfRange):
            classical_flip_embed("0000", [4], 0.5, RandomSource(0))
        from qumark.errors import InvalidProbability
        with pytest.raises(InvalidProbability):
            classical_flip_embed("0000", [0], 1.5, RandomSource(0))


class TestVerify:
    def test_two_flips_among_four_marks_accepts(self):
        secret = WatermarkSecret(indices=(0, 1, 2, 3), mark_basis=MARK45)
        reference = ObservedMessage(bits="0000", observation_basis=WRITING)
        suspect = ObservedMessage(bits="0110", observation_basis=WRITING)
        report = verify(suspect, reference, secret, DecisionRule.fixed(0.25))
        assert report.accepted
        assert report.error_count == 2
        assert report.sample_size == 4
        assert report.observed_frequency == 0.5
        assert report.decision_detail.bound_low == 0.25
        assert report.decision_detail.bound_high == 0.75

    @pytest.mark.parametrize("rule", [
        DecisionRule.fixed(0.25), DecisionRule.wilson(0.99), DecisionRule.exact_binomial(0.99)
    ])
    @pytest.mark.parametrize("suspect_bits", ["0110", "0000"])
    def test_the_verdict_is_read_from_its_detail(self, rule, suspect_bits):
        secret = WatermarkSecret(indices=(0, 1, 2, 3), mark_basis=MARK45)
        reference = ObservedMessage(bits="0000", observation_basis=WRITING)
        suspect = ObservedMessage(bits=suspect_bits, observation_basis=WRITING)
        report = verify(suspect, reference, secret, rule)
        detail = report.decision_detail
        assert report.observed_frequency == detail.statistic == suspect_bits.count("1") / 4
        assert report.decision == detail.decision
        assert report.accepted == detail.accepted == (detail.decision == ACCEPT)

    def test_error_free_copy_is_rejected(self):
        size = 4096
        secret = WatermarkSecret(indices=tuple(range(size)), mark_basis=MARK45)
        reference = ObservedMessage(bits="0" * size, observation_basis=WRITING)
        report = verify(reference, reference, secret, DecisionRule.wilson(0.99))
        assert not report.accepted
        assert report.error_count == 0

    def test_expected_rate_follows_the_observation_basis(self):
        secret = WatermarkSecret(indices=tuple(range(16)), mark_basis=MARK45)
        basis = Basis(30.0)
        reference = ObservedMessage(bits="0" * 16, observation_basis=basis)
        suspect = ObservedMessage(bits="1" + "0" * 15, observation_basis=basis)
        report = verify(suspect, reference, secret, DecisionRule.wilson(0.99))
        assert report.expected_pe == expected_error_probability(MARK45, basis)

    def test_only_marked_positions_are_compared(self):
        secret = WatermarkSecret(indices=(0, 1), mark_basis=MARK45)
        reference = ObservedMessage(bits="001111", observation_basis=WRITING)
        suspect = ObservedMessage(bits="010000", observation_basis=WRITING)
        report = verify(suspect, reference, secret, DecisionRule.fixed(0.25))
        assert report.error_count == 1
        assert report.sample_size == 2

    def test_mismatched_inputs_are_refused(self):
        secret = WatermarkSecret(indices=(0, 1), mark_basis=MARK45)
        ref = ObservedMessage(bits="0000", observation_basis=WRITING)
        with pytest.raises(LengthMismatch):
            verify(ObservedMessage(bits="000", observation_basis=WRITING), ref, secret,
                   DecisionRule.fixed(0.25))
        with pytest.raises(BasisMismatch):
            verify(ObservedMessage(bits="0000", observation_basis=Basis(30.0)), ref,
                   secret, DecisionRule.fixed(0.25))
        far = WatermarkSecret(indices=(0, 9), mark_basis=MARK45)
        with pytest.raises(IndexOutOfRange):
            verify(ref, ref, far, DecisionRule.fixed(0.25))

    def test_end_to_end_genuine_copy_accepts(self):
        plain = "01" * 1024
        secret = WatermarkSecret(indices=tuple(range(0, 2048, 4)), mark_basis=MARK45)
        message = build_message(plain, WRITING)
        marked = embed(message, secret, RandomSource(10))
        reference = observe(message, WRITING, RandomSource(11))
        suspect = observe(marked, WRITING, RandomSource(12))
        report = verify(suspect, reference, secret, DecisionRule.wilson(0.99))
        assert report.accepted
        assert report.sample_size == 512

    def test_detection_power_grows_with_the_index_set(self):
        # a copy whose flip rate was degraded to 0.45 should be rejected
        # more and more often as the index set grows
        rule = DecisionRule.wilson(0.99)
        rng = RandomSource(2718)
        rates = []
        for size in (16, 256, 4096):
            secret = WatermarkSecret(indices=tuple(range(size)), mark_basis=MARK45)
            reference = ObservedMessage(bits="0" * size, observation_basis=WRITING)
            rejected = 0
            trials = 400
            for _ in range(trials):
                bits = classical_flip_embed(reference.bits, range(size), 0.45, rng)
                suspect = ObservedMessage(bits=bits, observation_basis=WRITING)
                if not verify(suspect, reference, secret, rule).accepted:
                    rejected += 1
            rates.append(rejected / trials)
        assert rates[0] < rates[1] < rates[2]
        assert rates[2] > 0.99
