"""Tests for decision rules and sample-size planning.

Frozen oracle values were computed independently of the implementation:
Wilson bounds with 50-digit arithmetic (z = sqrt(2) * erfinv(c)), exact
binomial p-values with rational arithmetic, recommended sizes by a
brute-force linear scan of the power curve. scipy serves as a second,
online oracle for randomized cross-checks.
"""

import math
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import accumulate
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from qumark import stats
from qumark.errors import (
    CountExceedsTotal,
    InvalidProbability,
    RatesEqual,
    Unachievable,
    ZeroTotal,
)
from qumark.stats import (
    ACCEPT,
    REJECT,
    DecisionRule,
    SampleSizeSpec,
    decide,
    min_sample_size_literal,
    recommended_sample_size,
    relative_frequency,
)

# (errors, total, confidence) -> (low, high), 50-digit computation
WILSON_ORACLE = {
    (5000, 10000, 0.99): (0.48712512394758849, 0.51287487605241151),
    (5300, 10000, 0.99): (0.51712841273365189, 0.54283180428234052),
    (2, 4, 0.99): (0.10506970646097859, 0.89493029353902141),
    (2048, 4096, 0.99): (0.47989261243016049, 0.52010738756983951),
}

# (errors, total, rate) -> exact rational two-sided minimum-likelihood p-value
PVALUE_ORACLE = {
    (2, 4, 0.5): 1.0,
    (7, 10, 0.5): 0.34375,
    (4, 16, 0.25): 1.0,
    (0, 8, 0.5): 0.0078125,
    (1, 16, 0.5): 0.000518798828125,
    (5300, 10000, 0.5): 2.0760336959207247e-09,
    (3000, 10000, 0.25): 1.0595611335323524e-29,
    (2, 20, 0.25): 0.1930722893876009,
}

# (pe, null_rate, confidence, power) -> minimal n, brute-force linear scan
RECOMMENDED_ORACLE = {
    (0.5, 0.0, 0.99, 0.99): 8,
    (0.5, 0.45, 0.99, 0.99): 2408,
    (0.5, 0.25, 0.95, 0.90): 42,
    (0.25, 0.0, 0.99, 0.99): 19,
    (0.5, 0.2, 0.99, 0.99): 59,
    (0.5, 0.3, 0.99, 0.99): 144,
    (0.5, 0.4, 0.99, 0.99): 596,
    (0.3, 0.0, 0.95, 0.95): 10,
    (0.5, 0.48, 0.99, 0.99): 15002,
}


class TestRelativeFrequency:
    def test_half(self):
        assert relative_frequency(2, 4) == 0.5

    def test_exact_fractions(self):
        assert relative_frequency(0, 5) == 0.0
        assert relative_frequency(7, 28) == 0.25
        assert relative_frequency(4096, 4096) == 1.0

    def test_errors(self):
        with pytest.raises(CountExceedsTotal):
            relative_frequency(5, 4)
        with pytest.raises(ZeroTotal):
            relative_frequency(0, 0)
        with pytest.raises(ValueError):
            relative_frequency(-1, 4)


class TestDecisionRule:
    def test_fixed_requires_tolerance_in_range(self):
        DecisionRule.fixed(0.25)
        for bad in (0.0, 1.0, -0.1, None):
            with pytest.raises(ValueError):
                DecisionRule(kind="fixed_tolerance", tolerance=bad)
        with pytest.raises(ValueError):
            DecisionRule(kind="fixed_tolerance", tolerance=0.25, confidence=0.99)

    def test_statistical_rules_require_confidence(self):
        DecisionRule.wilson(0.99)
        DecisionRule.exact_binomial(0.95)
        for kind in ("wilson_interval", "exact_binomial"):
            with pytest.raises(ValueError):
                DecisionRule(kind=kind, confidence=1.0)
            with pytest.raises(ValueError):
                DecisionRule(kind=kind, confidence=0.99, tolerance=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DecisionRule(kind="coin_flip", confidence=0.5)


class TestDecideCounts:
    RULES = [DecisionRule.fixed(0.25), DecisionRule.wilson(0.99), DecisionRule.exact_binomial(0.99)]

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.kind)
    def test_a_fractional_count_is_a_type_error(self, rule):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            decide(2.5, 10, 0.25, rule)

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.kind)
    def test_numpy_integer_counts_decide_like_ints(self, rule):
        assert decide(np.int64(3), np.uint16(10), 0.25, rule) == decide(3, 10, 0.25, rule)


class TestFixedTolerance:
    def test_worked_example_two_of_four(self):
        outcome = decide(2, 4, 0.5, DecisionRule.fixed(0.25))
        assert outcome.decision == ACCEPT
        assert outcome.statistic == 0.5
        assert outcome.bound_low == 0.25
        assert outcome.bound_high == 0.75
        assert outcome.p_value is None

    def test_unmarked_copy_rejects(self):
        outcome = decide(0, 4096, 0.5, DecisionRule.fixed(0.25))
        assert outcome.decision == REJECT
        assert outcome.statistic == 0.0

    def test_band_edges_are_inclusive(self):
        assert decide(1, 4, 0.5, DecisionRule.fixed(0.25)).decision == ACCEPT
        assert decide(1, 5, 0.5, DecisionRule.fixed(0.25)).decision == REJECT


class TestWilsonInterval:
    @pytest.mark.parametrize("case", sorted(WILSON_ORACLE))
    def test_frozen_bounds(self, case):
        errors, total, confidence = case
        want_low, want_high = WILSON_ORACLE[case]
        outcome = decide(errors, total, 0.5, DecisionRule.wilson(confidence))
        assert outcome.bound_low == pytest.approx(want_low, abs=1e-12)
        assert outcome.bound_high == pytest.approx(want_high, abs=1e-12)

    def test_accept_and_reject_around_the_rate(self):
        rule = DecisionRule.wilson(0.99)
        assert decide(5000, 10000, 0.5, rule).decision == ACCEPT
        assert decide(5300, 10000, 0.5, rule).decision == REJECT
        assert decide(0, 4096, 0.5, rule).decision == REJECT

    def test_confidence_does_not_bound_the_false_reject_rate(self):
        # at pe = 0.01 and 8 marks only 0 errors are accepted: a marked copy
        # is rejected with probability 1 - 0.99**8, not 1 - 0.99
        rule = DecisionRule.wilson(0.99)
        rejected = [k for k in range(9) if decide(k, 8, 0.01, rule).decision == REJECT]
        masses = (math.comb(8, k) * 0.01**k * 0.99 ** (8 - k) for k in rejected)
        assert math.fsum(masses) == pytest.approx(1 - 0.99**8, abs=1e-12)

    def test_the_accept_rate_behind_criterion_3(self):
        # criterion 3 in tests/test_acceptance.py counts the accepts of 1,000
        # genuine copies at 4,096 marks and pe 1/2. Each is accepted at this
        # rate, so its "accepts >= 990" holds with probability 0.592 only,
        # which its chosen seed 3002 hides.
        rule = DecisionRule.wilson(0.99)
        accepted = [k for k in range(4097) if decide(k, 4096, 0.5, rule).decision == ACCEPT]
        assert accepted == list(range(1966, 2131))
        rate = sum(math.comb(4096, k) for k in accepted) / 2**4096  # correctly rounded
        assert rate == pytest.approx(0.9900747108063, abs=1e-12)
        assert sps.binom.sf(989, 1000, rate) == pytest.approx(0.592, abs=5e-4)

    def test_interval_contains_the_point_estimate(self):
        rule = DecisionRule.wilson(0.99)
        for errors, total in [(0, 10), (1, 10), (5, 10), (10, 10), (50, 1000), (999, 1000)]:
            outcome = decide(errors, total, 0.5, rule)
            assert outcome.bound_low <= errors / total <= outcome.bound_high
            assert 0.0 <= outcome.bound_low <= outcome.bound_high <= 1.0

    def test_interval_narrows_with_sample_size(self):
        rule = DecisionRule.wilson(0.99)
        widths = []
        for total in (16, 256, 4096):
            outcome = decide(total // 2, total, 0.5, rule)
            widths.append(outcome.bound_high - outcome.bound_low)
        assert widths == sorted(widths, reverse=True)

    def test_against_scipy_wilson_ci(self):
        rng = np.random.default_rng(2024)
        rule = DecisionRule.wilson(0.95)
        for _ in range(50):
            total = int(rng.integers(2, 2000))
            errors = int(rng.integers(0, total + 1))
            ci = sps.binomtest(errors, total).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            outcome = decide(errors, total, 0.5, rule)
            assert outcome.bound_low == pytest.approx(ci.low, abs=1e-9)
            assert outcome.bound_high == pytest.approx(ci.high, abs=1e-9)

    # 10**15 and 100 were rounding cases, 10**160 and 10**300 an overflow of
    # total squared; the largest total decide takes is the last
    @pytest.mark.parametrize("total", [
        1, 7, 100, 1000, 10**15, 10**150, 10**160, 10**300, int(sys.float_info.max),
    ], ids="{:.0e}".format)
    def test_the_interval_reaches_both_ends_at_every_total(self, total):
        rule = DecisionRule.wilson(0.99)
        none = decide(0, total, 0.0, rule)
        assert (none.decision, none.bound_low) == (ACCEPT, 0.0)
        every = decide(total, total, 1.0, rule)
        assert (every.decision, every.bound_high) == (ACCEPT, 1.0)
        # the width at 0 errors is z**2 / total to first order
        z = NormalDist().inv_cdf(0.995)
        assert none.bound_high == pytest.approx(z * z / (total + z * z), rel=1e-6)
        assert 1.0 - every.bound_low == pytest.approx(none.bound_high, rel=1e-6, abs=1e-16)
        half = decide(total // 2, total, 0.5, rule)
        assert half.decision == ACCEPT
        assert half.bound_low <= (total // 2) / total <= half.bound_high


class TestExactBinomial:
    @pytest.mark.parametrize("case", sorted(PVALUE_ORACLE))
    def test_frozen_p_values(self, case):
        errors, total, rate = case
        outcome = decide(errors, total, rate, DecisionRule.exact_binomial(0.99))
        assert outcome.p_value == pytest.approx(PVALUE_ORACLE[case], rel=1e-9)
        assert outcome.bound_low is None and outcome.bound_high is None

    def test_decisions_at_the_level(self):
        rule = DecisionRule.exact_binomial(0.99)
        assert decide(7, 10, 0.5, rule).decision == ACCEPT  # p = 0.34375
        assert decide(5300, 10000, 0.5, rule).decision == REJECT  # p = 2.1e-9
        assert decide(0, 8, 0.5, rule).decision == REJECT  # p = 0.0078125 <= 0.01

    def test_degenerate_rates(self):
        rule = DecisionRule.exact_binomial(0.99)
        assert decide(0, 100, 0.0, rule).decision == ACCEPT
        assert decide(1, 100, 0.0, rule).decision == REJECT
        assert decide(100, 100, 1.0, rule).decision == ACCEPT
        assert decide(99, 100, 1.0, rule).decision == REJECT

    def test_symmetric_outcomes_get_identical_p_values(self):
        rule = DecisionRule.exact_binomial(0.99)
        for n in (8, 33, 128):
            for k in range(n // 2 + 1):
                p_lo = decide(k, n, 0.5, rule).p_value
                p_hi = decide(n - k, n, 0.5, rule).p_value
                assert p_lo == p_hi

    def test_against_scipy_binomtest(self):
        rng = np.random.default_rng(77)
        rule = DecisionRule.exact_binomial(0.95)
        for _ in range(100):
            total = int(rng.integers(1, 300))
            errors = int(rng.integers(0, total + 1))
            rate = float(rng.uniform(0.05, 0.95))
            mine = decide(errors, total, rate, rule).p_value
            ref = sps.binomtest(errors, total, rate, alternative="two-sided").pvalue
            assert mine == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_rejection_rate_at_the_null_stays_at_level(self):
        # size calibration: under H0 the exact test rejects at most ~alpha
        rule = DecisionRule.exact_binomial(0.95)
        n, rate = 500, 0.3
        rng = np.random.default_rng(11)
        draws = rng.binomial(n, rate, size=10000)
        values, counts = np.unique(draws, return_counts=True)
        rejected = sum(
            int(c) for v, c in zip(values, counts)
            if decide(int(v), n, rate, rule).decision == REJECT
        )
        rate_hat = rejected / 10000
        assert rate_hat <= 0.05 + 2 * np.sqrt(0.05 * 0.95 / 10000)

    def test_rate_validation(self):
        rule = DecisionRule.exact_binomial(0.99)
        with pytest.raises(InvalidProbability):
            decide(1, 10, 1.5, rule)
        with pytest.raises(InvalidProbability):
            decide(1, 10, -0.1, rule)


class TestMinSampleSizeLiteral:
    @staticmethod
    def brute(pe):
        n = 1
        while True:
            for a in range(n + 1):
                if a / n >= pe:
                    return a, n - a, n
            n += 1

    @pytest.mark.parametrize("pe", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_matches_exhaustive_search(self, pe):
        spec = min_sample_size_literal(pe)
        assert (spec.a, spec.b, spec.n) == self.brute(pe)
        assert spec.a + spec.b == spec.n
        assert spec.a / spec.n >= pe

    def test_the_rule_is_only_a_floor(self):
        # a = 1, b = 0 satisfies the constraint for every positive rate, so
        # the literal minimum is n = 1 across the board
        assert min_sample_size_literal(0.0) == SampleSizeSpec(a=0, b=1)
        for pe in (0.1, 0.5, 1.0):
            assert min_sample_size_literal(pe) == SampleSizeSpec(a=1, b=0)
        assert min_sample_size_literal(0.5).n == 1

    def test_n_is_the_sum_of_its_parts(self):
        assert SampleSizeSpec(a=2, b=3).n == 5

    def test_rate_validation(self):
        with pytest.raises(InvalidProbability):
            min_sample_size_literal(1.5)


class TestRecommendedSampleSize:
    @pytest.mark.parametrize("case", sorted(RECOMMENDED_ORACLE))
    def test_frozen_sizes(self, case):
        assert recommended_sample_size(*case) == RECOMMENDED_ORACLE[case]

    # the least sizes, by linear scan, for which the bisection's 64-size
    # rescan is too narrow; the planner's size follows each case
    @pytest.mark.xfail(strict=True, reason="the rescan window misses sizes below it")
    @pytest.mark.parametrize(
        "case, least",
        [
            ((0.02, 0.01, 0.8, 0.5), 261),  # 345
            ((0.01, 0.001, 0.8, 0.8), 221),  # 373
            ((0.02, 0.001, 0.5, 0.9), 70),  # 80
            ((0.02, 0.01, 0.5, 0.5), 70),  # 144
            ((0.02, 0.002, 0.8, 0.8), 110),  # 186
            ((0.01, 0.001, 0.5, 0.8), 141),  # 224
            ((0.01, 0.005, 0.5, 0.5), 141),  # 327
            ((0.005, 0.002, 0.5, 0.5), 282),  # 577
        ],
    )
    def test_least_size_at_small_rates(self, case, least):
        assert recommended_sample_size(*case) == least

    def test_a_larger_set_can_fall_short_of_the_planned_size(self):
        # what analyze --help and the README say: the exact test is discrete,
        # so past the least size that rejects 0 errors, 86-88 marks accept them
        assert recommended_sample_size(0.06, 0.0, 0.99, 0.99) == 82
        accepted = [n for n in range(82, 92) if decide(0, n, 0.06, stats.DEFAULT_RULE).accepted]
        assert accepted == [86, 87, 88]

    def test_closer_rates_need_more_marks(self):
        sizes = [
            recommended_sample_size(0.5, null, 0.99, 0.99)
            for null in (0.0, 0.2, 0.3, 0.4, 0.45)
        ]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_returned_size_achieves_the_power(self):
        pe, null_rate, confidence, power = 0.5, 0.25, 0.95, 0.90
        n = recommended_sample_size(pe, null_rate, confidence, power)
        rule = DecisionRule.exact_binomial(confidence)
        rng = np.random.default_rng(3)
        draws = rng.binomial(n, null_rate, size=10000)
        values, counts = np.unique(draws, return_counts=True)
        rejected = sum(
            int(c) for v, c in zip(values, counts)
            if decide(int(v), n, pe, rule).decision == REJECT
        )
        assert rejected / 10000 >= power - 0.02

    def test_equal_rates_are_inseparable(self):
        with pytest.raises(RatesEqual):
            recommended_sample_size(0.5, 0.5, 0.99, 0.99)

    def test_unachievable_separation(self):
        with pytest.raises(Unachievable):
            recommended_sample_size(0.5, 0.4999, 0.99, 0.99)

    def test_argument_validation(self):
        with pytest.raises(InvalidProbability):
            recommended_sample_size(0.0, 0.1, 0.99, 0.99)
        with pytest.raises(InvalidProbability):
            recommended_sample_size(0.5, 1.0, 0.99, 0.99)
        with pytest.raises(InvalidProbability):
            recommended_sample_size(0.5, 0.0, 1.0, 0.99)
        with pytest.raises(InvalidProbability):
            recommended_sample_size(0.5, 0.0, 0.99, 0.0)


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def exact_test_cases(draw):
    n = draw(st.integers(0, 400))
    pe = draw(st.just(0.5) | OPEN_UNIT)  # 0.5 gives a symmetric pmf: every mass tied twice
    null_rate = draw(st.floats(0.0, 1.0, exclude_max=True))
    # the confidence either anywhere, or with alpha on a prefix sum of the
    # sorted masses, running or fsum, where decide's strict p > alpha and a
    # rounded threshold would part ways
    masses = sorted(reference_pmf_row(n, pe))
    sums = [*accumulate(masses), *(math.fsum(masses[:m]) for m in range(1, len(masses) + 1))]
    on_a_sum = st.sampled_from([1.0 - v for v in sums if 0.0 < 1.0 - v < 1.0] or [0.5])
    confidence = draw(OPEN_UNIT | on_a_sum)
    return n, pe, null_rate, confidence


class TestExactTestPlan:
    """The planner's accepted counts and power are decide's verdicts, count by count."""

    @settings(max_examples=300, deadline=None)
    @given(exact_test_cases())
    @example((100, 0.5, 0.25, 0.99))
    @example((400, 0.5, 0.0, 0.95))
    @example((0, 0.5, 0.0, 0.5))  # one outcome, with p-value 1: power 0.0
    # alpha = 0.7744140624999992, just under a running sum that fsum puts
    # above it: decide accepts 5..7, and the power against 0.4 is 0.4955
    @example((12, 0.5, 0.4, 0.22558593750000078))
    def test_accepted_counts_and_power_follow_decide(self, case):
        n, pe, null_rate, confidence = case
        rule, alpha = DecisionRule.exact_binomial(confidence), 1.0 - confidence
        # decide refuses a total of 0, whose one outcome has p-value 1
        verdicts = [decide(k, n, pe, rule).accepted for k in range(n + 1)] if n else [alpha < 1.0]
        accepted = stats._accepted_counts(n, pe, confidence)
        assert verdicts == [k in accepted for k in range(n + 1)]
        null = reference_pmf_row(n, null_rate)
        rejected = math.fsum(mass for mass, ok in zip(null, verdicts) if not ok)
        assert stats._rejection_power(n, pe, null_rate, confidence) == rejected

    @pytest.mark.parametrize("n", [596, 2408, 15002, 100_000])
    @pytest.mark.parametrize("pe", [0.5, 0.48, 0.1])
    @pytest.mark.parametrize("confidence", [0.99, 0.95])
    def test_edges_at_planner_sizes(self, n, pe, confidence):
        rule = DecisionRule.exact_binomial(confidence)
        accepted = stats._accepted_counts(n, pe, confidence)
        assert decide(accepted.start, n, pe, rule).accepted
        assert decide(accepted.stop - 1, n, pe, rule).accepted
        assert not decide(accepted.start - 1, n, pe, rule).accepted
        assert not decide(accepted.stop, n, pe, rule).accepted


def reference_pmf_row(n, p):
    """The full-row pmf comprehension, the reference for stats._binomial_pmf_window."""
    if p == 0.0:
        return [1.0] + [0.0] * n
    if p == 1.0:
        return [0.0] * n + [1.0]
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg = math.lgamma
    lg_n = lg(n + 1)
    return [
        math.exp(lg_n - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(n + 1)
    ]


def reference_p_value(errors, total, rate):
    """The full-row p-value, the reference for stats._exact_binomial_p_value."""
    pmf = reference_pmf_row(total, rate)
    cutoff = pmf[errors] * (1.0 + stats._PMF_TIE_SLACK)
    return min(1.0, math.fsum(v for v in pmf if v <= cutoff))


def padded_window(n, p):
    """The full-floor pmf window, padded with zeros to the whole row."""
    lo, masses = stats._binomial_pmf_window(n, p)
    return [0.0] * lo + masses + [0.0] * (n + 1 - lo - len(masses))


def cold_and_warm_windows(rows):
    """Each row's pmf window from an emptied lgamma cache, then all of them in turn from one."""
    cold = []
    for n, p in rows:
        stats._factorial_block.cache_clear()
        cold.append(stats._binomial_pmf_window(n, p))
    stats._factorial_block.cache_clear()
    return cold, [stats._binomial_pmf_window(n, p) for n, p in rows]


UNIT = st.floats(0.0, 1.0)


class TestPmfWindow:
    """The window route gives the full-row floats bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3000), UNIT)
    @example(3000, 1e-300)
    @example(3000, 1.0 - 1e-16)
    @example(3000, 5e-324)
    @example(2999, 0.5)
    @example(0, 0.3)
    def test_row_equals_the_full_row(self, n, p):
        assert padded_window(n, p) == reference_pmf_row(n, p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3000), UNIT, st.floats(0.0, 1.0))
    @example(3000, 1e-300, 0.0)
    @example(3000, 1.0 - 1e-16, 1.0)
    @example(2000, 0.5, 0.0)  # an outcome off the window: p-value 0
    @example(3000, 0.5, 503 / 3000)  # a subnormal mass: the slack leaves the cutoff equal to it
    def test_p_value_equals_the_full_row(self, total, rate, where):
        errors = round(where * total)
        assert stats._exact_binomial_p_value(errors, total, rate) == reference_p_value(
            errors, total, rate
        )

    @pytest.mark.parametrize("n, p", [
        (2000, 0.5), (3000, 0.3), (15002, 0.48), (100_000, 0.5), (100_000, 0.1),
    ])
    def test_p_value_at_the_window_edges_equals_the_full_row(self, n, p):
        # a count whose log-mass is below the floor skips the window; these are
        # the counts on either side of each edge, where that test changes answer
        lo, masses = stats._binomial_pmf_window(n, p)
        hi = lo + len(masses)
        log_mass = stats._log_mass(n, p)
        assert 0 < lo and hi <= n
        assert max(log_mass(lo - 1), log_mass(hi)) < stats._LOG_MASS_FLOOR
        # lo is on the window, yet exp() of its log-mass in [-800, -745) is
        # 0.0, so its p-value is the window's sum of exact zeros
        assert -800.0 <= log_mass(lo) < -745.0 and masses[0] == 0.0
        for k in (lo - 1, lo, hi - 1, hi):
            assert stats._exact_binomial_p_value(k, n, p) == reference_p_value(k, n, p), k

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000), UNIT), min_size=1, max_size=6))
    @example([(2000, 0.5), (100, 0.3)])
    @example([(100, 0.3), (2000, 0.5)])
    # reads that end exactly at the first block's edge, one past it, and one
    # read at each end of a row
    @example([(stats._BLOCK - 1, 0.5), (stats._BLOCK, 0.5), (3 * stats._BLOCK, 0.999)])
    def test_warm_windows_equal_cold_ones(self, rows):
        cold, warm = cold_and_warm_windows(rows)
        assert warm == cold

    def test_rows_past_the_cache_bound_change_no_bit(self):
        # the rows need more blocks than the cache holds, so the last row
        # recomputes blocks the first one read, which were evicted
        cold, warm = cold_and_warm_windows([(200_000, p) for p in (0.5, 0.1, 0.3, 0.7, 0.9, 0.5)])
        info = stats._factorial_block.cache_info()
        assert info.misses > info.maxsize == stats._CACHED_BLOCKS
        assert warm == cold

    def test_a_caller_mutating_what_it_got_changes_no_later_window(self):
        stats._factorial_block.cache_clear()
        n, p = 3 * stats._BLOCK, 0.3
        lo, masses = stats._binomial_pmf_window(n, p)
        expected = (lo, reference_pmf_row(n, p)[lo : lo + len(masses)])
        assert (lo, masses) == expected
        masses[:] = [2.0] * len(masses)
        # one whole block and a read across two: each is a copy, not a cached list
        spans = [range(stats._BLOCK), range(stats._BLOCK - 5, stats._BLOCK + 5)]
        for columns in stats._factorial_terms(*spans):
            for column in columns:
                column[:] = [-1.0] * len(column)
        assert stats._binomial_pmf_window(n, p) == expected

    def test_a_window_wider_than_the_cache_computes_each_block_once(self):
        # near rate 1/2 the spans at k and at n - k cover the same blocks in the
        # same order; read one after the other through the cache, the second
        # would find every block of a window wider than the cache evicted. The
        # count's log-mass, about -158, is below the narrow floor, so decide
        # reads the full window at once
        n = 3_000_000
        stats._factorial_block.cache_clear()
        decide(n // 2 + 15_000, n, 0.5, DecisionRule.exact_binomial(0.99))
        misses = stats._factorial_block.cache_info().misses
        lo, masses = stats._binomial_pmf_window(n, 0.5)
        hi = lo + len(masses)
        blocks = {j // stats._BLOCK for j in (*range(lo, hi), *range(n - hi + 1, n - lo + 1))}
        assert len(blocks) > stats._CACHED_BLOCKS
        assert misses == len(blocks)

    def test_a_far_window_reads_only_the_blocks_at_each_end(self):
        # a window far from rate 1/2 lies at both ends of its row; a run that
        # spanned the row would hold 10**7 floats, about 300 MiB
        stats._factorial_block.cache_clear()
        tracemalloc.start()
        try:
            decide(100_000, 10**7, 0.01, DecisionRule.exact_binomial(0.99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("n", [15002, 100_000])
    @pytest.mark.parametrize("p", [0.5, 0.48, 1e-9])
    def test_pinned_large_rows(self, n, p):
        row = reference_pmf_row(n, p)
        assert padded_window(n, p) == row
        lo, masses = stats._binomial_pmf_window(n, p)
        assert any(masses) and row[:lo] == [0.0] * lo
        assert row[lo + len(masses):] == [0.0] * (n + 1 - lo - len(masses))


def full_window_p_value(errors, total, rate):
    """stats._exact_binomial_p_value on the full window alone, the reference for the narrow one."""
    if 0.0 < rate < 1.0 and stats._log_mass(total, rate)(errors) < stats._LOG_MASS_FLOOR:
        return 0.0
    lo, masses = stats._binomial_pmf_window(total, rate)
    at = errors - lo
    observed = masses[at] if 0 <= at < len(masses) else 0.0
    cutoff = observed * (1.0 + stats._PMF_TIE_SLACK)
    return min(1.0, math.fsum(sorted(filter(cutoff.__ge__, masses), reverse=True)))


def full_window_accepted_counts(n, pe, confidence):
    """stats._accepted_counts on the full window alone, the reference for the narrow one."""
    alpha = 1.0 - confidence
    lo, pmf = stats._binomial_pmf_window(n, pe)
    masses = sorted(pmf)
    sums = list(accumulate(masses))
    slack = len(masses) * math.ulp(sums[-1])
    near = range(bisect_right(sums, alpha - slack), bisect_right(sums, alpha + slack))
    edge = near.start + bisect_right(near, alpha, key=lambda i: math.fsum(masses[: i + 1]))
    least = masses[edge] if edge < len(masses) and alpha < 1.0 else math.inf
    counts, peak = range(len(pmf)), pmf.index(masses[-1])
    tie = 1.0 + stats._PMF_TIE_SLACK
    start = bisect_left(counts, least, 0, peak, key=lambda k: pmf[k] * tie)
    stop = bisect_right(counts, -least, peak, key=lambda k: -pmf[k] * tie)
    return range(lo + start, lo + stop)


def full_window_power(n, pe, null_rate, confidence):
    """stats._rejection_power on the full window alone, the reference for the narrow one."""
    accepted = full_window_accepted_counts(n, pe, confidence)
    lo, pmf = stats._binomial_pmf_window(n, null_rate)
    rejected = pmf[: max(accepted.start - lo, 0)] + pmf[max(accepted.stop - lo, 0) :]
    return math.fsum(sorted(rejected, reverse=True))


def count_at_log_mass(n, rate, target, upper):
    """The outermost count below the mode, or above it, whose log-mass is at least target."""
    log_mass, mode = stats._log_mass(n, rate), min(n, int((n + 1) * rate))
    if upper:
        return bisect_right(range(n + 1), -target, mode, key=lambda k: -log_mass(k)) - 1
    return bisect_left(range(mode), target, key=log_mass)


@st.composite
def narrow_window_cases(draw):
    n = draw(st.integers(1, 20_000))
    rate = draw(st.sampled_from([0.0, 1.0, 0.5]) | UNIT)
    mode = min(n, int((n + 1) * rate))
    errors = draw(st.integers(mode - 3, mode + 3) | st.integers(0, n))
    if 0.0 < rate < 1.0 and draw(st.booleans()):
        # a count at the narrow floor or one log unit either side of it
        offset = draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.5, 1.5))
        target = stats._NARROW_FLOOR + offset
        errors = count_at_log_mass(n, rate, target, draw(st.booleans())) + draw(st.integers(-1, 1))
    errors = min(max(errors, 0), n)
    # the confidence anywhere, at verify's levels, or with alpha on a prefix sum
    # of the sorted full-window masses, running or fsum
    masses = sorted(stats._binomial_pmf_window(n, rate)[1])
    m = draw(st.integers(1, len(masses)))
    sums = [1.0 - v for v in (math.fsum(masses[:m]), sum(masses[:m])) if 0.0 < 1.0 - v < 1.0]
    confidence = draw(OPEN_UNIT | st.sampled_from([0.99, 0.95, *sums]))
    return n, rate, errors, confidence, draw(UNIT)


@pytest.fixture
def window_floors(monkeypatch):
    """The floor of every pmf window built from here on, in order."""
    floors, build = [], stats._binomial_pmf_window

    def spy(n, p, floor=stats._LOG_MASS_FLOOR):
        floors.append(floor)
        return build(n, p, floor)

    monkeypatch.setattr(stats, "_binomial_pmf_window", spy)
    return floors


class TestNarrowWindow:
    """The narrow pmf window gives the full window's results bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(narrow_window_cases())
    # the first counts at log-mass floor + 1 and at the floor, and alpha = 2**-53
    @example((20_000, 0.5, count_at_log_mass(20_000, 0.5, -79.0, False), 0.99, 0.45))
    @example((20_000, 0.3, count_at_log_mass(20_000, 0.3, -80.0, True), 0.95, 0.0))
    @example((20_000, 0.5, 10_000, 1.0 - 2**-53, 1.0))
    @example((100, 0.5, 0, 0.99, 0.4))  # the narrow window is the whole row
    def test_p_value_accepted_counts_and_power_equal_the_full_window(self, case):
        n, rate, errors, confidence, null_rate = case
        assert stats._exact_binomial_p_value(errors, n, rate) == full_window_p_value(
            errors, n, rate
        )
        assert stats._accepted_counts(n, rate, confidence) == full_window_accepted_counts(
            n, rate, confidence
        )
        assert stats._rejection_power(n, rate, null_rate, confidence) == full_window_power(
            n, rate, null_rate, confidence
        )

    def test_a_tie_is_never_certified(self):
        # fsum rounds 1 + 2**-53 to even, 1.0; any positive mass more rounds it up
        assert stats._certified_fsum([1.0, 2**-53], 0.0) == 1.0
        for omitted in (5e-324, 1e-300, 2**-60):
            assert stats._certified_fsum([1.0, 2**-53], omitted) is None
        assert stats._certified_fsum([1.0, 2**-54], 2**-56) == 1.0

    def test_a_count_just_above_the_narrow_floor_reads_the_full_window_at_once(
        self, window_floors
    ):
        n, rate = 20_000, 0.5
        errors = count_at_log_mass(n, rate, stats._NARROW_FLOOR + 0.5, False)
        assert stats._NARROW_FLOOR <= stats._log_mass(n, rate)(errors) < stats._NARROW_FLOOR + 1
        p_value = stats._exact_binomial_p_value(errors, n, rate)
        assert window_floors == [stats._LOG_MASS_FLOOR]
        assert p_value == full_window_p_value(errors, n, rate) == reference_p_value(errors, n, rate)

    def test_no_errors_of_1024_marks_reads_only_the_full_window(self, window_floors):
        # every pgm-sparse pass asks this twice: its log-mass, -710, is far below the narrow floor
        assert decide(0, 1024, 0.5, stats.DEFAULT_RULE).decision == REJECT
        assert window_floors == [stats._LOG_MASS_FLOOR]

    def test_a_count_near_the_mode_reads_only_the_narrow_window(self, window_floors):
        assert decide(49_904, 100_000, 0.5, stats.DEFAULT_RULE).accepted
        assert window_floors == [stats._NARROW_FLOOR]

    @pytest.mark.parametrize("null_rate, size", [(0.4, 596), (0.45, 2408), (0.48, 15002)])
    def test_the_analyze_plans_read_only_narrow_windows(self, window_floors, null_rate, size):
        assert recommended_sample_size(0.5, null_rate, 0.99, 0.99) == size
        assert set(window_floors) == {stats._NARROW_FLOOR}
