"""Decision rules and sample-size planning for frequency-based verification.

Verification reduces to one question: is an observed error count over the
marked positions consistent with the expected flip rate? Three answers are
offered with different rigor: a fixed tolerance band around the observed
frequency, a Wilson score interval, and a two-sided exact binomial test.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from itertools import accumulate, repeat
from operator import add, mul, sub

from ._record import Record
from .errors import (
    CountExceedsTotal, InvalidArgument, InvalidProbability, RatesEqual, Unachievable, ZeroTotal,
    _count, _probability
)

__all__ = [
    "ACCEPT",
    "REJECT",
    "FIXED_TOLERANCE",
    "WILSON_INTERVAL",
    "EXACT_BINOMIAL",
    "MAX_SAMPLE_SIZE",
    "DecisionRule",
    "DecisionOutcome",
    "SampleSizeSpec",
    "relative_frequency",
    "decide",
    "min_sample_size_literal",
    "recommended_sample_size",
]

ACCEPT = "accept"
REJECT = "reject"

FIXED_TOLERANCE = "fixed_tolerance"
WILSON_INTERVAL = "wilson_interval"
EXACT_BINOMIAL = "exact_binomial"

MAX_SAMPLE_SIZE = 100_000

# Relative slack when comparing probability masses in the two-sided exact
# test; absorbs log-space roundoff without affecting clear-cut outcomes.
_PMF_TIE_SLACK = 1e-12

# exp() of a log-mass below about -745 is exactly 0.0; the pmf window stops
# at this lower floor, which leaves a wide margin for lgamma roundoff.
_LOG_MASS_FLOOR = -800.0


class DecisionRule(Record):
    """How to turn (errors, total, expected rate) into accept or reject.

    kind selects the test; fixed_tolerance carries a tolerance, the two
    statistical rules carry a confidence level.
    """

    kind: str
    tolerance: float | None = None
    confidence: float | None = None

    def _check(self) -> None:
        kind, tolerance, confidence = self.kind, self.tolerance, self.confidence
        if kind == FIXED_TOLERANCE:
            if confidence is not None:
                raise InvalidArgument("fixed tolerance rule takes no confidence")
            name, value = "tolerance", tolerance
        elif kind in (WILSON_INTERVAL, EXACT_BINOMIAL):
            if tolerance is not None:
                raise InvalidArgument(f"{kind} rule takes no tolerance")
            name, value = "confidence", confidence
        else:
            raise InvalidArgument(f"unknown decision rule kind {kind!r}")
        if value is None:  # the kind needs it: a missing value, not a wrong type
            raise InvalidProbability(f"{name} must be in (0, 1), got None")
        _probability(value, name, "()")

    @classmethod
    def fixed(cls, tolerance: float) -> "DecisionRule":
        return cls(FIXED_TOLERANCE, tolerance=tolerance)

    @classmethod
    def wilson(cls, confidence: float = 0.99) -> "DecisionRule":
        return cls(WILSON_INTERVAL, confidence=confidence)

    @classmethod
    def exact_binomial(cls, confidence: float = 0.99) -> "DecisionRule":
        return cls(EXACT_BINOMIAL, confidence=confidence)


# the command line's verify rule when none is named, the one embed asks about an
# index set, and the test recommended_sample_size plans for
DEFAULT_RULE = DecisionRule.exact_binomial(0.99)


class DecisionOutcome(Record):
    """Verdict plus the numbers that produced it.

    bound_low/bound_high hold the tolerance band or Wilson interval for the
    band-style rules, p_value holds the exact-test p-value; the unused
    fields stay None.
    """

    decision: str
    statistic: float
    bound_low: float | None = None
    bound_high: float | None = None
    p_value: float | None = None

    @property
    def accepted(self) -> bool:
        return self.decision == ACCEPT


class SampleSizeSpec(Record):
    """An error budget: a expected errors out of n = a + b marked positions."""

    a: int
    b: int

    @property
    def n(self) -> int:
        return self.a + self.b


def relative_frequency(errors: int, total: int) -> float:
    """Observed error fraction errors/total."""
    errors, total = _count(errors, "errors"), _count(total, "total")
    if total <= 0:
        raise ZeroTotal(f"sample size must be positive, got {total}")
    if errors < 0:
        raise InvalidArgument(f"error count must be nonnegative, got {errors}")
    if errors > total:
        raise CountExceedsTotal(f"{errors} errors in a sample of {total}")
    return errors / total


def _wilson_bounds(errors: int, total: int, confidence: float) -> tuple[float, float]:
    from statistics import NormalDist  # here, not at the top: only this rule needs it

    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    # z / (2 total), never total squared, which overflows past ~1.3e154
    half = z / total / 2.0
    denom = 1.0 + z * z / total

    def lower(count: int) -> float:
        phat = count / total
        # hypot(0, half) is half exactly, so a count of 0 gives exactly 0
        spread = math.hypot(math.sqrt(phat * (1.0 - phat) / total), half)
        return max(0.0, (phat + z * half - z * spread) / denom)

    # the interval maps onto itself under errors -> total - errors, so the
    # upper bound is 1 less the lower bound of the complement: 1 at errors = total
    return lower(errors), 1.0 - lower(total - errors)


# lgamma is cached per block of this many consecutive integers. On 2 vCPUs under
# Python 3.11.7 a cold verdict at n = 1,024 computes two whole blocks in 0.45 ms,
# where 256-integer blocks take 0.37 ms; the analyze table takes ~192 ms with blocks
# of 256 to 2,048; and at 1,024 the cache below holds both ends of a window of
# n = 10**7 at rate 0.01
_BLOCK = 1024

# the cache retains at most this many blocks: 64 * 2 lists * 1,024 floats * 32 B,
# 4.1 MiB as measured, where one run spanning the row of n = 10**7 would take ~300 MiB
_CACHED_BLOCKS = 64


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _factorial_block(b: int) -> tuple[list[float], list[float]]:
    """lgamma(j + 1) and float(j) for the _BLOCK integers j from b * _BLOCK on."""
    js = range(b * _BLOCK, (b + 1) * _BLOCK)
    return list(map(math.lgamma, range(js.start + 1, js.stop + 1))), list(map(float, js))


def _factorial_terms(start: int, stop: int) -> tuple[list[float], list[float]]:
    """lgamma(j + 1) and float(j) for j in range(start, stop), start < stop, as new lists.

    A pmf window needs both at k and at n - k (int * float multiplies by
    exactly that float). The blocks the range touches are joined into copies,
    so no caller holds a cached list.
    """
    first = start // _BLOCK
    lgammas, counts = (
        column[start - first * _BLOCK : stop - first * _BLOCK] for column in _factorial_block(first)
    )
    for b in range(first + 1, (stop - 1) // _BLOCK + 1):
        block_lgammas, block_counts = _factorial_block(b)
        lgammas += block_lgammas
        counts += block_counts
    del lgammas[stop - start :], counts[stop - start :]
    return lgammas, counts


def _log_mass(n: int, p: float) -> Callable[[int], float]:
    """k -> the log of the Binomial(n, p) mass at k, for 0 < p < 1, in the pmf window's order."""
    lg, lg_n = math.lgamma, math.lgamma(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    return lambda k: lg_n - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_q


def _binomial_pmf_window(n: int, p: float) -> tuple[int, list[float]]:
    """Binomial(n, p) pmf as (lo, masses) for k = lo, lo+1, ...: every non-zero mass.

    Each mass is exp(lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) + k*log p +
    (n-k)*log q), evaluated in that order so it equals the full-row value bit
    for bit; log-gamma keeps n = 100000 from overflowing. Off the window the
    log-mass is below _LOG_MASS_FLOOR, so every mass there is exactly 0.0.
    """
    if p == 0.0 or p == 1.0:
        return (n if p else 0), [1.0]
    lg_n = math.lgamma(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    # the log-mass is concave in k, so each edge is one bisection away from
    # the mode, whose mass is at least 1/(n+1)
    mode = min(n, int((n + 1) * p))
    log_mass = _log_mass(n, p)
    lo = bisect_left(range(mode), _LOG_MASS_FLOOR, key=log_mass)
    hi = bisect_right(range(n + 1), -_LOG_MASS_FLOOR, mode, key=lambda k: -log_mass(k))
    lgammas, counts = _factorial_terms(lo, hi)
    rest_lgammas, rest_counts = _factorial_terms(n - hi + 1, n - lo + 1)  # at n - k, in reverse
    logs = map(sub, repeat(lg_n), lgammas)
    logs = map(sub, logs, reversed(rest_lgammas))
    logs = map(add, logs, map(mul, counts, repeat(log_p)))
    logs = map(add, logs, map(mul, reversed(rest_counts), repeat(log_q)))
    return lo, list(map(math.exp, logs))


def _binomial_pmf_row(n: int, p: float) -> list[float]:
    """Binomial(n, p) pmf for k = 0..n: the window, padded with its exact zeros."""
    lo, masses = _binomial_pmf_window(n, p)
    return [0.0] * lo + masses + [0.0] * (n + 1 - lo - len(masses))


def _exact_binomial_p_value(errors: int, total: int, rate: float) -> float:
    """Two-sided exact p-value for errors out of total under Binomial(total, rate).

    Minimum-likelihood convention: sum the probability of every outcome no
    more likely than the observed one. Outcomes off the window add nothing.
    fsum is correctly rounded, so summing from the largest term down (which
    keeps its partials few) changes no bit of the result.

    An observed log-mass below _LOG_MASS_FLOOR returns 0.0 without building
    the window, and exactly so: the observed mass is exp(< -800) == 0.0, on
    the window or off it, so the cutoff is 0.0, only exact zeros pass it, and
    their fsum is 0.0. That holds wherever roundoff puts the window's edge.
    """
    if 0.0 < rate < 1.0 and _log_mass(total, rate)(errors) < _LOG_MASS_FLOOR:
        return 0.0
    lo, masses = _binomial_pmf_window(total, rate)
    at = errors - lo
    observed = masses[at] if 0 <= at < len(masses) else 0.0
    cutoff = observed * (1.0 + _PMF_TIE_SLACK)
    return min(1.0, math.fsum(sorted(filter(cutoff.__ge__, masses), reverse=True)))


def decide(errors: int, total: int, expected_pe: float, rule: DecisionRule) -> DecisionOutcome:
    """Apply rule to an observed error count against the expected flip rate."""
    errors, total = _count(errors, "errors"), _count(total, "total")  # whole counts, as ints
    if total > sys.float_info.max:  # the interval rules compute with float(total)
        raise InvalidArgument(f"total must fit a float, got a {total.bit_length()}-bit count")
    statistic = relative_frequency(errors, total)
    _probability(expected_pe, "expected rate", "[]")
    if rule.kind == FIXED_TOLERANCE:
        low = statistic - rule.tolerance
        high = statistic + rule.tolerance
        decision = ACCEPT if low <= expected_pe <= high else REJECT
        return DecisionOutcome(decision, statistic, bound_low=low, bound_high=high)
    if rule.kind == WILSON_INTERVAL:
        low, high = _wilson_bounds(errors, total, rule.confidence)
        decision = ACCEPT if low <= expected_pe <= high else REJECT
        return DecisionOutcome(decision, statistic, bound_low=low, bound_high=high)
    p_value = _exact_binomial_p_value(errors, total, expected_pe)
    alpha = 1.0 - rule.confidence
    decision = ACCEPT if p_value > alpha else REJECT
    return DecisionOutcome(decision, statistic, p_value=p_value)


def min_sample_size_literal(pe: float) -> SampleSizeSpec:
    """Smallest n = a + b with a/(a+b) >= pe, ties broken by smallest a.

    Taken literally this admits n = 1 for every pe (a = 1, b = 0 whenever
    pe > 0), so it is a floor rather than a usable sample size; see
    recommended_sample_size for actual guidance.
    """
    _probability(pe, "pe", "[]")
    return SampleSizeSpec(a=0, b=1) if pe == 0 else SampleSizeSpec(a=1, b=0)


def _accepted_counts(n: int, pe: float, confidence: float) -> range:
    """The counts k that decide(k, n, pe, DecisionRule.exact_binomial(confidence)) accepts.

    A count's p-value, the fsum of every mass up to its own, grows with that mass, and the
    pmf rises to its mode and then falls, so the accepted counts are one run. A running sum
    of m masses lies within m ulps of their fsum, so fsum is called only that close to alpha.
    """
    alpha = 1.0 - confidence
    lo, pmf = _binomial_pmf_window(n, pe)
    masses = sorted(pmf)
    sums = list(accumulate(masses))
    slack = len(masses) * math.ulp(sums[-1])
    near = range(bisect_right(sums, alpha - slack), bisect_right(sums, alpha + slack))
    edge = near.start + bisect_right(near, alpha, key=lambda i: math.fsum(masses[: i + 1]))
    least = masses[edge] if edge < len(masses) and alpha < 1.0 else math.inf  # decide caps p at 1
    counts, peak = range(len(pmf)), pmf.index(masses[-1])
    start = bisect_left(counts, least, 0, peak, key=lambda k: pmf[k] * (1.0 + _PMF_TIE_SLACK))
    stop = bisect_right(counts, -least, peak, key=lambda k: -pmf[k] * (1.0 + _PMF_TIE_SLACK))
    return range(lo + start, lo + stop)


def _rejection_power(n: int, pe: float, null_rate: float, confidence: float) -> float:
    """P[verify's exact test at confidence rejects rate pe] when bits flip at null_rate."""
    accepted = _accepted_counts(n, pe, confidence)
    lo, pmf = _binomial_pmf_window(n, null_rate)
    rejected = pmf[: max(accepted.start - lo, 0)] + pmf[max(accepted.stop - lo, 0) :]
    return math.fsum(sorted(rejected, reverse=True))


def recommended_sample_size(pe: float, null_rate: float, confidence: float, power: float) -> int:
    """An index-set size at which verify --rule binom:CONF tells pe from null_rate.

    The power is the exact probability that verify at CONF = confidence rejects when bits
    flip at null_rate (0.0 models an unwatermarked copy), summed over the counts decide
    rejects. Bisection plus a rescan of the 64 sizes below gives the least n whose power
    reaches power only where the power's ripples are narrower than that window; at rates
    of 0.02 or less n can be larger. Raises Unachievable when no n up to MAX_SAMPLE_SIZE does.
    """
    _probability(pe, "pe", "()")
    _probability(null_rate, "null rate", "[)")
    _probability(confidence, "confidence", "()")
    _probability(power, "power", "()")
    if pe == null_rate:
        raise RatesEqual("pe and null rate are identical, no sample size separates them")

    def achieves(n: int) -> bool:
        return _rejection_power(n, pe, null_rate, confidence) >= power

    # power climbs with n apart from small discreteness ripples: double to
    # bracket the boundary, bisect, then rescan a short window below
    low, high = 0, 1
    while not achieves(high):
        low = high
        if high >= MAX_SAMPLE_SIZE:
            raise Unachievable(
                f"no sample size up to {MAX_SAMPLE_SIZE} reaches power {power}"
                f" for pe={pe} against null rate {null_rate}"
            )
        high = min(high * 2, MAX_SAMPLE_SIZE)
    while high - low > 1:
        mid = (low + high) // 2
        if achieves(mid):
            high = mid
        else:
            low = mid
    best = high
    for n in range(max(1, best - 64), best):
        if achieves(n):
            best = n
            break
    return best
