"""Decision rules and sample-size planning for frequency-based verification.

Verification reduces to one question: is an observed error count over the
marked positions consistent with the expected flip rate? Three answers are
offered with different rigor: a fixed tolerance band around the observed
frequency, a Wilson score interval, and a two-sided exact binomial test.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from operator import add, index, mul, sub

from ._record import Record
from .errors import (
    CountExceedsTotal,
    InvalidProbability,
    RatesEqual,
    Unachievable,
    ZeroTotal,
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
                raise ValueError("fixed tolerance rule takes no confidence")
            if tolerance is None or not 0.0 < tolerance < 1.0:
                raise ValueError(f"tolerance must be in (0, 1), got {tolerance!r}")
        elif kind in (WILSON_INTERVAL, EXACT_BINOMIAL):
            if tolerance is not None:
                raise ValueError(f"{kind} rule takes no tolerance")
            if confidence is None or not 0.0 < confidence < 1.0:
                raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
        else:
            raise ValueError(f"unknown decision rule kind {kind!r}")

    @classmethod
    def fixed(cls, tolerance: float) -> "DecisionRule":
        return cls(FIXED_TOLERANCE, tolerance=tolerance)

    @classmethod
    def wilson(cls, confidence: float = 0.99) -> "DecisionRule":
        return cls(WILSON_INTERVAL, confidence=confidence)

    @classmethod
    def exact_binomial(cls, confidence: float = 0.99) -> "DecisionRule":
        return cls(EXACT_BINOMIAL, confidence=confidence)


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
    if total <= 0:
        raise ZeroTotal(f"sample size must be positive, got {total}")
    if errors < 0:
        raise ValueError(f"error count must be nonnegative, got {errors}")
    if errors > total:
        raise CountExceedsTotal(f"{errors} errors in a sample of {total}")
    return errors / total


def _wilson_bounds(errors: int, total: int, confidence: float) -> tuple[float, float]:
    from statistics import NormalDist  # here, not at the top: only this rule needs it

    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    phat = errors / total
    z2 = z * z
    denom = 1.0 + z2 / total
    centre = (phat + z2 / (2.0 * total)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / total + z2 / (4.0 * total * total))
    return max(0.0, centre - margin), min(1.0, centre + margin)


class _IntegerRun:
    """lgamma(x) and float(x - 1) over one run of consecutive integers x >= 1, grown on demand."""

    def __init__(self) -> None:
        self.first = self.stop = 1
        self.lgammas: list[float] = []
        self.counts: list[float] = []

    def growth(self, first: int, stop: int) -> int:
        """How many entries cover(first, stop) would add."""
        if not self.lgammas:
            return stop - first
        return max(self.first - first, 0) + max(stop - self.stop, 0)

    def cover(self, first: int, stop: int) -> None:
        """Grow the run to include range(first, stop)."""
        if not self.lgammas:
            self.first = self.stop = first
        if first < self.first:
            grown = range(first, self.first)
            self.lgammas[:0] = map(math.lgamma, grown)
            self.counts[:0] = map(float, range(first - 1, self.first - 1))
            self.first = first
        if stop > self.stop:
            grown = range(self.stop, stop)
            self.lgammas += map(math.lgamma, grown)
            self.counts += map(float, range(self.stop - 1, stop - 1))
            self.stop = stop


class _IntegerTables:
    """The integers a pmf window reads, in two runs.

    A window needs lgamma at k+1 and n-k+1 and the factors k and n-k as
    floats (int * float multiplies by exactly that float). Each of the two
    ranges goes into the run that grows least to cover it: near rate 1/2
    they share one run, while far from it they lie at opposite ends of the
    row, which one run would have to span. Runs grow on demand, so one
    instance serves both rows of a power probe, and recommended_sample_size
    keeps one across its probes, whose windows overlap.
    """

    def __init__(self) -> None:
        self.runs = (_IntegerRun(), _IntegerRun())

    def cover(self, first: int, stop: int) -> _IntegerRun:
        """The run grown to include range(first, stop), of the two the one that grew least."""
        run = min(self.runs, key=lambda run: run.growth(first, stop))
        run.cover(first, stop)
        return run


def _binomial_pmf_window(n: int, p: float, tables: _IntegerTables) -> tuple[int, list[float]]:
    """Binomial(n, p) pmf as (lo, masses) for k = lo, lo+1, ...: every non-zero mass.

    Each mass is exp(lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) + k*log p +
    (n-k)*log q), evaluated in that order so it equals the full-row value bit
    for bit; log-gamma keeps n = 100000 from overflowing. Off the window the
    log-mass is below _LOG_MASS_FLOOR, so every mass there is exactly 0.0.
    """
    if p == 0.0 or p == 1.0:
        return (n if p else 0), [1.0]
    lg = math.lgamma
    lg_n = lg(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)

    def log_mass(k: int) -> float:
        return lg_n - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_q

    # the log-mass is concave in k, so each edge is one bisection away from
    # the mode, whose mass is at least 1/(n+1)
    mode = min(n, int((n + 1) * p))
    lo = bisect_left(range(mode), _LOG_MASS_FLOOR, key=log_mass)
    hi = bisect_right(range(n + 1), -_LOG_MASS_FLOOR, mode, key=lambda k: -log_mass(k))
    heads = tables.cover(lo + 1, hi + 1)
    tails = tables.cover(n - hi + 2, n - lo + 2)
    k = slice(lo + 1 - heads.first, hi + 1 - heads.first)
    rest = slice(n - hi + 2 - tails.first, n - lo + 2 - tails.first)  # n-k+1, in reverse
    logs = map(sub, repeat(lg_n), heads.lgammas[k])
    logs = map(sub, logs, tails.lgammas[rest][::-1])
    logs = map(add, logs, map(mul, heads.counts[k], repeat(log_p)))
    logs = map(add, logs, map(mul, tails.counts[rest][::-1], repeat(log_q)))
    return lo, list(map(math.exp, logs))


def _binomial_pmf_row(n: int, p: float) -> list[float]:
    """Binomial(n, p) pmf for k = 0..n: the window, padded with its exact zeros."""
    lo, masses = _binomial_pmf_window(n, p, _IntegerTables())
    return [0.0] * lo + masses + [0.0] * (n + 1 - lo - len(masses))


def _exact_binomial_p_value(errors: int, total: int, rate: float) -> float:
    """Two-sided exact p-value for errors out of total under Binomial(total, rate).

    Minimum-likelihood convention: sum the probability of every outcome no
    more likely than the observed one. Outcomes off the window add nothing.
    fsum is correctly rounded, so summing from the largest term down (which
    keeps its partials few) changes no bit of the result.
    """
    lo, masses = _binomial_pmf_window(total, rate, _IntegerTables())
    at = errors - lo
    observed = masses[at] if 0 <= at < len(masses) else 0.0
    cutoff = observed * (1.0 + _PMF_TIE_SLACK)
    return min(1.0, math.fsum(sorted(filter(cutoff.__ge__, masses), reverse=True)))


def decide(errors: int, total: int, expected_pe: float, rule: DecisionRule) -> DecisionOutcome:
    """Apply rule to an observed error count against the expected flip rate."""
    errors, total = index(errors), index(total)  # every rule needs whole counts
    statistic = relative_frequency(errors, total)
    if not 0.0 <= expected_pe <= 1.0:
        raise InvalidProbability(f"expected rate must be in [0, 1], got {expected_pe}")
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
    if not 0.0 <= pe <= 1.0:
        raise InvalidProbability(f"pe must be in [0, 1], got {pe}")
    return SampleSizeSpec(a=0, b=1) if pe == 0 else SampleSizeSpec(a=1, b=0)


def _rejection_power(
    n: int, pe: float, null_rate: float, alpha: float, tables: _IntegerTables | None = None
) -> float:
    """P[the exact test at level alpha rejects rate pe] when bits flip at null_rate."""
    if tables is None:
        tables = _IntegerTables()
    lo0, pmf0 = _binomial_pmf_window(n, pe, tables)
    lo1, pmf1 = _binomial_pmf_window(n, null_rate, tables)
    hi0, hi1 = lo0 + len(pmf0), lo1 + len(pmf1)
    # the p-value of an outcome is the running mass of the sorted masses up
    # to its own (ties included), so the test rejects exactly the outcomes
    # below the first sorted mass at which that running mass passes alpha;
    # the zero masses off the window only shift that index, never the mass
    masses = sorted(pmf0)
    kept = bisect_right(list(accumulate(masses)), alpha)
    threshold = masses[kept] if kept < len(masses) else math.inf
    # select the null masses the test rejects; every outcome off the pe
    # window has mass 0 under pe, below any threshold
    shared_lo = max(lo0, lo1)
    shared = pmf0[shared_lo - lo0 : max(shared_lo, min(hi0, hi1)) - lo0]
    selectors = [True] * (min(hi1, lo0) - lo1 if lo0 > lo1 else 0)
    selectors += map(threshold.__gt__, map(mul, shared, repeat(1.0 + _PMF_TIE_SLACK)))
    selectors += [True] * (hi1 - max(hi0, lo1) if hi1 > hi0 else 0)
    return math.fsum(sorted(compress(pmf1, selectors), reverse=True))


def recommended_sample_size(pe: float, null_rate: float, confidence: float, power: float) -> int:
    """An index-set size whose exact-binomial verification tells pe from null_rate.

    Returns an n at which a test of H0 "bits flip at rate pe" at the given
    confidence rejects with probability >= power when the true flip rate is
    null_rate (0.0 models an unwatermarked copy). n is found by bisection
    plus a rescan of the 64 sizes below the bisected one, so it is the least
    such n only where the power's ripples are narrower than that window; for
    rates of 0.02 or less it can be larger. Raises Unachievable when no n up
    to MAX_SAMPLE_SIZE suffices.
    """
    if not 0.0 < pe < 1.0:
        raise InvalidProbability(f"pe must be in (0, 1), got {pe}")
    if not 0.0 <= null_rate < 1.0:
        raise InvalidProbability(f"null rate must be in [0, 1), got {null_rate}")
    if not 0.0 < confidence < 1.0:
        raise InvalidProbability(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 < power < 1.0:
        raise InvalidProbability(f"power must be in (0, 1), got {power}")
    if pe == null_rate:
        raise RatesEqual("pe and null rate are identical, no sample size separates them")

    alpha = 1.0 - confidence
    tables = _IntegerTables()

    def achieves(n: int) -> bool:
        return _rejection_power(n, pe, null_rate, alpha, tables) >= power

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
    # bisection trusts monotonicity; the ripples are local, so checking a
    # fixed window below the boundary recovers any smaller passing size
    for n in range(max(1, best - 64), best):
        if achieves(n):
            best = n
            break
    return best
