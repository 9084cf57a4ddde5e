"""Tests for rebit states, bases, and Born-rule measurement."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumark.qstate import (
    ANGLE_TOLERANCE,
    Basis,
    RandomSource,
    RebitState,
    _fold,
    encode_bit,
    expected_error_probability,
    measure,
    outcome_probability,
)

THETA_GRID = [0.0, 12.3456, 30.0, 45.0, 60.0, 77.7, 89.999]


# The Born rule as two functions, one per outcome, as the package computed
# it before outcome_probability took both over; kept as the reference that
# outcome_probability must match bit for bit.
def reference_cos2(delta):
    d = _fold(delta)
    if d == 0.0:
        return 1.0
    if d == 90.0:
        return 0.0
    return math.cos(math.radians(d)) ** 2


def reference_sin2(delta):
    d = _fold(delta)
    if d == 0.0:
        return 0.0
    if d == 90.0:
        return 1.0
    return math.sin(math.radians(d)) ** 2


FINITE_ANGLES = st.floats(allow_nan=False, allow_infinity=False)
# (phi, theta) whose difference lies within twice the snapping tolerance
# of a quarter turn, on both sides of where _fold snaps
NEAR_SNAP = st.tuples(
    st.floats(0.0, 90.0, exclude_max=True),
    st.sampled_from([0.0, 90.0, 180.0, -90.0]),
    st.floats(-2 * ANGLE_TOLERANCE, 2 * ANGLE_TOLERANCE),
).map(lambda t: (t[0] + t[1] + t[2], t[0]))


class TestAngleReduction:
    def test_basis_wraps_into_quarter_turn(self):
        assert Basis(135.0).theta == 45.0
        assert Basis(90.0).theta == 0.0
        assert Basis(-10.0).theta == 80.0
        assert Basis(450.0).theta == 0.0

    def test_state_wraps_into_half_turn(self):
        assert RebitState(200.0).phi == 20.0
        assert RebitState(180.0).phi == 0.0
        assert RebitState(-1.0).phi == 179.0

    def test_tiny_negative_does_not_round_up_to_period(self):
        # float modulo of a tiny negative rounds to the period itself
        assert Basis(-1e-18).theta == 0.0
        assert RebitState(-1e-18).phi == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(ValueError):
            Basis(bad)
        with pytest.raises(ValueError):
            RebitState(bad)


class TestEquality:
    def test_tolerance_equality_across_the_ring_seam(self):
        assert Basis(0.0) == Basis(90.0 - 1e-12)
        assert RebitState(0.0) == RebitState(180.0 - 1e-12)

    def test_distinct_angles_are_unequal(self):
        assert Basis(0.0) != Basis(1e-6)
        assert RebitState(45.0) != RebitState(45.1)

    def test_dissimilarity_is_negated_equality(self):
        a, b = Basis(0.0), Basis(45.0)
        assert a.is_dissimilar_to(b)
        assert b.is_dissimilar_to(a)
        assert not a.is_dissimilar_to(Basis(90.0))  # 90 wraps to 0

    def test_comparison_with_other_types(self):
        assert Basis(45.0) != 45.0
        assert RebitState(45.0) != Basis(45.0)

    def test_tolerant_equality_makes_instances_unhashable(self):
        with pytest.raises(TypeError):
            hash(Basis(0.0))
        with pytest.raises(TypeError):
            hash(RebitState(0.0))


class TestEncodeBit:
    def test_axis_examples(self):
        assert encode_bit(0, Basis(0.0)) == RebitState(0.0)
        assert encode_bit(1, Basis(0.0)) == RebitState(90.0)
        assert encode_bit(0, Basis(45.0)) == RebitState(45.0)
        assert encode_bit(1, Basis(45.0)) == RebitState(135.0)

    def test_rejects_non_bits(self):
        for bad in (2, -1, 0.5, "0", None):
            with pytest.raises((ValueError, TypeError)):
                encode_bit(bad, Basis(0.0))


class TestOutcomeProbability:
    def test_eigenstates_have_exact_probabilities(self):
        for theta in THETA_GRID:
            basis = Basis(theta)
            for bit in (0, 1):
                state = encode_bit(bit, basis)
                assert outcome_probability(state, basis, bit) == 1.0
                assert outcome_probability(state, basis, 1 - bit) == 0.0

    def test_conjugate_basis_is_a_coin_flip(self):
        assert outcome_probability(RebitState(45.0), Basis(0.0), 0) == pytest.approx(0.5, abs=1e-12)
        assert outcome_probability(RebitState(45.0), Basis(0.0), 1) == pytest.approx(0.5, abs=1e-12)

    def test_thirty_degree_offset(self):
        assert outcome_probability(RebitState(30.0), Basis(0.0), 1) == pytest.approx(0.25, abs=1e-12)
        assert outcome_probability(RebitState(30.0), Basis(0.0), 0) == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.tuples(FINITE_ANGLES, FINITE_ANGLES), NEAR_SNAP))
    def test_matches_the_per_outcome_reference(self, angles):
        state, basis = RebitState(angles[0]), Basis(angles[1])
        delta = state.phi - basis.theta
        assert outcome_probability(state, basis, 0) == reference_cos2(delta)
        assert outcome_probability(state, basis, 1) == reference_sin2(delta)

    def test_outcomes_normalize(self):
        rng = RandomSource(90210)
        for _ in range(500):
            state = RebitState(rng.draw() * 180.0)
            basis = Basis(rng.draw() * 90.0)
            total = outcome_probability(state, basis, 0) + outcome_probability(state, basis, 1)
            assert abs(total - 1.0) <= 1e-12

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            outcome_probability(RebitState(0.0), Basis(0.0), 2)


class TestMeasure:
    def test_eigenstates_measure_deterministically(self):
        for theta in THETA_GRID:
            basis = Basis(theta)
            for bit in (0, 1):
                state = encode_bit(bit, basis)
                for seed in range(25):
                    assert measure(state, basis, RandomSource(seed)) == bit

    def test_consumes_exactly_one_draw_per_call(self):
        state = RebitState(45.0)
        basis = Basis(0.0)
        p0 = outcome_probability(state, basis, 0)
        rng = RandomSource(1234)
        replay = RandomSource(1234)
        for _ in range(1000):
            got = measure(state, basis, rng)
            assert got == (0 if replay.draw() < p0 else 1)

    def test_born_frequencies_across_seeds(self):
        # 50 seeds x 100000 measurements, each within 4 sigma of p = 0.5;
        # a seed fails with probability ~6e-5, so all pass for this seed set
        state = RebitState(45.0)
        basis = Basis(0.0)
        n = 100_000
        bound = 4.0 * math.sqrt(0.5 * 0.5 / n)
        misses = 0
        for seed in range(50):
            rng = RandomSource(seed)
            ones = sum(measure(state, basis, rng) for _ in range(n))
            if abs(ones / n - 0.5) > bound:
                misses += 1
        assert misses <= 1

    def test_born_frequency_quarter_rate(self):
        state = RebitState(30.0)
        basis = Basis(0.0)
        n = 20_000
        rng = RandomSource(7)
        ones = sum(measure(state, basis, rng) for _ in range(n))
        assert abs(ones / n - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / n)


class TestRandomSource:
    def test_equal_seeds_equal_streams(self):
        a = RandomSource(99)
        b = RandomSource(99)
        assert [a.draw() for _ in range(1000)] == [b.draw() for _ in range(1000)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.draw() for _ in range(10)] != [b.draw() for _ in range(10)]

    def test_negative_seed_is_refused(self):
        # random.Random seeds with abs(), so -5 would replay the stream of 5
        with pytest.raises(ValueError):
            RandomSource(-5)
        assert 0.0 <= RandomSource(0).draw() < 1.0

    @pytest.mark.parametrize("seed", ["a", b"x", 1.0])
    def test_a_seed_that_is_not_an_int_is_a_type_error(self, seed):
        with pytest.raises(TypeError, match="^seed must be an int or None, got"):
            RandomSource(seed)
        rng = RandomSource(3)
        with pytest.raises(TypeError, match="^seed must be an int or None"):
            rng.seed(seed)
        assert rng.draw() == RandomSource(3).draw()

    def test_unseeded_draws_stay_in_range(self):
        rng = RandomSource()
        assert all(0.0 <= rng.draw() < 1.0 for _ in range(100))

    def test_draws_are_the_random_module_stream(self):
        rng, base = RandomSource(seed=2024), random.Random(2024)
        assert [rng.draw() for _ in range(1000)] == [base.random() for _ in range(1000)]

    def test_reseeding_with_a_negative_seed_is_refused(self):
        rng = RandomSource(3)
        with pytest.raises(ValueError):
            rng.seed(-1)
        # the refused reseed leaves the stream where it was
        assert rng.draw() == RandomSource(3).draw()

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_taken_mid_stream_continues_the_stream(self, clone):
        rng = RandomSource(8)
        for _ in range(17):
            rng.draw()
        twin = clone(rng)
        assert type(twin) is RandomSource
        assert [twin.draw() for _ in range(500)] == [rng.draw() for _ in range(500)]


class TestExpectedErrorProbability:
    def test_conjugate_pair_is_half(self):
        assert expected_error_probability(Basis(45.0), Basis(0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_same_basis_is_exactly_zero(self):
        for theta in THETA_GRID:
            assert expected_error_probability(Basis(theta), Basis(theta)) == 0.0

    def test_thirty_degrees_is_quarter(self):
        assert expected_error_probability(Basis(30.0), Basis(0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_is_bitwise_exact(self):
        rng = RandomSource(31337)
        for _ in range(200):
            a = Basis(rng.draw() * 90.0)
            b = Basis(rng.draw() * 90.0)
            assert expected_error_probability(a, b) == expected_error_probability(b, a)

    def test_matches_the_defining_measurement(self):
        rng = RandomSource(4242)
        for _ in range(200):
            writing = Basis(rng.draw() * 90.0)
            reading = Basis(rng.draw() * 90.0)
            direct = outcome_probability(encode_bit(0, writing), reading, 1)
            assert expected_error_probability(writing, reading) == direct

    def test_rate_is_a_probability_and_grows_with_separation(self):
        rng = RandomSource(55)
        for _ in range(300):
            a = Basis(rng.draw() * 90.0)
            b = Basis(rng.draw() * 90.0)
            assert 0.0 <= expected_error_probability(a, b) < 1.0
        # sin^2 of the separation: 45 degrees flips half the bits, nearly
        # anti-aligned bases flip nearly all of them
        rates = [expected_error_probability(Basis(float(d)), Basis(0.0)) for d in range(0, 90, 10)]
        assert rates == sorted(rates)
        assert rates[0] == 0.0
        assert expected_error_probability(Basis(45.0), Basis(0.0)) == pytest.approx(0.5, abs=1e-12)
