"""Tests for key handling and keyed index derivation.

Golden index sets were frozen from the first verified implementation run;
they pin the derivation scheme (keyed BLAKE2b counter stream, rejection
sampling, partial Fisher-Yates) so that accidental format changes surface
as test failures rather than as silently unlocatable watermarks.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumark.errors import TooFewEligiblePositions
from qumark.keys import (
    MIN_KEY_BYTES,
    DerivationParams,
    SecretKey,
    _below,
    _key_words,
    derive_indices,
    generate_secret,
)
from qumark.qstate import Basis

KEY32 = SecretKey(bytes(range(32)))

GOLDEN_SETS = {
    "key32_64_8": (3, 10, 17, 26, 37, 41, 52, 59),
    "ascii16_8_4": (0, 2, 5, 6),
    "key32_masked_odd": (1, 5, 11, 21, 25, 37, 39, 51),
    "long200_64_8": (1, 6, 28, 34, 49, 52, 53, 56),
}


def reference_derive_indices(key, params):
    """The partial Fisher-Yates as a swap loop over the whole eligible list."""
    pool = list(params.eligible_positions())
    words = _key_words(key)
    for i in range(params.mark_count):
        j = i + _below(words, len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[: params.mark_count]))


@st.composite
def derivation_params(draw):
    length = draw(st.integers(1, 200))
    mask = draw(st.none() | st.text("01", min_size=length, max_size=length))
    eligible = length if mask is None else mask.count("1")
    if eligible == 0:
        mask = "1" + mask[1:]
        eligible = 1
    return DerivationParams(length, draw(st.integers(1, eligible)), eligibility_mask=mask)


class TestSecretKey:
    def test_minimum_length_enforced(self):
        SecretKey(b"x" * MIN_KEY_BYTES)
        with pytest.raises(ValueError):
            SecretKey(b"x" * (MIN_KEY_BYTES - 1))
        with pytest.raises(ValueError):
            SecretKey(b"")

    def test_bytearray_is_normalized_to_bytes(self):
        key = SecretKey(bytearray(range(16)))
        assert isinstance(key.data, bytes)
        assert key == SecretKey(bytes(range(16)))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            SecretKey("0123456789abcdef")

    def test_seeded_generation_is_reproducible(self):
        assert SecretKey.generate(seed=42) == SecretKey.generate(seed=42)
        assert SecretKey.generate(seed=42) != SecretKey.generate(seed=43)
        assert len(SecretKey.generate(seed=42).data) == 32

    def test_negative_seed_is_refused(self):
        # random.Random seeds with abs(), so -5 would replay the key of 5
        with pytest.raises(ValueError):
            SecretKey.generate(seed=-5)
        assert len(SecretKey.generate(seed=0).data) == 32

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_seeded_key_is_the_random_module_stream(self, seed):
        # pins the bytes a seed gives, whatever produces them
        assert SecretKey.generate(seed).data == random.Random(seed).randbytes(32)

    def test_unseeded_generation_draws_fresh_entropy(self):
        first = SecretKey.generate()
        second = SecretKey.generate()
        assert len(first.data) == 32
        assert first != second


class TestDerivationParams:
    def test_eligible_positions_without_mask(self):
        params = DerivationParams(message_length=6, mark_count=2)
        assert params.eligible_count() == 6
        assert params.eligible_positions() == range(6)

    def test_eligible_positions_with_mask(self):
        params = DerivationParams(6, 2, eligibility_mask="010110")
        assert params.eligible_count() == 3
        assert params.eligible_positions() == [1, 3, 4]

    @settings(max_examples=200, deadline=None)
    @given(params=derivation_params())
    def test_eligible_positions_are_the_ones_of_the_mask(self, params):
        mask = params.eligibility_mask or "1" * params.message_length
        expected = [i for i, flag in enumerate(mask) if flag == "1"]
        assert list(params.eligible_positions()) == expected

    def test_mask_must_match_length_and_charset(self):
        with pytest.raises(ValueError):
            DerivationParams(6, 2, eligibility_mask="0101")
        with pytest.raises(ValueError):
            DerivationParams(6, 2, eligibility_mask="01011x")

    def test_mask_is_a_str_of_zeros_and_ones(self):
        with pytest.raises(TypeError):
            DerivationParams(6, 2, eligibility_mask=list("010110"))
        with pytest.raises(ValueError, match="eligibility mask may contain only '0' and '1'"):
            DerivationParams(6, 2, eligibility_mask="010112")

    def test_a_non_str_mask_names_the_bit_alphabet(self):
        with pytest.raises(TypeError, match="of '0'/'1'"):
            DerivationParams(6, 2, eligibility_mask=list("010110"))

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            DerivationParams(0, 1)
        with pytest.raises(ValueError):
            DerivationParams(6, 0)

    @pytest.mark.parametrize("args, name", [
        ((6.5, 2), "message_length"), ((True, 1), "message_length"),
        ((6, 2.0), "mark_count"), ((6, True), "mark_count"),
    ])
    def test_counts_must_be_ints(self, args, name):
        # a float length used to construct and then fail inside range(); true passed for 1
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            DerivationParams(*args)

    def test_too_few_eligible_positions(self):
        with pytest.raises(TooFewEligiblePositions):
            DerivationParams(6, 7)
        with pytest.raises(TooFewEligiblePositions):
            DerivationParams(6, 3, eligibility_mask="010010")


class TestDeriveIndices:
    def test_golden_set_plain(self):
        got = derive_indices(KEY32, DerivationParams(64, 8))
        assert got == GOLDEN_SETS["key32_64_8"]

    def test_golden_set_short_key(self):
        got = derive_indices(SecretKey(b"0123456789abcdef"), DerivationParams(8, 4))
        assert got == GOLDEN_SETS["ascii16_8_4"]

    def test_golden_set_masked(self):
        got = derive_indices(KEY32, DerivationParams(64, 8, eligibility_mask="01" * 32))
        assert got == GOLDEN_SETS["key32_masked_odd"]
        assert all(i % 2 == 1 for i in got)

    def test_golden_set_oversized_key(self):
        # keys longer than the 64-byte BLAKE2b cap go through a pre-hash
        got = derive_indices(SecretKey(bytes(range(200))), DerivationParams(64, 8))
        assert got == GOLDEN_SETS["long200_64_8"]

    def test_deterministic_and_well_formed(self):
        params = DerivationParams(300, 40)
        first = derive_indices(KEY32, params)
        second = derive_indices(KEY32, params)
        assert first == second
        assert len(first) == 40
        assert len(set(first)) == 40
        assert list(first) == sorted(first)
        assert all(0 <= i < 300 for i in first)

    def test_mask_is_respected(self):
        mask = "".join("1" if i % 3 == 0 else "0" for i in range(90))
        params = DerivationParams(90, 10, eligibility_mask=mask)
        got = derive_indices(KEY32, params)
        assert all(i % 3 == 0 for i in got)

    @settings(max_examples=200, deadline=None)
    @given(params=derivation_params(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_swap_loop_reference(self, params, seed):
        key = SecretKey.generate(seed=seed)
        assert derive_indices(key, params) == reference_derive_indices(key, params)

    def test_memory_grows_with_the_marks_not_the_length(self):
        params = DerivationParams(10**12, 1000)
        derive_indices(KEY32, DerivationParams(8, 1))  # imports hashlib outside the trace
        tracemalloc.start()
        try:
            got = derive_indices(KEY32, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(set(got)) == 1000
        assert 0 <= got[0] and got[-1] < 10**12

    def test_selection_is_uniform_across_positions(self):
        # every position of a length-64 message should be picked for an
        # 8-mark set about 1/8 of the time across many keys
        params = DerivationParams(64, 8)
        counts = [0] * 64
        trials = 10000
        for seed in range(trials):
            for i in derive_indices(SecretKey.generate(seed=seed), params):
                counts[i] += 1
        for c in counts:
            assert abs(c / trials - 0.125) < 0.01

    def test_single_bit_key_changes_move_the_set(self):
        params = DerivationParams(4096, 64)
        for seed in range(1000):
            base = SecretKey.generate(seed=seed).data
            pos, bit = seed % 32, seed % 8
            flipped = bytes(
                b ^ (1 << bit) if i == pos else b for i, b in enumerate(base)
            )
            assert derive_indices(SecretKey(base), params) != derive_indices(
                SecretKey(flipped), params
            )


class TestGenerateSecret:
    def test_fields_are_wired_through(self):
        params = DerivationParams(64, 8)
        basis = Basis(45.0)
        secret = generate_secret(KEY32, params, basis)
        assert secret.indices == GOLDEN_SETS["key32_64_8"]
        assert secret.mark_basis == basis
        assert secret.key == KEY32.data
