"""Tests for the versioned JSON file formats.

The contract under test is byte-stability: dump(load(dump(x))) must equal
dump(x) exactly, independent of platform float repr, and malformed or
mis-versioned input must fail loudly instead of being repaired.
"""

import json

import pytest

from qumark.errors import MalformedFile, UnsupportedVersion
from qumark.fileformats import (
    dump_observation,
    dump_quantum_message,
    dump_secret,
    load_observation,
    load_quantum_message,
    load_secret,
)
from qumark.qstate import Basis, RebitState
from qumark.watermark import ObservedMessage, QuantumMessage, WatermarkSecret

SECRET = WatermarkSecret(
    indices=(0, 2, 6, 7),
    mark_basis=Basis(45.0),
    key=bytes(range(32)),
)
MESSAGE = QuantumMessage(
    states=(RebitState(45.0), RebitState(90.0), RebitState(0.0), RebitState(12.3456)),
    writing_basis=Basis(0.0),
)
OBSERVATION = ObservedMessage(bits="01100101110", observation_basis=Basis(0.0))


def mutate(text, **changes):
    document = json.loads(text)
    document.update(changes)
    return json.dumps(document)


class TestSecretFormat:
    def test_round_trip(self):
        text = dump_secret(SECRET, expected_pe=0.5)
        loaded, pe = load_secret(text)
        assert loaded == SECRET
        assert pe == 0.5

    def test_dump_is_stable(self):
        text = dump_secret(SECRET, expected_pe=0.5)
        loaded, pe = load_secret(text)
        assert dump_secret(loaded, pe) == text

    def test_keyless_secret(self):
        secret = WatermarkSecret(indices=(1, 3), mark_basis=Basis(30.0))
        loaded, _ = load_secret(dump_secret(secret, expected_pe=0.25))
        assert loaded.key is None
        assert loaded == secret

    def test_angle_is_a_fixed_point_string(self):
        document = json.loads(dump_secret(SECRET, expected_pe=0.5))
        assert document["mark_basis_theta"] == "45.000000"

    def test_version_is_checked(self):
        text = mutate(dump_secret(SECRET, 0.5), version=2)
        with pytest.raises(UnsupportedVersion):
            load_secret(text)

    def test_missing_field(self):
        document = json.loads(dump_secret(SECRET, 0.5))
        del document["indices"]
        with pytest.raises(MalformedFile):
            load_secret(json.dumps(document))

    def test_bad_indices(self):
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), indices=[3, "x"]))
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), indices=[3, 2]))

    def test_bad_angle(self):
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), mark_basis_theta=45.0))
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), mark_basis_theta="90.000000"))

    def test_bad_key(self):
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), key="!!not base64!!"))
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), key=1234))

    def test_bad_expected_pe(self):
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), expected_pe="half"))
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), expected_pe=True))

    def test_not_json_and_not_object(self):
        with pytest.raises(MalformedFile):
            load_secret("{ truncated")
        with pytest.raises(MalformedFile):
            load_secret("[1, 2, 3]")

    def test_boolean_version_is_refused(self):
        # true == 1 in Python, and 1.0 == 1; neither is version 1
        for version in (True, 1.0):
            with pytest.raises(UnsupportedVersion):
                load_secret(mutate(dump_secret(SECRET, 0.5), version=version))

    def test_boolean_indices_are_refused(self):
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), indices=[False, True]))
        with pytest.raises(MalformedFile):
            load_secret(mutate(dump_secret(SECRET, 0.5), indices=[0, True, 6]))


@pytest.mark.parametrize("load", [load_secret, load_quantum_message, load_observation])
def test_deep_nesting_is_a_malformed_file(load):
    with pytest.raises(MalformedFile):
        load("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("load,dump,value", [
    (load_quantum_message, dump_quantum_message, MESSAGE),
    (load_observation, dump_observation, OBSERVATION),
])
def test_boolean_version_is_refused_by_every_format(load, dump, value):
    with pytest.raises(UnsupportedVersion):
        load(mutate(dump(value), version=True))


class TestMessageFormat:
    def test_round_trip(self):
        text = dump_quantum_message(MESSAGE)
        loaded = load_quantum_message(text)
        assert loaded == MESSAGE
        assert dump_quantum_message(loaded) == text

    def test_states_are_fixed_point_strings(self):
        document = json.loads(dump_quantum_message(MESSAGE))
        assert document["states"] == ["45.000000", "90.000000", "0.000000", "12.345600"]

    def test_version_is_checked(self):
        with pytest.raises(UnsupportedVersion):
            load_quantum_message(mutate(dump_quantum_message(MESSAGE), version=0))

    def test_bad_states(self):
        text = dump_quantum_message(MESSAGE)
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states="45.000000"))
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=[45.0]))
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=["180.000000"]))
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=[]))

    def test_unhashable_states(self):
        text = dump_quantum_message(MESSAGE)
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=[["45.000000"]]))
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=["45.000000", {"phi": "0.0"}]))
        with pytest.raises(MalformedFile):
            load_quantum_message(mutate(text, states=["45.000000", None]))


class TestObservationFormat:
    def test_round_trip(self):
        text = dump_observation(OBSERVATION)
        loaded = load_observation(text)
        assert loaded == OBSERVATION
        assert dump_observation(loaded) == text

    def test_bits_pack_big_endian_with_zero_padding(self):
        document = json.loads(dump_observation(OBSERVATION))
        # "01100101" -> 0x65, "110" + five zero pad bits -> 0xc0
        assert document["bits"] == "ZcA="
        assert document["bit_length"] == 11

    def test_whole_byte_payload(self):
        observation = ObservedMessage(bits="01100101", observation_basis=Basis(0.0))
        document = json.loads(dump_observation(observation))
        assert document["bits"] == "ZQ=="
        assert load_observation(dump_observation(observation)) == observation

    def test_version_is_checked(self):
        with pytest.raises(UnsupportedVersion):
            load_observation(mutate(dump_observation(OBSERVATION), version="1"))

    def test_nonzero_padding_is_rejected(self):
        # 0xc1 puts a 1 among the pad bits beyond bit_length
        with pytest.raises(MalformedFile):
            load_observation(mutate(dump_observation(OBSERVATION), bits="ZcE="))

    def test_bit_length_must_fit_the_payload(self):
        text = dump_observation(OBSERVATION)
        with pytest.raises(MalformedFile):
            load_observation(mutate(text, bit_length=5))
        with pytest.raises(MalformedFile):
            load_observation(mutate(text, bit_length=17))
        with pytest.raises(MalformedFile):
            load_observation(mutate(text, bit_length=0))
        with pytest.raises(MalformedFile):
            load_observation(mutate(text, bit_length=True))

    def test_bad_base64(self):
        with pytest.raises(MalformedFile):
            load_observation(mutate(dump_observation(OBSERVATION), bits="@@@"))
        with pytest.raises(MalformedFile):
            load_observation(mutate(dump_observation(OBSERVATION), bits=99))
