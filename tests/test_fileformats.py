"""Tests for the versioned JSON file formats.

The contract under test is byte-stability: dump(load(dump(x))) must equal
dump(x) exactly, independent of platform float repr, and malformed or
mis-versioned input must fail loudly instead of being repaired.
"""

import json
import operator
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumark import fileformats
from qumark.errors import InvalidProbability, MalformedFile, UnsupportedVersion
from qumark.fileformats import (
    _decode,
    _scan_canonical_message,
    dump_observation,
    dump_quantum_message,
    dump_secret,
    load_observation,
    load_quantum_message,
    load_secret,
)
from qumark.qstate import Basis, RebitState
from qumark.watermark import ObservedMessage, QuantumMessage, WatermarkSecret, build_message

SECRET = WatermarkSecret(
    indices=(0, 2, 6, 7),
    mark_basis=Basis(45.0),
    key=bytes(range(32)),
)
MESSAGE = QuantumMessage(
    palette=(RebitState(45.0), RebitState(90.0), RebitState(0.0), RebitState(12.3456)),
    codes=range(4),
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


@pytest.mark.parametrize("indices", [[0, 2.5, 6], [0, "2", 6], [0, "x"], [True, 2, 6], [0, None],
                                     [1.5, 0.5], [3, [4]]])
@pytest.mark.parametrize("other", [
    {}, {"mark_basis_theta": "90.000000"}, {"key": "!!"}, {"expected_pe": "half"},
    {"expected_pe": 10**400}, {"expected_pe": 7.5},
], ids=["alone", "bad-theta", "bad-key", "bad-rate-type", "huge-rate", "rate-out-of-range"])
def test_an_index_that_is_not_an_integer_is_reported_before_any_other_fault(indices, other):
    text = mutate(dump_secret(SECRET, 0.5), indices=indices, **other)
    with pytest.raises(MalformedFile) as caught:
        load_secret(text)
    assert str(caught.value) == "secret indices must be a list of integers"


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


LONG_INTEGER = "1" + "0" * 5000  # past CPython's 4,300-digit int-conversion limit


def with_long_integer(text, field, shape="{}"):
    return mutate(text, **{field: "@"}).replace('"@"', shape.format(LONG_INTEGER))


@pytest.mark.parametrize("load,text", [
    (load_secret, with_long_integer(dump_secret(SECRET, 0.5), "expected_pe")),
    (load_secret, with_long_integer(dump_secret(SECRET, 0.5), "indices", "[0, {}]")),
    (load_observation, with_long_integer(dump_observation(OBSERVATION), "bit_length")),
    (load_quantum_message, with_long_integer(dump_quantum_message(MESSAGE), "version")),
], ids=["secret-expected-pe", "secret-index", "observation-bit-length", "message-version"])
def test_over_long_integer_is_a_malformed_file(load, text):
    with pytest.raises(MalformedFile):
        load(text)


def test_expected_pe_beyond_float_range_is_a_malformed_file():
    with pytest.raises(MalformedFile):
        load_secret(mutate(dump_secret(SECRET, 0.5), expected_pe=10**400))


@pytest.mark.parametrize(
    "angle", ["4_5", "\u0664\u0665", " 45 ", "4.5e1", "+45", "45.", ".5", "0x2d"]
)
@pytest.mark.parametrize("load,text,field", [
    (load_secret, dump_secret(SECRET, 0.5), "mark_basis_theta"),
    (load_observation, dump_observation(OBSERVATION), "observation_basis_theta"),
    (load_quantum_message, dump_quantum_message(MESSAGE), "states"),
], ids=["secret", "observation", "message"])
def test_angles_take_only_the_fixed_point_form(load, text, field, angle):
    # float() reads every one of these but the last; _format_angle writes none
    value = [angle] if field == "states" else angle
    with pytest.raises(MalformedFile, match="not a fixed-point decimal"):
        load(mutate(text, **{field: value}))


@pytest.mark.parametrize("expected_pe", [float("nan"), float("inf"), -0.25, 7.5])
def test_dump_secret_refuses_a_rate_outside_the_unit_interval(expected_pe):
    with pytest.raises(InvalidProbability):
        dump_secret(SECRET, expected_pe)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("load,text,field", [
    (load_secret, dump_secret(SECRET, 0.5), "expected_pe"),
    (load_observation, dump_observation(OBSERVATION), "bit_length"),
    (load_quantum_message, dump_quantum_message(MESSAGE), "version"),
], ids=["secret", "observation", "message"])
def test_non_finite_json_constants_are_a_malformed_file(load, text, field, constant):
    # json.loads reads these by default; RFC 8259 has no such tokens
    text = mutate(text, **{field: "@"}).replace('"@"', constant)
    with pytest.raises(MalformedFile, match=f"{constant} is not a JSON number"):
        load(text)


def test_load_secret_refuses_a_rate_dump_secret_would_not_write():
    with pytest.raises(MalformedFile):
        load_secret(mutate(dump_secret(SECRET, 0.5), expected_pe=7.5))


@given(
    st.floats() | st.integers() | st.sampled_from([10**400, -0.0, 1, 0, True, False])
    | st.none() | st.text(max_size=3) | st.lists(st.floats(0, 1), max_size=1)
)
def test_load_secret_takes_exactly_the_rates_dump_secret_writes(expected_pe):
    try:
        dump_secret(SECRET, expected_pe)
    except (TypeError, ValueError):
        written = False
    else:
        written = True
    text = mutate(dump_secret(SECRET, 0.5), expected_pe=expected_pe)
    try:
        loaded = load_secret(text)[1]
    except MalformedFile:
        assert not written
    else:
        assert written and loaded == expected_pe and type(loaded) is float


def test_a_float_after_an_index_past_float_range_is_a_malformed_file():
    # the sum of such a list overflows rather than giving a float
    text = mutate(dump_secret(SECRET, 0.5), indices=[10**400, 0.5])
    with pytest.raises(MalformedFile, match="^secret indices must be a list of integers$"):
        load_secret(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
# values shaped like the real fields, so documents also get past the type checks
FIELD_VALUES = JSON_VALUES | st.sampled_from([
    1, 0, -1, 2**64, 10**400, 0.5, "", "0.000000", "45.000000", "89.999999", "90.000000",
    "179.999999", "180.000000", "-0.0", "nan", "inf", "1e400", "1_0", "AAAA", "AA==", "=",
]) | st.lists(st.integers(-3, 2**70), max_size=6) | st.lists(
    st.sampled_from(["0.000000", "45.000000", "90.000000", "135.000000", "nan", 0, None]),
    max_size=6,
)

FORMATS = {
    "secret": (load_secret, dump_secret(SECRET, 0.5)),
    "message": (load_quantum_message, dump_quantum_message(MESSAGE)),
    "observation": (load_observation, dump_observation(OBSERVATION)),
}


@st.composite
def documents(draw, text):
    """A valid document with some fields dropped or replaced, perhaps extended."""
    document = json.loads(text)
    for name in sorted(document):
        action = draw(st.sampled_from(["keep", "drop", "replace"]))
        if action == "drop":
            del document[name]
        elif action == "replace":
            document[name] = draw(FIELD_VALUES)
    document.update(draw(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2)))
    return document


@pytest.mark.parametrize("kind", sorted(FORMATS))
class TestArbitraryInput:
    """Any input either loads or fails as MalformedFile/UnsupportedVersion."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_document(self, kind, data):
        load, text = FORMATS[kind]
        document = data.draw(documents(text) | JSON_VALUES)
        try:
            load(json.dumps(document))
        except (MalformedFile, UnsupportedVersion):
            pass

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary() | st.text().map(str.encode))
    def test_arbitrary_bytes(self, kind, raw):
        load, _text = FORMATS[kind]
        try:
            load(raw)
        except (MalformedFile, UnsupportedVersion):
            pass


def reference_load_indices(indices):
    """The indices load_secret returns for a parsed indices field, or None if it refuses.

    These are the three passes load_secret once made: a type scan, int()
    over every index, and the order check; kept as the reference its
    single pass must match.
    """
    if not isinstance(indices, list) or not set(map(type, indices)) <= {int}:
        return None
    indices = tuple(map(int, indices))
    if not indices or indices[0] < 0 or not all(map(operator.lt, indices, indices[1:])):
        return None
    return indices


@st.composite
def index_fields(draw):
    """Increasing integers with a few values inserted anywhere, or any JSON value."""
    indices = sorted(draw(st.sets(st.integers(0, 2**70) | st.integers(0, 8), max_size=6)))
    stray = st.integers(-3, 8) | st.booleans() | st.floats() | st.none() | st.text(max_size=2)
    for at, value in draw(st.lists(st.tuples(st.integers(0, 6), stray | JSON_VALUES), max_size=2)):
        indices.insert(at, value)
    return indices


@settings(max_examples=500, deadline=None)
@given(index_fields() | JSON_VALUES)
def test_load_secret_refuses_exactly_what_the_three_passes_refused(indices):
    text = mutate(dump_secret(SECRET, 0.5), indices=indices)
    try:
        loaded = load_secret(text)[0].indices
    except MalformedFile:
        loaded = None
    assert loaded == reference_load_indices(json.loads(text)["indices"])
    assert loaded is None or set(map(type, loaded)) <= {int}


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


def f_string_dump(message):
    """dump_quantum_message as an f-string around a joined states block: the oracle."""
    lines = [f"    {json.dumps(fileformats._format_angle(s.phi, 180.0))}" for s in message.palette]
    states = ",\n".join(map(lines.__getitem__, message.codes))
    theta = json.dumps(fileformats._format_angle(message.writing_basis.theta, 90.0))
    return (
        f'{{\n  "states": [\n{states}\n  ],\n'
        f'  "version": {fileformats.MESSAGE_FORMAT_VERSION},\n'
        f'  "writing_basis_theta": {theta}\n}}\n'
    )


class TestMessageDump:
    """dump_quantum_message builds the document in one join."""

    @settings(max_examples=60, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=256),
        length=st.integers(1, 3) | st.integers(1 << 16, (1 << 16) + 64),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.0, 90.0, exclude_max=True),
    )
    def test_equals_the_f_string_construction(self, angles, length, seed, theta):
        rng = random.Random(seed)
        codes = [rng.randrange(len(angles)) for _ in range(length)]
        message = QuantumMessage(map(RebitState, angles), codes, Basis(theta))
        text = dump_quantum_message(message)
        assert type(text) is str
        assert text == f_string_dump(message)
        assert text == fileformats._dump(json.loads(text))

    def test_peak_memory_stays_within_the_join(self):
        bits = format(random.Random(7).getrandbits(1 << 19), f"0{1 << 19}b")
        message = build_message(bits, Basis(0.0))
        tracemalloc.start()
        try:
            text = dump_quantum_message(message)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result plus a list of one reference per qubit; a copy of the
        # states block on top of the result reaches 2.0 times it
        assert peak <= 1.6 * len(text)


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


# every encoding json.loads detects in bytes, with and without a BOM
ENCODINGS = [
    "utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le", "utf-32-be",
]


@pytest.mark.parametrize("kind", sorted(FORMATS))
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_bytes_in_any_json_encoding_load_like_the_text(kind, encoding):
    load, text = FORMATS[kind]
    assert load(text.encode(encoding)) == load(text)


def json_outcome(load, value):
    try:
        return repr(load(value))
    except (ValueError, MalformedFile):
        return "refused"


# JSON values, lone surrogates among their strings, in any of those encodings
ENCODED_JSON = st.tuples(
    JSON_VALUES | st.text(st.characters(categories=["Cs", "Ll"])), st.sampled_from(ENCODINGS)
).map(lambda pair: json.dumps(pair[0], ensure_ascii=False).encode(pair[1], "surrogatepass"))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary() | ENCODED_JSON)
def test_bytes_decode_as_json_loads_decodes_them(raw):
    assert json_outcome(lambda b: json.loads(_decode(b, "test")), raw) == json_outcome(
        json.loads, raw
    )


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller keeps its arguments alive")
def test_bytes_handed_to_a_loader_are_freed_before_the_parse():
    text = dump_quantum_message(build_message("01" * 50_000, Basis(0.0)))

    def peak_of_load(make):
        tracemalloc.start()
        try:
            load_quantum_message(make())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    from_text = peak_of_load(lambda: text)  # the text itself is allocated untraced
    from_bytes = peak_of_load(text.encode)
    # the decoded text adds its size to the parse's peak; bytes held through
    # the parse would add their size a second time
    assert from_bytes < from_text + 1.5 * len(text)


def message_outcome(load, raw):
    """What a load gives: the message's fields, or the type and text of its error."""
    try:
        message = load(raw)
    except Exception as exc:
        return type(exc), str(exc)
    return message.palette, type(message.codes), message.codes, message.writing_basis


def json_path_load(raw):
    """load_quantum_message with the canonical-layout scan switched off."""
    with mock.patch.object(fileformats, "_scan_canonical_message", return_value=None):
        return load_quantum_message(raw)


@st.composite
def canonical_dumps(draw):
    """The bytes dump_quantum_message writes, for 1-12 distinct angles or for over 256."""
    if draw(st.integers(0, 9)):
        angles = draw(st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=12))
    else:
        angles = [0.5 * i for i in range(draw(st.integers(257, 300)))]
    codes = draw(st.lists(st.integers(0, len(angles) - 1), min_size=1, max_size=40))
    codes += range(len(angles)) if len(angles) > 256 else []
    writing = Basis(draw(st.floats(0.0, 90.0, exclude_max=True)))
    message = QuantumMessage(map(RebitState, angles), codes, writing)
    return dump_quantum_message(message).encode()


# bytes that matter to the layout, plus any byte
LAYOUT_BYTES = st.sampled_from(b'0123456789."\\,\n ]}u\x00\x80\xff') | st.integers(0, 255)


@st.composite
def mutated(draw, raw):
    """raw with up to two single-byte substitutions, deletions or insertions."""
    raw = bytearray(raw)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw) - 1))
        action = draw(st.sampled_from(["substitute", "delete", "insert"]))
        if action == "delete":
            del raw[at]
        elif action == "substitute":
            raw[at] = draw(LAYOUT_BYTES)
        else:
            raw.insert(at, draw(LAYOUT_BYTES))
    return bytes(raw)


class TestCanonicalMessageScan:
    """The scan of dump_quantum_message's layout loads exactly what json.loads loads."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), slice_bytes=st.sampled_from([1, 13, 64, 1 << 16]))
    def test_scan_and_json_path_agree(self, data, slice_bytes):
        # small slices put slice boundaries inside these short documents
        raw = data.draw(canonical_dumps().flatmap(mutated))
        with mock.patch.object(fileformats, "_SLICE_BYTES", slice_bytes):
            fast = message_outcome(load_quantum_message, raw)
        assert fast == message_outcome(json_path_load, raw)

    @settings(max_examples=50, deadline=None)
    @given(raw=canonical_dumps())
    def test_every_canonical_dump_with_at_most_256_angles_is_scanned(self, raw):
        message = load_quantum_message(raw)
        assert (_scan_canonical_message(raw) is None) == (len(message.palette) > 256)

    @pytest.mark.parametrize("variant", [
        lambda text: text.encode("utf-8-sig"),
        lambda text: text.encode("utf-16"),
        lambda text: text,
        lambda text: json.dumps(json.loads(text), indent=4, sort_keys=True).encode(),
        lambda text: text.replace('"0.000000"', '"\\u0030.000000"').encode(),
    ], ids=["utf-8-bom", "utf-16", "str", "re-indented", "escaped"])
    def test_other_layouts_take_the_json_path(self, variant):
        message = QuantumMessage(map(RebitState, (0.0, 90.0, 45.0)), [0, 1, 0, 2, 0], Basis(0.0))
        text = dump_quantum_message(message)
        raw = variant(text)
        assert raw != text.encode()
        assert _scan_canonical_message(raw) is None
        assert message_outcome(load_quantum_message, raw) == message_outcome(
            load_quantum_message, text.encode()
        )

    @pytest.mark.parametrize("slice_bytes", [1, 1 << 16])
    @pytest.mark.parametrize("old, new", [
        ('"\n  ],', '",\n\n  ],'),  # a trailing comma, then an empty line
        ('"\n  ],', '",\n  ],'),  # a trailing comma
        ('  "states": [\n    "0.000000"', '  "states": [\n'),  # an empty first line
    ], ids=["trailing-comma-empty-line", "trailing-comma", "empty-first"])
    def test_layout_faults_are_refused_as_json_refuses_them(self, old, new, slice_bytes):
        message = QuantumMessage(map(RebitState, (0.0, 90.0)), [0, 1, 1, 0], Basis(0.0))
        text = dump_quantum_message(message)
        raw = text.replace(old, new, 1).encode()
        assert raw != text.encode()
        with mock.patch.object(fileformats, "_SLICE_BYTES", slice_bytes):
            fast = message_outcome(load_quantum_message, raw)
        assert fast[0] is MalformedFile
        assert fast == message_outcome(json_path_load, raw)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller keeps its arguments alive")
    def test_bytes_the_json_path_reads_are_still_freed_before_the_parse(self):
        # test_bytes_handed_to_a_loader_are_freed_before_the_parse now takes
        # the scan; a BOM sends the same document through _decode and json.loads
        text = dump_quantum_message(build_message("01" * 50_000, Basis(0.0)))

        def peak_of_load(make):
            tracemalloc.start()
            try:
                load_quantum_message(make())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _scan_canonical_message(text.encode("utf-8-sig")) is None
        from_text = peak_of_load(lambda: text)
        assert peak_of_load(lambda: text.encode("utf-8-sig")) < from_text + 1.5 * len(text)

    def test_load_allocates_a_fraction_of_the_input(self):
        bits = format(random.Random(5).getrandbits(1 << 19), f"0{1 << 19}b")
        raw = dump_quantum_message(build_message(bits, Basis(0.0))).encode()
        tracemalloc.start()
        try:
            message = load_quantum_message(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(message) == 1 << 19
        # json.loads holds a str per qubit, several times the input's size
        assert peak <= len(raw) / 2

    @pytest.mark.parametrize("theta, state, error", [
        ("90.000000", "45.000000", "writing_basis_theta must lie in [0, 90), got 90.000000"),
        ("0.000000", "180.000000", "state phi must lie in [0, 180), got 180.000000"),
        ("90.000000", "180.000000", "writing_basis_theta must lie in [0, 90), got 90.000000"),
    ], ids=["basis", "state", "both"])
    def test_out_of_range_angles_raise_the_json_path_errors(self, theta, state, error):
        message = QuantumMessage(map(RebitState, (0.0, 90.0)), [0, 1, 1, 0], Basis(0.0))
        text = dump_quantum_message(message)
        text = text.replace('_theta": "0.000000"', f'_theta": "{theta}"')
        raw = text.replace('    "90.000000"', f'    "{state}"').encode()
        assert _scan_canonical_message(raw) is not None
        assert message_outcome(load_quantum_message, raw) == (MalformedFile, error)
        assert message_outcome(json_path_load, raw) == (MalformedFile, error)
