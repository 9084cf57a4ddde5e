"""Property tests for the palette message representation and the flip kernel.

observe and embed run every measurement through one table-lookup kernel over
palette codes. They must reproduce, draw for draw, the per-object reference
kept here: qstate.measure applied to each RebitState in order. The v1 message
file must stay byte-identical to json.dumps of the whole document, and numpy's
MT19937, loaded from the state of random.Random, serves as an independent
oracle for the observe transcript. A RandomSource subclass that overrides
draw sees every draw of all four kernel users. The kernel itself must match
its per-position loop, kept here, draw for draw, and whole-message users
must not hold a list of one entry per position.
"""

import json
import random
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qumark.attacks import noise_attack
from qumark.errors import EmptyMessage, IndexOutOfRange
from qumark.fileformats import _format_angle, dump_quantum_message, load_quantum_message
from qumark.qstate import (
    Basis,
    RandomSource,
    RebitState,
    encode_bit,
    measure,
    outcome_probability,
)
from qumark.watermark import (
    ObservedMessage,
    QuantumMessage,
    WatermarkSecret,
    _flip_kernel,
    build_message,
    classical_flip_embed,
    embed,
    observe,
)

# eigenstates of the usual bases, plus arbitrary angles
STATE_ANGLES = st.one_of(
    st.sampled_from([0.0, 30.0, 45.0, 90.0, 120.0, 135.0]),
    st.floats(0.0, 180.0, exclude_max=True),
)
BASIS_ANGLES = st.one_of(
    st.sampled_from([0.0, 30.0, 45.0]), st.floats(0.0, 90.0, exclude_max=True)
)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


def reference_observe(states, basis, rng):
    return "".join(str(measure(state, basis, rng)) for state in states)


def reference_embed(states, writing, indices, mark, rng):
    states = list(states)
    for i in indices:
        states[i] = encode_bit(measure(states[i], writing, rng), mark)
    return states


def wide_palette(seed, distinct, length):
    """States over `distinct` non-eigenstate angles, each used at least once."""
    rng = random.Random(seed)
    angles = [rng.uniform(0.5, 179.5) for _ in range(distinct)]
    angles += [rng.choice(angles) for _ in range(length - distinct)]
    rng.shuffle(angles)
    return [RebitState(a) for a in angles]


def same_stream_position(a, b):
    return a.draw() == b.draw()


@st.composite
def messages(draw, max_size=64):
    angles = draw(st.lists(STATE_ANGLES, min_size=1, max_size=max_size))
    writing = Basis(draw(BASIS_ANGLES))
    return QuantumMessage([RebitState(a) for a in angles], range(len(angles)), writing)


class TestObserveMatchesReference:
    @PROPERTY
    @given(message=messages(), basis=BASIS_ANGLES, seed=SEEDS)
    def test_small_palettes(self, message, basis, seed):
        basis = Basis(basis)
        kernel_rng, reference_rng = RandomSource(seed), RandomSource(seed)
        observed = observe(message, basis, kernel_rng)
        assert observed.bits == reference_observe(message.states, basis, reference_rng)
        assert same_stream_position(kernel_rng, reference_rng)

    @settings(max_examples=10, deadline=None)
    @given(
        distinct=st.integers(250, 300),
        basis=BASIS_ANGLES,
        seed=SEEDS,
    )
    def test_more_than_256_distinct_angles(self, distinct, basis, seed):
        states = wide_palette(seed, distinct, 600)
        message = QuantumMessage(states, range(len(states)), Basis(0.0))
        assert len(message.palette) == distinct
        assert isinstance(message.codes, bytes if distinct <= 256 else array)
        basis = Basis(basis)
        observed = observe(message, basis, RandomSource(seed))
        assert observed.bits == reference_observe(states, basis, RandomSource(seed))


class TestEmbedMatchesReference:
    @PROPERTY
    @given(message=messages(), mark=BASIS_ANGLES, seed=SEEDS, data=st.data())
    def test_small_palettes(self, message, mark, seed, data):
        mark = Basis(mark)
        assume(mark.is_dissimilar_to(message.writing_basis))
        indices = sorted(data.draw(
            st.sets(st.integers(0, len(message) - 1), min_size=1), label="indices"
        ))
        secret = WatermarkSecret(indices=tuple(indices), mark_basis=mark)
        kernel_rng, reference_rng = RandomSource(seed), RandomSource(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            marked = embed(message, secret, kernel_rng)
        expected = reference_embed(
            message.states, message.writing_basis, indices, mark, reference_rng
        )
        assert [s.phi for s in marked.states] == [s.phi for s in expected]
        assert marked.writing_basis == message.writing_basis
        assert same_stream_position(kernel_rng, reference_rng)

    @settings(max_examples=10, deadline=None)
    @given(distinct=st.integers(254, 258), mark=BASIS_ANGLES, seed=SEEDS)
    def test_palette_growing_past_256(self, distinct, mark, seed):
        # the marking basis adds up to two states, which can push the codes
        # from bytes to array('I')
        mark = Basis(mark)
        writing = Basis(0.0)
        assume(mark.is_dissimilar_to(writing))
        states = wide_palette(seed, distinct, 400)
        secret = WatermarkSecret(indices=tuple(range(0, 400, 3)), mark_basis=mark)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            marked = embed(
                QuantumMessage(states, range(len(states)), writing), secret, RandomSource(seed)
            )
        expected = reference_embed(states, writing, secret.indices, mark, RandomSource(seed))
        assert [s.phi for s in marked.states] == [s.phi for s in expected]
        assert isinstance(marked.codes, bytes if len(marked.palette) <= 256 else array)


def test_constructor_checks_its_codes():
    palette = (RebitState(0.0), RebitState(90.0))
    message = QuantumMessage(palette, [1, 0, 1], Basis(0.0))
    assert [s.phi for s in message.states] == [90.0, 0.0, 90.0]
    for codes in ([0, 2], [-1], [256]):
        with pytest.raises(IndexOutOfRange):
            QuantumMessage(palette, codes, Basis(0.0))
    wide = tuple(RebitState(0.5 * i) for i in range(300))
    for codes in ([-1], [2**32]):
        with pytest.raises(IndexOutOfRange):
            QuantumMessage(wide, codes, Basis(0.0))
    with pytest.raises(EmptyMessage):
        QuantumMessage(palette, [], Basis(0.0))


def test_messages_of_other_lengths_or_writing_bases_differ():
    palette = (RebitState(0.0), RebitState(90.0))
    message = QuantumMessage(palette, [1, 0, 1], Basis(0.0))
    assert message == QuantumMessage(palette[::-1], [0, 1, 0], Basis(0.0))
    assert message != QuantumMessage(palette, [1, 0, 1, 0], Basis(0.0))
    assert message != QuantumMessage(palette, [1, 0, 1], Basis(45.0))


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 256), codes=st.binary(min_size=1, max_size=64))
def test_constructor_checks_bytes_codes_against_the_palette_size(size, codes):
    palette = [RebitState(0.5 * i) for i in range(size)]
    if max(codes) < size:
        assert QuantumMessage(palette, codes, Basis(0.0)).codes == codes
    else:
        with pytest.raises(IndexOutOfRange, match=rf"^palette codes must lie in \[0, {size}\)$"):
            QuantumMessage(palette, codes, Basis(0.0))


# every container a caller may pass codes in, built from a list of ints
CODE_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "range": lambda codes: range(codes[0], codes[0] + len(codes)),
    "generator": lambda codes: (code for code in codes),
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda codes: memoryview(bytes(codes)),
    "array('B')": lambda codes: array("B", codes),
    "array('I')": lambda codes: array("I", codes),
    "numpy int64": lambda codes: np.array(codes, dtype=np.int64),
}
BYTE_CONTAINERS = ("bytes", "bytearray", "memoryview", "array('B')")


@settings(max_examples=150, deadline=None)
@given(
    size=st.sampled_from([2, 256, 257, 300]),
    container=st.sampled_from(sorted(CODE_CONTAINERS)),
    codes=st.lists(st.integers(0, 299), min_size=1, max_size=16)
    | st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=16),
)
def test_constructor_reads_codes_as_ints_whatever_the_container(size, container, codes):
    # bytes() and array() read a buffer's raw bytes: above 256 entries
    # bytes(8) would be two codes, and at most 256 array("I", [1]) four and
    # a numpy int64 array eight per code
    if container in BYTE_CONTAINERS:
        codes = [code % 256 for code in codes]
    expected = list(CODE_CONTAINERS[container](codes))
    palette = [RebitState(0.5 * i) for i in range(size)]
    if max(expected) < size:
        message = QuantumMessage(palette, CODE_CONTAINERS[container](codes), Basis(0.0))
        assert list(message.codes) == expected
    else:
        with pytest.raises(IndexOutOfRange, match=rf"^palette codes must lie in \[0, {size}\)$"):
            QuantumMessage(palette, CODE_CONTAINERS[container](codes), Basis(0.0))


# bytes() would read an int as a length and flatten a buffer of more than
# one dimension; a numpy bool is no int, though tolist() would make it one
NOT_CODES = {
    "int": 5,
    "numpy int64": np.int64(5),
    "0-d numpy array": np.array(5),
    "2-D uint8 array": np.zeros((2, 2), dtype=np.uint8),
    "2-D memoryview": memoryview(bytes(4)).cast("B", (2, 2)),
    "2-D int64 array": np.zeros((2, 2), dtype=np.int64),
    "numpy bool array": np.array([True, False]),
}


@pytest.mark.parametrize("size", [2, 300])
@pytest.mark.parametrize("name", sorted(NOT_CODES))
def test_constructor_refuses_codes_that_are_not_a_flat_iterable(size, name):
    palette = [RebitState(0.5 * i) for i in range(size)]
    got = type(NOT_CODES[name]).__name__
    with pytest.raises(TypeError, match=rf"^codes must be a flat iterable of ints, got {got}$"):
        QuantumMessage(palette, NOT_CODES[name], Basis(0.0))


def test_constructor_streams_an_iterator_of_codes():
    # a list of one code per position alone would take 8 MiB
    palette = (RebitState(0.0), RebitState(90.0))
    tracemalloc.start()
    try:
        QuantumMessage(palette, map(int, bytes(2**20)), Basis(0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


@settings(max_examples=40, deadline=None)
@given(distinct=st.integers(1, 300), repeats=st.integers(0, 300), seed=SEEDS)
def test_constructor_merges_equal_angles(distinct, repeats, seed):
    palette = wide_palette(seed, distinct, distinct + repeats)
    rng = random.Random(seed)
    codes = [rng.randrange(len(palette)) for _ in range(400)]
    message = QuantumMessage(palette, codes, Basis(0.0))
    expanded = QuantumMessage([palette[c] for c in codes], range(len(codes)), Basis(0.0))
    assert message == expanded
    assert [s.phi for s in message.states] == [palette[c].phi for c in codes]
    phis = [s.phi for s in message.palette]
    assert phis == list(dict.fromkeys(s.phi for s in palette))  # first occurrences, in order
    assert isinstance(message.codes, bytes if len(phis) <= 256 else array)


class TestMessageFile:
    @PROPERTY
    @given(message=messages())
    def test_dump_is_the_json_document(self, message):
        document = {
            "version": 1,
            "writing_basis_theta": _format_angle(message.writing_basis.theta, 90.0),
            "states": [_format_angle(state.phi, 180.0) for state in message.states],
        }
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert dump_quantum_message(message) == expected

    @PROPERTY
    @given(message=messages())
    def test_dump_of_load_is_the_identity_on_dumped_text(self, message):
        text = dump_quantum_message(message)
        assert dump_quantum_message(load_quantum_message(text)) == text

    @settings(max_examples=5, deadline=None)
    @given(seed=SEEDS)
    def test_identity_with_more_than_256_distinct_angles(self, seed):
        states = wide_palette(seed, 300, 500)
        text = dump_quantum_message(QuantumMessage(states, range(len(states)), Basis(0.0)))
        loaded = load_quantum_message(text)
        assert isinstance(loaded.codes, array)
        assert dump_quantum_message(loaded) == text

    def test_angles_rounding_up_to_the_period_load_back(self):
        message = QuantumMessage([RebitState(180.0 - 1e-7)], [0], Basis(90.0 - 1e-7))
        document = json.loads(dump_quantum_message(message))
        assert document["states"] == ["0.000000"]
        assert document["writing_basis_theta"] == "0.000000"
        text = dump_quantum_message(message)
        assert dump_quantum_message(load_quantum_message(text)) == text

    def test_strings_naming_one_angle_share_a_code(self):
        text = json.dumps({
            "version": 1,
            "writing_basis_theta": "0.000000",
            "states": ["45.000000", "45.0", "90.000000", "45"],
        })
        loaded = load_quantum_message(text)
        assert len(loaded.palette) == 2
        assert json.loads(dump_quantum_message(loaded))["states"] == [
            "45.000000", "45.000000", "90.000000", "45.000000",
        ]


class TestNumpyOracle:
    @PROPERTY
    @given(message=messages(max_size=256), basis=BASIS_ANGLES, seed=SEEDS)
    def test_mt19937_reproduces_the_observe_transcript(self, message, basis, seed):
        basis = Basis(basis)
        observed = observe(message, basis, RandomSource(seed))
        _version, internal, _gauss = random.Random(seed).getstate()
        oracle = np.random.RandomState()
        oracle.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
        draws = oracle.random_sample(len(message))
        read0 = np.array([outcome_probability(s, basis, 0) for s in message.states])
        assert observed.bits == "".join(np.where(draws < read0, "0", "1"))


class RecordingSource(RandomSource):
    """A source that keeps every draw it hands out, through an overriding draw."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.drawn = []

    def draw(self):
        value = super().draw()
        self.drawn.append(value)
        return value


def reference_kernel(codes, positions, threshold, below, above, rng):
    """The flip kernel as one Python step per position, in place over a list."""
    codes = list(codes)
    draw = rng.draw
    for i in range(len(codes)) if positions is None else positions:
        c = codes[i]
        codes[i] = below[c] if draw() < threshold[c] else above[c]
    return codes


# certain outcomes at the ends, a coin in between
THRESHOLDS = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
)


@st.composite
def kernel_inputs(draw):
    """Tables for a palette and codes in runs both shorter and longer than 64."""
    size = draw(st.one_of(st.integers(1, 6), st.integers(250, 300)), label="palette size")
    ceiling = draw(st.sampled_from([2, 256, 257, 2**32]), label="new codes below")
    # each table repeats a few drawn entries, so a wide palette stays cheap to draw
    tables = [
        [entries[i % len(entries)] for i in range(size)]
        for entries in (
            draw(st.lists(kind, min_size=1, max_size=5))
            for kind in (THRESHOLDS, st.integers(0, ceiling - 1), st.integers(0, ceiling - 1))
        )
    ]
    runs = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.one_of(st.integers(1, 63), st.integers(64, 200))),
        min_size=1, max_size=12,
    ))
    codes = [code for code, length in runs for _ in range(length)]
    return (bytes(codes) if size <= 256 else array("I", codes)), *tables


@settings(max_examples=200, deadline=None)
@given(inputs=kernel_inputs(), seed=SEEDS, data=st.data())
def test_the_kernel_matches_the_per_position_loop(inputs, seed, data):
    codes, threshold, below, above = inputs
    positions = data.draw(
        st.none() | st.lists(st.integers(0, len(codes) - 1), max_size=300, unique=True),
        label="positions",
    )
    kernel_rng, reference_rng = RecordingSource(seed), RecordingSource(seed)
    got = _flip_kernel(codes, positions, threshold, below, above, kernel_rng)
    assert list(got) == reference_kernel(codes, positions, threshold, below, above, reference_rng)
    assert kernel_rng.drawn == reference_rng.drawn
    assert len(kernel_rng.drawn) == len(codes if positions is None else positions)
    narrow = isinstance(codes, bytes) and max(below + above) < 256
    assert type(got) is (bytearray if narrow else list)


PLAIN = "".join(random.Random(9).choice("01") for _ in range(3000))
WRITING = Basis(0.0)
MARKS = WatermarkSecret(range(1, 3000, 7), Basis(30.0))
# marks 200 apart leave stretches of certain codes in the writing basis
SPARSE_MARKS = WatermarkSecret(range(100, 3000, 200), Basis(30.0))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    MARKED = embed(build_message(PLAIN, WRITING), MARKS, RandomSource(5))
    SPARSE_MARKED = embed(build_message(PLAIN, WRITING), SPARSE_MARKS, RandomSource(5))

# each kernel user, and the draws it makes
KERNEL_USERS = {
    "observe": (lambda rng: observe(MARKED, Basis(20.0), rng), len(PLAIN)),
    "embed": (lambda rng: embed(MARKED, MARKS, rng), len(MARKS.indices)),
    "classical_flip_embed": (
        lambda rng: classical_flip_embed(PLAIN, MARKS.indices, 0.25, rng), len(MARKS.indices)
    ),
    "observe_sparse_in_writing_basis": (
        lambda rng: observe(SPARSE_MARKED, WRITING, rng), len(PLAIN)
    ),
    "noise_attack": (
        lambda rng: noise_attack(ObservedMessage(PLAIN, WRITING), 0.1, rng), len(PLAIN)
    ),
    # every bit is certain to stay or to flip
    "noise_attack_rate_0": (
        lambda rng: noise_attack(ObservedMessage(PLAIN, WRITING), 0.0, rng), len(PLAIN)
    ),
    "noise_attack_rate_1": (
        lambda rng: noise_attack(ObservedMessage(PLAIN, WRITING), 1.0, rng), len(PLAIN)
    ),
}


class TestSubclassTranscript:
    @pytest.mark.parametrize("user", sorted(KERNEL_USERS))
    @pytest.mark.parametrize("seed", [0, 41, 2**40 + 3])
    def test_an_overriding_draw_sees_the_base_stream(self, user, seed):
        run, draws = KERNEL_USERS[user]
        recording = RecordingSource(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(recording) == run(RandomSource(seed))
        base = RandomSource(seed)
        assert recording.drawn == [base.draw() for _ in range(draws)]


BIG = 1 << 20
BIG_BITS = format(random.Random(11).getrandbits(BIG), f"0{BIG}b")
BIG_MESSAGE = build_message(BIG_BITS, WRITING)
BIG_MARKS = WatermarkSecret(sorted(random.Random(12).sample(range(BIG), 1024)), Basis(45.0))
BIG_MARKED = embed(BIG_MESSAGE, BIG_MARKS, RandomSource(1))
BIG_OBSERVED = ObservedMessage(BIG_BITS, WRITING)

# a list of one code per position alone would take 8 MiB
USERS_AT_2_20 = {
    "embed": lambda: embed(BIG_MESSAGE, BIG_MARKS, RandomSource(1)),
    "observe": lambda: observe(BIG_MARKED, WRITING, RandomSource(2)),
    "noise_attack": lambda: noise_attack(BIG_OBSERVED, 0.1, RandomSource(3)),
}


@pytest.mark.parametrize("user", sorted(USERS_AT_2_20))
def test_a_kernel_user_peaks_within_6_mib_at_2_20_qubits(user):
    tracemalloc.start()
    try:
        USERS_AT_2_20[user]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
