"""The boundary contract of every public callable in qumark.__all__.

For each number, count, bit, code and bytes/str parameter, a wrong type raises
TypeError whose message names the parameter, and an out-of-domain value
raises a QumarkError. Either is raised by qumark's own code, so the
innermost traceback frame lies in the package, never in the stdlib.
Record-typed parameters (bases, sources, rules, messages, secrets) stay
duck-typed, and the per-element checks of an index set or a palette are
left to the constructors that own them, so neither is probed here.
"""

import math
import traceback
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qumark
from qumark import (
    Basis,
    CarrierPayload,
    DecisionRule,
    DerivationParams,
    ImageMeta,
    ObservedMessage,
    QuantumMessage,
    QumarkError,
    RandomSource,
    RebitState,
    SecretKey,
    WatermarkSecret,
)

PACKAGE = Path(qumark.__file__).parent

BASIS = Basis(0.0)
OBSERVED = ObservedMessage("0101", BASIS)
RULE = DecisionRule.wilson(0.99)
SECRET = WatermarkSecret((0, 2), Basis(45.0))
PALETTE = (RebitState(0.0), RebitState(90.0))

# the wrong types each kind of parameter is probed with
NUMBER = [None, True, "1", b"1", object(), [0.5]]
COUNT = [None, True, False, "1", b"1", object(), 1.0, 2.5]
BYTES = [None, True, "1", object(), 1, [1]]
TEXT = [None, True, object(), 1, [1]]  # bytes or str, as the JSON loaders take it
BITS = [None, True, b"01", object(), 1, ["0"]]

# target: the public callable; call: value -> its call with every other
# argument valid; param: the parameter probed; label: how its messages name
# it; wrong: values of a wrong type; bad: values of the right type outside
# its domain
Row = namedtuple("Row", "target call param label wrong bad")

ROWS = [
    Row("noise_attack", lambda v: qumark.noise_attack(OBSERVED, v, RandomSource(1)),
        "flip_rate", "flip rate", NUMBER, [-0.1, 1.5, math.nan]),
    Row("shift_attack", lambda v: qumark.shift_attack(OBSERVED, v, 0),
        "offset", "offset", COUNT, [0, -1, 4]),
    Row("shift_attack", lambda v: qumark.shift_attack(OBSERVED, 1, v),
        "pad_bit", "pad_bit", COUNT, [2, -1]),
    Row("bytes_to_bits", lambda v: qumark.bytes_to_bits(v), "data", "data", BYTES, []),
    Row("bits_to_bytes", lambda v: qumark.bits_to_bytes(v), "bits", "bits", BITS, ["0101", "0120"]),
    Row("ingest_raw", lambda v: qumark.ingest_raw(v), "data", "data", BYTES, [b""]),
    Row("ingest_pgm", lambda v: qumark.ingest_pgm(v), "data", "data", BYTES,
        [b"", b"P6 1 1 255\n\0", b"P5 1 1 255\n"]),
    Row("CarrierPayload", lambda v: CarrierPayload(v, qumark.RAW), "bits", "bits", BITS, ["0a"]),
    Row("ImageMeta", lambda v: ImageMeta(v, 1), "width", "width", COUNT, [0, -1]),
    Row("ImageMeta", lambda v: ImageMeta(1, v), "height", "height", COUNT, [0, -1]),
    Row("dump_secret", lambda v: qumark.dump_secret(SECRET, v),
        "expected_pe", "expected_pe", NUMBER, [-0.1, 1.5, math.nan]),
    Row("load_secret", lambda v: qumark.load_secret(v), "text", "text", TEXT, ["", b"{}", "[1]"]),
    Row("load_quantum_message", lambda v: qumark.load_quantum_message(v), "text", "text", TEXT,
        ["", b"{}", "[1]"]),
    Row("load_observation", lambda v: qumark.load_observation(v), "text", "text", TEXT,
        ["", b"{}", "[1]"]),
    Row("SecretKey", lambda v: SecretKey(v), "data", "key data", BYTES, [b"", bytes(15)]),
    Row("SecretKey", lambda v: SecretKey.generate(v), "seed", "seed", COUNT[1:], [-1]),
    Row("DerivationParams", lambda v: DerivationParams(v, 1), "message_length", "message_length",
        COUNT, [0, -1]),
    Row("DerivationParams", lambda v: DerivationParams(4, v), "mark_count", "mark_count",
        COUNT, [0, -1, 5]),
    Row("DerivationParams", lambda v: DerivationParams(4, 1, v), "eligibility_mask",
        "eligibility mask", BITS[1:], ["01", "0a01", "0000"]),
    Row("Basis", lambda v: Basis(v), "theta", "theta", NUMBER,
        [math.nan, math.inf, -math.inf, 10**400]),
    Row("RebitState", lambda v: RebitState(v), "phi", "phi", NUMBER,
        [math.nan, math.inf, -math.inf, -(10**400)]),
    Row("RandomSource", lambda v: RandomSource(v), "seed", "seed", COUNT[1:], [-1]),
    Row("encode_bit", lambda v: qumark.encode_bit(v, BASIS), "bit", "bit", COUNT, [2, -1]),
    Row("outcome_probability", lambda v: qumark.outcome_probability(RebitState(0.0), BASIS, v),
        "bit", "bit", COUNT, [2, -1]),
    Row("DecisionRule", lambda v: DecisionRule.fixed(v), "tolerance", "tolerance", NUMBER[1:],
        [None, 0.0, 1.0, -0.1, math.nan]),
    Row("DecisionRule", lambda v: DecisionRule.wilson(v), "confidence", "confidence", NUMBER[1:],
        [None, 0.0, 1.0, math.nan]),
    Row("DecisionRule", lambda v: DecisionRule.exact_binomial(v), "confidence", "confidence",
        NUMBER[1:], [None, 0.0, 1.0, math.nan]),
    Row("relative_frequency", lambda v: qumark.relative_frequency(v, 10), "errors", "errors",
        COUNT, [-1, 11]),
    Row("relative_frequency", lambda v: qumark.relative_frequency(0, v), "total", "total",
        COUNT, [0, -1]),
    Row("decide", lambda v: qumark.decide(v, 10, 0.5, RULE), "errors", "errors", COUNT, [-1, 11]),
    Row("decide", lambda v: qumark.decide(0, v, 0.5, RULE), "total", "total", COUNT,
        [0, -1, 10**400]),
    Row("decide", lambda v: qumark.decide(0, 10, v, RULE), "expected_pe", "expected rate", NUMBER,
        [-0.1, 1.5, math.nan]),
    Row("min_sample_size_literal", lambda v: qumark.min_sample_size_literal(v), "pe", "pe",
        NUMBER, [-0.1, 1.5, math.nan]),
    Row("recommended_sample_size", lambda v: qumark.recommended_sample_size(v, 0.0, 0.99, 0.99),
        "pe", "pe", NUMBER, [0, 1, math.nan]),
    Row("recommended_sample_size", lambda v: qumark.recommended_sample_size(0.5, v, 0.99, 0.99),
        "null_rate", "null rate", NUMBER, [1.0, -0.1, math.nan]),
    Row("recommended_sample_size", lambda v: qumark.recommended_sample_size(0.5, 0.0, v, 0.99),
        "confidence", "confidence", NUMBER, [0, 1, math.nan]),
    Row("recommended_sample_size", lambda v: qumark.recommended_sample_size(0.5, 0.0, 0.99, v),
        "power", "power", NUMBER, [0, 1, math.nan]),
    Row("WatermarkSecret", lambda v: WatermarkSecret((0,), BASIS, v), "key", "key", BYTES[1:], []),
    Row("ObservedMessage", lambda v: ObservedMessage(v, BASIS), "bits", "bits", BITS, ["", "2"]),
    Row("QuantumMessage", lambda v: QuantumMessage(PALETTE, v, BASIS), "codes", "codes",
        [None, True, 5, "01", object(), [0.5], [[0]]], [[], [2], [-1], b"\x02"]),
    Row("build_message", lambda v: qumark.build_message(v, BASIS), "bits", "bits", BITS,
        ["", "0 1"]),
    Row("classical_flip_embed",
        lambda v: qumark.classical_flip_embed(v, [0], 0.5, RandomSource(1)),
        "bits", "bits", BITS, ["", "01x"]),
    Row("classical_flip_embed",
        lambda v: qumark.classical_flip_embed("01", [0], v, RandomSource(1)),
        "pe", "flip probability", NUMBER, [-0.1, 1.5, math.nan]),
]

# callables whose every parameter is record-typed, a flag, or checked per
# element by the constructor that owns it; result records and exception
# types are built by the package itself
NOT_PROBED = {
    "AttackOutcome", "AveragingResult", "DecisionOutcome", "QumarkError", "SampleSizeSpec",
    "SmallSampleWarning", "VerificationReport", "averaging_attack",
    "derive_indices", "dump_observation", "dump_quantum_message", "embed", "emit",
    "expected_error_probability", "generate_secret", "measure", "observe", "run_attack_report",
    "verify",
}


def row_id(row):
    return f"{row.target}-{row.param}"


def innermost_file(exc):
    return Path(traceback.extract_tb(exc.__traceback__)[-1].filename)


def take_or_refuse(row, value):
    """Call the row with value: it succeeds, or qumark refuses it as the contract says."""
    try:
        row.call(value)
    except (TypeError, QumarkError) as exc:
        if isinstance(exc, TypeError):
            assert row.label in str(exc), (value, str(exc))
        assert innermost_file(exc).parent == PACKAGE, (value, innermost_file(exc))


def test_every_public_callable_is_probed_or_listed():
    public = {name for name in qumark.__all__ if callable(getattr(qumark, name))}
    probed = {row.target for row in ROWS}
    assert not probed & NOT_PROBED
    assert public == probed | NOT_PROBED


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_a_wrong_type_is_a_type_error_naming_the_parameter(row):
    for value in row.wrong:
        with pytest.raises(TypeError) as info:
            row.call(value)
        assert row.label in str(info.value), (value, str(info.value))
        assert innermost_file(info.value).parent == PACKAGE, value


@pytest.mark.parametrize("row", [row for row in ROWS if row.bad], ids=row_id)
def test_an_out_of_domain_value_is_a_qumark_error(row):
    for value in row.bad:
        with pytest.raises(QumarkError) as info:
            row.call(value)
        assert innermost_file(info.value).parent == PACKAGE, value


ANYTHING = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.builds(object),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    st.sampled_from([b"P5 1 1 255\n\0", b'{"version": 1}', "0" * 8]),
)


@settings(max_examples=400, deadline=None)
@given(row=st.sampled_from(ROWS), value=ANYTHING)
def test_anything_is_taken_or_refused_by_qumark(row, value):
    take_or_refuse(row, value)
