"""Characterization of the package's frozen value types.

Each record is built positionally and by keyword, compares and hashes by
its fields, shows as ClassName(field=value, ...), refuses assignment and
deletion, and survives pickle and deepcopy. These are the semantics the
records had as frozen dataclasses; the table below pins them class by class.
"""

import copy
import pickle
from array import array
from collections import namedtuple

import pytest

import qumark
from qumark.attacks import AttackOutcome, AveragingResult
from qumark.carrier import CarrierPayload, ImageMeta
from qumark.keys import DerivationParams, SecretKey
from qumark.qstate import Basis, RebitState
from qumark.stats import DecisionOutcome, DecisionRule, SampleSizeSpec
from qumark.watermark import ObservedMessage, QuantumMessage, VerificationReport, WatermarkSecret

# cls: the record; params: its constructor's parameter names; args: a full
# positional argument list; omit: the parameters whose args value is their
# default; other: the args of a record that differs from it; text: its
# repr; fields: the stored fields, in order
Case = namedtuple("Case", "cls params args omit other text fields")

OBSERVED = ObservedMessage("0110", Basis(0.0))
OUTCOME = DecisionOutcome("reject", 0.3, None, None, 0.01)
REPORT = VerificationReport(3, 10, 0.5, OUTCOME)
OTHER_REPORT = VerificationReport(4, 10, 0.5, OUTCOME)
STATES = (RebitState(0.0), RebitState(90.0))

CASES = [
    Case(Basis, ("theta",), (45.0,), (), (30.0,), "Basis(theta=45.0)", ("theta",)),
    Case(RebitState, ("phi",), (100.0,), (), (10.0,), "RebitState(phi=100.0)", ("phi",)),
    Case(
        CarrierPayload, ("bits", "format_tag"), ("0101", "raw"), (), ("0111", "raw"),
        "CarrierPayload(bits='0101', format_tag='raw')", ("bits", "format_tag"),
    ),
    Case(
        ImageMeta, ("width", "height"), (2, 3), (), (3, 2),
        "ImageMeta(width=2, height=3)", ("width", "height"),
    ),
    Case(
        SecretKey, ("data",), (b"k" * 16,), (), (b"j" * 16,),
        "SecretKey(data=b'kkkkkkkkkkkkkkkk')", ("data",),
    ),
    Case(
        DerivationParams, ("message_length", "mark_count", "eligibility_mask"), (10, 2, None),
        ("eligibility_mask",), (10, 3, None),
        "DerivationParams(message_length=10, mark_count=2, eligibility_mask=None)",
        ("message_length", "mark_count", "eligibility_mask"),
    ),
    Case(
        DecisionRule, ("kind", "tolerance", "confidence"), ("wilson_interval", None, 0.99),
        ("tolerance",), ("fixed_tolerance", 0.1, None),
        "DecisionRule(kind='wilson_interval', tolerance=None, confidence=0.99)",
        ("kind", "tolerance", "confidence"),
    ),
    Case(
        DecisionOutcome, ("decision", "statistic", "bound_low", "bound_high", "p_value"),
        ("accept", 0.5, None, None, None), ("bound_low", "bound_high", "p_value"),
        ("accept", 0.5, 0.4, 0.6, None),
        "DecisionOutcome(decision='accept', statistic=0.5, bound_low=None, bound_high=None,"
        " p_value=None)",
        ("decision", "statistic", "bound_low", "bound_high", "p_value"),
    ),
    Case(
        SampleSizeSpec, ("a", "b"), (1, 0), (), (0, 1), "SampleSizeSpec(a=1, b=0)", ("a", "b"),
    ),
    Case(
        QuantumMessage, ("palette", "codes", "writing_basis"), (STATES, (0, 1), Basis(0.0)), (),
        (STATES[::-1], (0, 1), Basis(0.0)),
        r"QuantumMessage(palette=(RebitState(phi=0.0), RebitState(phi=90.0)),"
        r" codes=b'\x00\x01', writing_basis=Basis(theta=0.0))",
        ("palette", "codes", "writing_basis"),
    ),
    Case(
        WatermarkSecret, ("indices", "mark_basis", "key"), ((1, 4), Basis(45.0), None),
        ("key",), ((1, 4), Basis(45.0), b"ab"),
        "WatermarkSecret(indices=(1, 4), mark_basis=Basis(theta=45.0), key=None)",
        ("indices", "mark_basis", "key"),
    ),
    Case(
        ObservedMessage, ("bits", "observation_basis"), ("0110", Basis(0.0)), (),
        ("0111", Basis(0.0)), "ObservedMessage(bits='0110', observation_basis=Basis(theta=0.0))",
        ("bits", "observation_basis"),
    ),
    Case(
        VerificationReport, ("error_count", "sample_size", "expected_pe", "decision_detail"),
        (3, 10, 0.5, OUTCOME), (), (4, 10, 0.5, OUTCOME),
        "VerificationReport(error_count=3, sample_size=10, expected_pe=0.5,"
        " decision_detail=DecisionOutcome(decision='reject', statistic=0.3, bound_low=None,"
        " bound_high=None, p_value=0.01))",
        ("error_count", "sample_size", "expected_pe", "decision_detail"),
    ),
    Case(
        AveragingResult, ("recovered_bits", "disagreement_counts"), ("0110", b"\0\1\1\0"), (),
        ("0110", b"\0\1\0\0"),
        "AveragingResult(recovered_bits='0110', disagreement_counts=b'\\x00\\x01\\x01\\x00')",
        ("recovered_bits", "disagreement_counts"),
    ),
    Case(
        AttackOutcome, ("attacked", "verification_before", "verification_after"),
        (OBSERVED, REPORT, REPORT), (), (OBSERVED, REPORT, OTHER_REPORT),
        "AttackOutcome(attacked=ObservedMessage(bits='0110', observation_basis=Basis(theta=0.0)),"
        f" verification_before={REPORT!r}, verification_after={REPORT!r})",
        ("attacked", "verification_before", "verification_after"),
    ),
]

# Basis, RebitState and QuantumMessage define a tolerant __eq__ of their own
UNHASHABLE = {Basis, RebitState, QuantumMessage}
# records holding a Basis inherit its unhashability through the field tuple
HOLDS_A_BASIS = {WatermarkSecret, ObservedMessage, AttackOutcome}

cases = pytest.mark.parametrize("case", CASES, ids=[case.cls.__name__ for case in CASES])


def test_every_record_is_covered():
    assert len({case.cls for case in CASES}) == 15


@cases
def test_positional_keyword_and_default_construction(case):
    record = case.cls(*case.args)
    keywords = dict(zip(case.params, case.args))
    assert case.cls(**keywords) == record
    defaulted = {name: value for name, value in keywords.items() if name not in case.omit}
    assert case.cls(**defaulted) == record
    assert repr(record) == case.text


# the names a record's repr calls: the package surface, plus array for codes
# of a message whose palette has more than 256 entries
REPR_NAMESPACE = {**vars(qumark), "array": array}


@cases
def test_repr_rebuilds_the_record(case):
    record = case.cls(*case.args)
    assert eval(repr(record), REPR_NAMESPACE) == record


def test_repr_rebuilds_a_message_with_array_codes():
    palette = [RebitState(0.5 * i) for i in range(300)]
    message = QuantumMessage(palette, [299, 0, 257, 1], Basis(0.0))
    assert isinstance(message.codes, array)
    rebuilt = eval(repr(message), REPR_NAMESPACE)
    assert rebuilt == message and repr(rebuilt) == repr(message)
    assert isinstance(rebuilt.codes, array)


@cases
def test_no_field_is_also_a_property(case):
    # a record stores only what can vary; what its fields fix is a property
    assert not any(isinstance(getattr(case.cls, name, None), property) for name in case.cls._fields)


@cases
def test_missing_and_unknown_arguments_raise_type_error(case):
    keywords = dict(zip(case.params, case.args))
    with pytest.raises(TypeError):
        case.cls()
    with pytest.raises(TypeError):
        case.cls(**{name: keywords[name] for name in case.params[1:]})
    with pytest.raises(TypeError):
        case.cls(*case.args, None)
    with pytest.raises(TypeError):
        case.cls(**keywords, bogus=1)
    with pytest.raises(TypeError):
        case.cls(*case.args, **{case.params[0]: case.args[0]})


@cases
def test_equality_is_by_field_and_class(case):
    record, same, other = case.cls(*case.args), case.cls(*case.args), case.cls(*case.other)
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(getattr(record, name) for name in case.fields)
    assert case.cls.__match_args__ == case.fields


@cases
def test_hashing(case):
    record, same = case.cls(*case.args), case.cls(*case.args)
    if case.cls in UNHASHABLE:
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    elif case.cls in HOLDS_A_BASIS:
        with pytest.raises(TypeError, match="unhashable type: 'Basis'"):
            hash(record)
    else:
        assert hash(record) == hash(same)
        assert len({record, same}) == 1


@cases
def test_fields_can_be_neither_assigned_nor_deleted(case):
    record = case.cls(*case.args)
    for name in (*case.fields, "novel"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    for name in case.fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == case.text


@cases
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    record = case.cls(*case.args)
    restored = pickle.loads(pickle.dumps(record, protocol))
    assert type(restored) is case.cls
    assert restored == record and repr(restored) == case.text


@cases
def test_copy_round_trip(case):
    record = case.cls(*case.args)
    for copied in (copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is case.cls
        assert copied == record and repr(copied) == case.text
