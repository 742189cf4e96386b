"""Library errors: every message is frozen, every error pickles, and an error
raised in a worker process reaches the caller as itself.

The message table was recorded before the error classes shared one
constructor; a reworded message is a deliberate edit here.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import dnamagic
from conftest import assert_pickles, error_classes
from dnamagic.errors import (
    BadMagic,
    DimensionError,
    DnamagicError,
    EmptySequence,
    InvalidSymbol,
    LengthMismatch,
    MalformedHeader,
    NotDoublyEven,
    OrderTooLarge,
    PointerOutOfRange,
    QuadCoverageError,
    SequenceTooShort,
    TruncatedPayload,
    UnsupportedMaxval,
    UnsupportedVersion,
    WrongKey,
    ZeroVariance,
)

NINE_QUADS = ["AAGT", "ACGT", "AGGT", "CAGT", "CCGT", "CGGT", "GAGT", "GCGT", "GGGT"]

MESSAGES = [
    (MalformedHeader, ("unsupported magic b'P6'",), "unsupported magic b'P6'"),
    (UnsupportedMaxval, (65535,), "only maxval 255 is supported, got 65535"),
    (TruncatedPayload, (14, 4), "payload truncated: expected 14, got 4"),
    (InvalidSymbol, (7, "N"), "invalid symbol 'N' at input offset 7"),
    (EmptySequence, (), "no bases found in input"),
    (SequenceTooShort, (100, 1027), "key sequence has 100 bases, need at least 1027"),
    (QuadCoverageError, (["AAAA", "AAAC"],), "2 quads never occur in the key window: AAAA, AAAC"),
    (QuadCoverageError, (NINE_QUADS,),
     "9 quads never occur in the key window: AAGT, ACGT, AGGT, CAGT, CCGT, CGGT, GAGT, GCGT (+1 more)"),
    (NotDoublyEven, (6,), "order must be a multiple of 4 and at least 4, got 6"),
    (OrderTooLarge, (2048, 1024), "order 2048 exceeds the limit of 1024"),
    (LengthMismatch, (16, 15), "length mismatch: expected 16, got 15"),
    (PointerOutOfRange, (3, 70000), "pointer 70000 at cell 3 lies outside the key window"),
    (DimensionError, (5, 4), "image must be square with side a positive multiple of 4, got 5x4"),
    (WrongKey, (0x0123456789ABCDEF, 0xFEDCBA9876543210),
     "ciphertext fingerprint 0x0123456789abcdef does not match key fingerprint 0xfedcba9876543210"),
    (BadMagic, (b"PNG\x89",), "not a DMC1 container (leading bytes b'PNG\\x89')"),
    (UnsupportedVersion, (2,), "unsupported container version 2"),
    (ZeroVariance, ("x",), "series x has zero variance, correlation is undefined"),
]

# One sample value per field name in use; a class with a new field name needs one here.
SAMPLES = {
    "reason": "bad dimensions 0x0", "maxval": 65535, "expected": 14, "actual": 4, "position": 7,
    "char": "N", "actual_length": 100, "required": 1027, "missing": NINE_QUADS, "order": 6,
    "limit": 1024, "index": 3, "value": 70000, "width": 5, "height": 4,
    "embedded": 0x0123456789ABCDEF, "computed": 0xFEDCBA9876543210, "found": b"PNG\x89",
    "version": 2, "which": "x",
}


def test_every_error_class_has_a_frozen_message():
    assert {cls for cls, _, _ in MESSAGES} == set(error_classes())


ROW_IDS = [row[0].__name__ for row in MESSAGES]


@pytest.mark.parametrize("cls, args, message", MESSAGES, ids=ROW_IDS)
def test_message_is_unchanged(cls, args, message):
    assert str(cls(*args)) == message


@pytest.mark.parametrize("cls, args, message", MESSAGES, ids=ROW_IDS)
def test_args_and_attributes_hold_the_arguments(cls, args, message):
    exc = cls(*args)
    assert exc.args == args
    assert [getattr(exc, name) for name in cls.fields] == list(args)


def test_repr_shows_the_arguments():
    assert repr(TruncatedPayload(14, 4)) == "TruncatedPayload(14, 4)"
    assert repr(EmptySequence()) == "EmptySequence()"


def test_quad_coverage_error_keeps_its_own_list():
    missing = ("AAAA", "AAAC")
    exc = QuadCoverageError(missing)
    assert exc.missing == list(missing)
    assert exc.args == (list(missing),)


@pytest.mark.parametrize("cls, args", [(TruncatedPayload, (14,)), (EmptySequence, (1,))])
def test_wrong_argument_count_is_a_type_error(cls, args):
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(cls.fields)} arguments"):
        cls(*args)


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_pickles(cls):
    assert_pickles(cls(*(SAMPLES[name] for name in cls.fields)))


def test_error_raised_in_a_worker_process_reaches_the_caller():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        future = pool.submit(dnamagic.deserialize, b"DMC1")
        with pytest.raises(TruncatedPayload) as caught:
            future.result(timeout=60)
    assert isinstance(caught.value, DnamagicError)
    assert caught.value.actual == 4


def test_an_int_too_long_for_str_reads_as_its_bit_length():
    assert str(TruncatedPayload(10**5000, 3)) == (
        "payload truncated: expected <16610-bit integer>, got 3")
