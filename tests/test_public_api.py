"""The public API is pinned: removing or renaming a public name, reordering
the container's fields, changing its repr or renaming an error's attribute is
a deliberate edit here."""

import dataclasses

import pytest

import dnamagic
from conftest import error_classes
from dnamagic import CipherImage, PointerGrid

PUBLIC_NAMES = [
    "AttackReport", "CipherImage", "CorrelationReport", "DnaImage", "DnamagicError",
    "Histogram", "KmerIndex", "MagicSquare", "NucleotideSequence", "Permutation",
    "PlainImage", "PointerGrid", "RandomStream", "ReferenceKey", "adjacent_correlation",
    "build_key", "chi_square_uniform", "chosen_plaintext_attack", "decode_quad", "decrypt",
    "deserialize", "differential_paired_seed", "differential_sensitivity", "encode_pixel",
    "encrypt", "evaluate_attack", "generate_doubly_even", "high_bytes", "histogram",
    "key_fingerprint", "magic_constant", "parse_fasta", "pearson", "read_pgm", "resynthesize",
    "reverse_substitute", "scramble", "scramble_square", "serialize", "substitute",
    "synthesize", "to_permutation", "unscramble", "write_pgm",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(dnamagic.__all__) == PUBLIC_NAMES
    assert all(hasattr(dnamagic, name) for name in PUBLIC_NAMES)


def test_cipher_image_fields_keep_their_order():
    assert [f.name for f in dataclasses.fields(CipherImage)] == [
        "width", "height", "pointers", "flags", "fingerprint"]


def test_cipher_image_repr_is_unchanged():
    assert repr(CipherImage(4, 4, tuple(range(16)))) == (
        "CipherImage(width=4, height=4, pointers=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
        "13, 14, 15), flags=0, fingerprint=None)")


def test_cipher_image_is_a_pointer_grid_that_never_equals_one():
    cells = tuple(range(16))
    assert issubclass(CipherImage, PointerGrid)
    assert CipherImage(4, 4, cells) != PointerGrid(4, 4, cells)
    assert CipherImage(4, 4, cells) == CipherImage(4, 4, cells, 0, None)
    assert hash(CipherImage(4, 4, cells)) == hash(CipherImage(4, 4, cells))
    with pytest.raises(ValueError, match="^pointer count 15 does not match 4x4$"):
        CipherImage(4, 4, cells[:15])


ERROR_ATTRIBUTES = {
    "BadMagic": ("found",), "DimensionError": ("width", "height"),
    "EmptySequence": (), "InvalidSymbol": ("position", "char"),
    "LengthMismatch": ("expected", "actual"), "MalformedHeader": ("reason",),
    "NotDoublyEven": ("order",), "OrderTooLarge": ("order", "limit"),
    "PointerOutOfRange": ("index", "value"), "QuadCoverageError": ("missing",),
    "SequenceTooShort": ("actual_length", "required"),
    "TruncatedPayload": ("expected", "actual"), "UnsupportedMaxval": ("maxval",),
    "UnsupportedVersion": ("version",), "WrongKey": ("embedded", "computed"),
    "ZeroVariance": ("which",),
}


def test_error_attribute_names_are_pinned():
    """Each error class's public attributes, in positional-argument order."""
    found = {cls.__name__: tuple(vars(cls(*[()] * len(cls.fields)))) for cls in error_classes()}
    assert found == ERROR_ATTRIBUTES
