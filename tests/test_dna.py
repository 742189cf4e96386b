"""Pixel <-> four-base word coding."""

import random

import pytest

from dnamagic.dna import (
    BYTE_TO_QUAD,
    NUCLEOTIDES,
    DnaImage,
    decode_quad,
    encode_pixel,
    resynthesize,
    synthesize,
)
from dnamagic.imageio import PlainImage


def oracle_encode(value: int) -> str:
    """Independent route: binary string sliced into bit pairs, table lookup."""
    table = {"00": "C", "01": "T", "10": "A", "11": "G"}
    bits = format(value, "08b")
    return "".join(table[bits[i:i + 2]] for i in range(0, 8, 2))


def test_coding_table_covers_all_two_bit_codes():
    # NUCLEOTIDES[code] is the base of each 2-bit code, one base each
    assert sorted(NUCLEOTIDES) == sorted("ACGT")


def test_encode_pixel_known_values():
    assert encode_pixel(0x00) == "CCCC"
    assert encode_pixel(0xFF) == "GGGG"
    assert encode_pixel(228) == "GATC"  # bit pairs 11 10 01 00


def test_decode_quad_known_values():
    assert decode_quad("CCCC") == 0
    assert decode_quad("GATC") == 228


def test_bijection_against_oracle_all_256():
    quads = [encode_pixel(v) for v in range(256)]
    assert quads == [oracle_encode(v) for v in range(256)]
    assert len(set(quads)) == 256
    for v in range(256):
        assert decode_quad(quads[v]) == v


def test_byte_to_quad_table_matches_function():
    assert list(BYTE_TO_QUAD) == [encode_pixel(v) for v in range(256)]


def test_encode_pixel_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_pixel(256)
    with pytest.raises(ValueError):
        encode_pixel(-1)


def test_decode_quad_rejects_garbage():
    with pytest.raises(ValueError):
        decode_quad("GAT")
    with pytest.raises(ValueError):
        decode_quad("GATN")


def test_synthesize_known_values():
    assert synthesize(PlainImage(1, 1, bytes([0]))).quads == ("CCCC",)
    assert synthesize(PlainImage(2, 1, bytes([255, 228]))).quads == ("GGGG", "GATC")


def test_synthesize_preserves_dimensions():
    rng = random.Random(1)
    img = PlainImage(6, 3, rng.randbytes(18))
    dna = synthesize(img)
    assert (dna.width, dna.height) == (6, 3)
    assert len(dna.quads) == 18


def test_resynthesize_known_values():
    assert resynthesize(DnaImage(1, 1, ("GGGG",))).pixels == bytes([255])
    assert resynthesize(DnaImage(1, 1, ("GATC",))).pixels == bytes([228])


def test_round_trip_random_images():
    rng = random.Random(2)
    for _ in range(50):
        img = PlainImage(8, 8, rng.randbytes(64))
        assert resynthesize(synthesize(img)) == img


def test_dna_image_validates_cell_count():
    with pytest.raises(ValueError):
        DnaImage(2, 2, ("CCCC",))
