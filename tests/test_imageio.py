"""PGM reading and writing."""

import random

import pytest

from dnamagic.errors import MalformedHeader, TruncatedPayload, UnsupportedMaxval
from dnamagic.imageio import PlainImage, read_pgm, write_pgm


def test_read_p5_minimal():
    img = read_pgm(b"P5 2 2 255 " + bytes([0x00, 0x7F, 0x80, 0xFF]))
    assert (img.width, img.height) == (2, 2)
    assert img.pixels == bytes([0, 127, 128, 255])


def test_read_p2_minimal():
    img = read_pgm(b"P2 1 1 255 42")
    assert img == PlainImage(1, 1, bytes([42]))


def test_p2_and_p5_parse_identically():
    rng = random.Random(3)
    pixels = rng.randbytes(12)
    p5 = b"P5\n4 3\n255\n" + pixels
    p2 = ("P2\n4 3\n255\n" + " ".join(str(v) for v in pixels)).encode()
    assert read_pgm(p5) == read_pgm(p2)


def test_comments_allowed_in_header():
    img = read_pgm(b"P5\n# a comment\n1 1\n# another\n255\n\x2a")
    assert img.pixels == bytes([42])


def test_comments_allowed_between_p2_samples():
    img = read_pgm(b"P2\n2 1\n255\n7 # trailing words\n9")
    assert img.pixels == bytes([7, 9])


def test_maxval_other_than_255_rejected():
    with pytest.raises(UnsupportedMaxval):
        read_pgm(b"P5 1 1 65535 \x00\x00")
    with pytest.raises(UnsupportedMaxval):
        read_pgm(b"P2 1 1 15 3")


def test_bad_magic_rejected():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P6 1 1 255 \x00\x00\x00")
    with pytest.raises(MalformedHeader):
        read_pgm(b"hello")


def test_non_integer_header_token_rejected():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5 one 1 255 \x00")


@pytest.mark.parametrize("data", [
    b"P5 " + b"1" * 5000 + b" 4 255\n",
    b"P5 4 4 " + b"2" * 5000 + b"\n",
    b"P2 1 1 255 " + b"3" * 5000 + b"\n",
], ids=["width", "maxval", "p2-sample"])
def test_integer_longer_than_int_limit_is_malformed(data):
    with pytest.raises(MalformedHeader):
        read_pgm(data)


def test_zero_dimensions_rejected():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5 0 1 255 ")


def test_truncated_p5_payload():
    with pytest.raises(TruncatedPayload) as exc:
        read_pgm(b"P5 2 2 255 \x00\x01\x02")
    assert exc.value.expected == 4
    assert exc.value.actual == 3


def test_truncated_p2_payload():
    with pytest.raises(TruncatedPayload):
        read_pgm(b"P2 2 2 255 1 2 3")


def test_p2_sample_above_maxval_rejected():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P2 1 1 255 300")


def test_trailing_bytes_ignored():
    img = read_pgm(b"P5 1 1 255 \x07extra")
    assert img.pixels == bytes([7])


def test_write_pgm_canonical_form():
    assert write_pgm(PlainImage(1, 1, bytes([0]))) == b"P5\n1 1\n255\n\x00"
    out = write_pgm(PlainImage(2, 2, bytes([0, 127, 128, 255])))
    assert out.endswith(bytes([0x00, 0x7F, 0x80, 0xFF]))
    assert out.startswith(b"P5\n2 2\n255\n")


def test_round_trip_many_sizes():
    rng = random.Random(4)
    sizes = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (8, 8), (16, 9), (31, 33), (128, 128)]
    for w, h in sizes:
        img = PlainImage(w, h, rng.randbytes(w * h))
        assert read_pgm(write_pgm(img)) == img


def test_plain_image_validates_shape():
    with pytest.raises(ValueError):
        PlainImage(2, 2, bytes(3))
    with pytest.raises(ValueError):
        PlainImage(0, 1, b"")
