"""Differential test: read_pgm against a frozen byte-at-a-time PGM lexer.

`oracle_read_pgm` is the reader as it stood before tokens were read with a
regular expression, kept verbatim as the reference for the token rules.  The
two readers must agree on the image, or on the type and message of the
error, for bytes and bytearray inputs: arbitrary bytes, and inputs built
from header tokens, the six separators, '#' comments anywhere, bytes that
are whitespace elsewhere but not here, and digit runs past Python's int
conversion limit.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnamagic.errors import MalformedHeader, TruncatedPayload, UnsupportedMaxval
from dnamagic.imageio import PlainImage, read_pgm

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    if start == pos:
        raise MalformedHeader("unexpected end of input while reading a token")
    return data[start:pos], pos


def _to_int(token: bytes, what: str) -> int:
    if not token.isdigit():
        raise MalformedHeader(f"expected integer {what}, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise MalformedHeader(f"{what} has too many digits ({len(token)})") from None


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    return _to_int(token, what), pos


def oracle_read_pgm(data: bytes) -> PlainImage:
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise MalformedHeader(f"unsupported magic {magic!r}")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(maxval)
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates the maxval from the payload
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise MalformedHeader("missing whitespace before binary payload")
        pos += 1
        payload = data[pos:pos + count]
        if len(payload) < count:
            raise TruncatedPayload(count, len(payload))
        return PlainImage(width, height, bytes(payload))

    pixels = bytearray()
    for _ in range(count):
        try:
            token, pos = _next_token(data, pos)
        except MalformedHeader:
            raise TruncatedPayload(count, len(pixels)) from None
        value = _to_int(token, "sample value")
        if value > maxval:
            raise MalformedHeader(f"sample value {value} exceeds maxval {maxval}")
        pixels.append(value)
    return PlainImage(width, height, bytes(pixels))


def outcome(read, data):
    try:
        image = read(data)
    except Exception as exc:
        return (type(exc), str(exc))
    return (image.width, image.height, image.pixels)


def assert_agree(data: bytes) -> None:
    for value in (data, bytearray(data)):
        assert outcome(read_pgm, value) == outcome(oracle_read_pgm, value)


SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
# whitespace to str.isspace or in Unicode, but token bytes in PGM
NOT_SEPARATORS = [b"\x1c", b"\x1f", b"\x85", b"\xa0"]
COMMENTS = [b"#", b"#c", b"# words 7 9", b"##", b"#\r", b"#\x85"]
NUMBERS = [b"0", b"1", b"2", b"3", b"7", b"9", b"255", b"256", b"0255", b"65535",
           b"1" * 4300, b"1" * 4301, b"0" * 4301]
OTHERS = [b"P2", b"P5", b"P6", b"x", b"one", b"-1", b"+1", b"\x00", b"\xff", b"\xc3\xa9"]

piece = st.sampled_from(SEPARATORS + NOT_SEPARATORS + COMMENTS + NUMBERS + OTHERS)
clean_separator = st.lists(st.sampled_from(SEPARATORS + [b"# c\n", b"#\n"]),
                           min_size=1, max_size=3).map(b"".join)
any_separator = st.lists(st.sampled_from(SEPARATORS + COMMENTS), max_size=4).map(b"".join)


def mostly(good, bad):
    """good about three times in four, else bad."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


@st.composite
def token_built(draw):
    """Magic, width, height, maxval and samples, each slot and separator
    mostly well-formed, then sometimes raw bytes."""
    slots = [draw(mostly(st.sampled_from([b"P2", b"P5"]), piece)),
             draw(mostly(st.sampled_from([b"1", b"2", b"3", b"01"]), piece)),
             draw(mostly(st.sampled_from([b"1", b"2", b"0002"]), piece)),
             draw(mostly(st.just(b"255"), piece))]
    slots += draw(st.lists(mostly(st.sampled_from(NUMBERS[:9]), piece), max_size=8))
    out = [draw(mostly(st.just(b""), any_separator))]
    for slot in slots:
        out += [slot, draw(mostly(clean_separator, any_separator))]
    if draw(st.booleans()):
        out.append(draw(st.binary(max_size=12)))
    return b"".join(out)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64) | st.sampled_from([b"P2", b"P5"]).flatmap(
    lambda magic: st.binary(max_size=64).map(lambda rest: magic + rest)))
def test_arbitrary_bytes_read_as_the_frozen_lexer_reads_them(data):
    assert_agree(data)


@settings(max_examples=400, deadline=None)
@given(data=token_built())
def test_token_built_inputs_read_as_the_frozen_lexer_reads_them(data):
    assert_agree(data)


@settings(max_examples=100, deadline=None)
@given(pieces=st.lists(piece, max_size=40))
def test_token_soup_reads_as_the_frozen_lexer_reads_it(pieces):
    assert_agree(b"P2 2 2 255" + b"".join(pieces))


@pytest.mark.parametrize("read", [read_pgm, oracle_read_pgm], ids=["regex", "frozen"])
def test_comment_running_to_end_of_input_hides_the_sample(read):
    with pytest.raises(TruncatedPayload) as exc:
        read(b"P2 1 1 255 #7")
    assert (exc.value.expected, exc.value.actual) == (1, 0)


@pytest.mark.parametrize("read", [read_pgm, oracle_read_pgm], ids=["regex", "frozen"])
def test_comment_ends_a_token(read):
    assert read(b"P2 2 1 255 7#c\n9").pixels == bytes([7, 9])


@pytest.mark.parametrize("read", [read_pgm, oracle_read_pgm], ids=["regex", "frozen"])
def test_blank_and_comment_lines_after_a_comment_are_skipped(read):
    data = b"P2 2 1 255 # 1 2\n \r\n\t# 3\n#\n\x0c 7 # 4\n9"
    assert read(data).pixels == bytes([7, 9])


@pytest.mark.parametrize("read", [read_pgm, oracle_read_pgm], ids=["regex", "frozen"])
def test_bytearray_token_is_reported_as_given(read):
    with pytest.raises(MalformedHeader, match=r"expected integer width, got bytearray\(b'one'\)"):
        read(bytearray(b"P5 one 1 255 x"))


@pytest.mark.parametrize("data", [
    b"P5" + b" " * 200_000,
    b"P5" + b"#\n" * 100_000,
    b"P2 1 1" + b"\n#" * 100_000 + b"\n255 7",
], ids=["whitespace", "comment-lines", "comments-then-token"])
def test_long_separator_runs_hold_no_backtracking_state(data):
    # a repeated group would keep over 100 bytes of regex state per
    # separator or comment; the reader must stay well below the input size
    tracemalloc.start()
    try:
        outcome(read_pgm, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(data) // 4
