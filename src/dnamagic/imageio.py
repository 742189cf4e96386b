"""8-bit grayscale image I/O in PGM form (binary P5 and ASCII P2).

Only maxval 255 is accepted: the cipher operates on whole 8-bit pixels.
The writer always emits binary P5 in the canonical form

    P5\\n{width} {height}\\n255\\n{payload}

so byte-level comparisons of written files are deterministic.
"""

from dataclasses import dataclass

from .errors import MalformedHeader, TruncatedPayload, UnsupportedMaxval

_WHITESPACE = b" \t\n\r\x0b\x0c"


@dataclass(frozen=True)
class PlainImage:
    """Row-major 8-bit grayscale raster."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel count {len(self.pixels)} does not match {self.width}x{self.height}"
            )


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


def read_pgm(data: bytes) -> PlainImage:
    """Parse a P5 (binary) or P2 (ASCII) PGM stream.

    Comments ('#' to end of line) are permitted between header tokens.  P2 and
    P5 encodings of the same raster parse to identical images.  Bytes beyond
    the expected payload are ignored.
    """
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


def write_pgm(image: PlainImage) -> bytes:
    """Emit the canonical binary P5 form; read_pgm(write_pgm(img)) == img."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels
