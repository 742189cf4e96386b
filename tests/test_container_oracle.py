"""Differential test: the DMC1 codec against a frozen copy on plain field tuples.

`oracle_serialize` and `oracle_deserialize` are `serialize` and
`deserialize` as they stood while `CipherImage` declared its own cells, kept
verbatim except that a container is the tuple (width, height, pointers,
flags, fingerprint).  The library and the oracle must give the same bytes or
fields, or the same error type and message: for cells, flags, widths and
fingerprints in and out of range, a fingerprint flag that disagrees with the
fingerprint field, and valid, truncated, mutated and arbitrary bytes.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from dnamagic.cipher import CipherImage, deserialize, serialize
from dnamagic.errors import BadMagic, DimensionError, TruncatedPayload, UnsupportedVersion

CONTAINER_MAGIC = b"DMC1"
CONTAINER_VERSION = 1
FLAG_FINGERPRINT = 0x01
_HEADER = struct.Struct("<4sBBII")


def _check_dimensions(width: int, height: int) -> None:
    if width != height or width < 4 or width % 4 != 0:
        raise DimensionError(width, height)


def _pack(fmt: str, field: str, values: tuple[int, ...]) -> bytes:
    try:
        return struct.pack(fmt, *values)
    except struct.error as exc:
        raise ValueError(f"{field} does not fit the DMC1 container: {exc}") from None


def oracle_serialize(fields: tuple) -> bytes:
    width, height, pointers, flags, fingerprint = fields
    if bool(flags & FLAG_FINGERPRINT) != (fingerprint is not None):
        raise ValueError("fingerprint flag and fingerprint field disagree")
    parts = [CONTAINER_MAGIC, bytes([CONTAINER_VERSION]),
             _pack("<B", "flags", (flags,)),
             _pack("<I", "width", (width,)),
             _pack("<I", "height", (height,))]
    if fingerprint is not None:
        parts.append(_pack("<Q", "fingerprint", (fingerprint,)))
    parts.append(_pack(f"<{len(pointers)}H", "cell", pointers))
    return b"".join(parts)


def oracle_deserialize(data: bytes) -> tuple:
    if len(data) < _HEADER.size:
        raise TruncatedPayload(_HEADER.size, len(data))
    magic, version, flags, width, height = _HEADER.unpack_from(data, 0)
    if magic != CONTAINER_MAGIC:
        raise BadMagic(magic)
    if version != CONTAINER_VERSION:
        raise UnsupportedVersion(version)
    _check_dimensions(width, height)
    pos = _HEADER.size
    fingerprint = None
    if flags & FLAG_FINGERPRINT:
        if len(data) < pos + 8:
            raise TruncatedPayload(pos + 8, len(data))
        (fingerprint,) = struct.unpack_from("<Q", data, pos)
        pos += 8
    count = width * height
    if len(data) < pos + 2 * count:
        raise TruncatedPayload(pos + 2 * count, len(data))
    pointers = struct.unpack_from(f"<{count}H", data, pos)
    return width, height, pointers, flags, fingerprint


def outcome(call, *args):
    """The value call returns, its fields for a CipherImage, or its error's type and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, CipherImage):
        return value.width, value.height, value.pointers, value.flags, value.fingerprint
    return value


cells = st.integers(0, 65535) | st.sampled_from([-1, 65536, 70000])
sides = st.sampled_from([0, 1, 4, 8, -1, 2**32 - 1, 2**32])


@st.composite
def containers(draw):
    """Field tuples whose cell count matches width x height, values in and out of range."""
    width, height = draw(st.tuples(sides, sides).filter(lambda wh: 0 <= wh[0] * wh[1] <= 64))
    pointers = tuple(draw(st.lists(cells, min_size=width * height, max_size=width * height)))
    flags = draw(st.integers(0, 255) | st.sampled_from([-1, 256]))
    fingerprint = draw(st.none() | st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64]))
    return width, height, pointers, flags, fingerprint


@settings(max_examples=400, deadline=None)
@given(fields=containers())
def test_serialize_matches_the_oracle(fields):
    assert outcome(serialize, CipherImage(*fields)) == outcome(oracle_serialize, fields)


@st.composite
def valid_blobs(draw):
    """Containers the oracle writes: 4x4 or 8x8, any flags, with and without a fingerprint."""
    side = draw(st.sampled_from([4, 8]))
    pointers = draw(st.lists(st.integers(0, 65535), min_size=side * side, max_size=side * side))
    fingerprint = draw(st.none() | st.integers(0, 2**64 - 1))
    flags = draw(st.integers(0, 255)) & ~FLAG_FINGERPRINT | (fingerprint is not None)
    return oracle_serialize((side, side, tuple(pointers), flags, fingerprint))


def truncated(blob: bytes):
    return st.integers(0, len(blob)).map(lambda k: blob[:k])


def mutated(blob: bytes):
    """blob with a span of up to 8 bytes replaced by up to 8 arbitrary bytes."""
    return st.tuples(st.integers(0, len(blob)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: blob[:t[0]] + t[2] + blob[t[0] + t[1]:])


container_bytes = st.one_of(
    valid_blobs(),
    valid_blobs().flatmap(truncated),
    valid_blobs().flatmap(mutated),
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: CONTAINER_MAGIC + b),
)


@settings(max_examples=600, deadline=None)
@given(data=container_bytes)
def test_deserialize_matches_the_oracle(data):
    assert outcome(deserialize, data) == outcome(oracle_deserialize, data)
