"""Encryption and decryption pipelines plus the DMC1 ciphertext container.

Encrypt: pixels -> key positions of their words -> magic-square scramble.
Decrypt runs the exact inverse and is a pure function of (container, key).
Ciphertext keeps the plaintext's spatial dimensions; each cell widens from
8 to 16 bits so pointers into the key window stay unambiguous.

Container layout (all integers little-endian):

    bytes 0-3   magic "DMC1"
    byte  4     format version, currently 1
    byte  5     flags (bit 0: fingerprint present)
    bytes 6-9   width, 32-bit
    bytes 10-13 height, 32-bit
    [bytes 14-21 key fingerprint, 64-bit, only when flag bit 0 is set]
    then width*height cells, 16-bit each, row-major, already scrambled
"""

import struct
from array import array
from dataclasses import dataclass

from .errors import BadMagic, DimensionError, TruncatedPayload, UnsupportedVersion, WrongKey
from .imageio import PlainImage
from .magic_square import scramble_square
# unused here, but perfbench/tracing.py looks these names up on this module
from .dna import resynthesize, synthesize  # noqa: F401
from .magic_square import generate_doubly_even, scramble, to_permutation, unscramble  # noqa: F401
from .reference import ReferenceKey
from .substitution import Cells, PointerGrid, RandomStream, reverse_substitute, substitute

CONTAINER_MAGIC = b"DMC1"
CONTAINER_VERSION = 1
FLAG_FINGERPRINT = 0x01
_HEADER = struct.Struct("<4sBBII")


@dataclass(frozen=True)
class CipherImage(PointerGrid):
    """Scrambled pointer grid with container metadata."""

    flags: int = 0
    fingerprint: int | None = None


def _check_dimensions(width: int, height: int) -> None:
    if width != height or width < 4 or width % 4 != 0:
        raise DimensionError(width, height)


def encrypt(image: PlainImage, key: ReferenceKey, rng: RandomStream,
            include_fingerprint: bool = False) -> CipherImage:
    """Encrypt a square image whose side is a multiple of 4."""
    _check_dimensions(image.width, image.height)
    # the square is public structure derived from the side length, never
    # stored in the container and never key material
    scrambled = scramble_square(substitute(image, key, rng).pointers.buffer, image.width)
    if include_fingerprint:
        return CipherImage(image.width, image.height, scrambled, FLAG_FINGERPRINT, key.fingerprint)
    return CipherImage(image.width, image.height, scrambled)


def decrypt(cipher: CipherImage, key: ReferenceKey) -> PlainImage:
    """Invert encrypt; raises WrongKey when an embedded fingerprint disagrees."""
    # dimensions are validated first, so a malformed header fails as a
    # DimensionError before any cell is rearranged
    _check_dimensions(cipher.width, cipher.height)
    if cipher.flags & FLAG_FINGERPRINT and cipher.fingerprint != key.fingerprint:
        raise WrongKey(cipher.fingerprint or 0, key.fingerprint)
    # reading a cell back commutes with the scramble, its own inverse: unscramble the pixels
    plain = reverse_substitute(cipher, key)
    pixels = scramble_square(array("B", plain.pixels), cipher.width).tobytes()
    return PlainImage(cipher.width, cipher.height, pixels)


def _pack(fmt: str, field: str, values: tuple[int, ...]) -> bytes:
    try:
        return struct.pack(fmt, *values)
    except struct.error as exc:
        raise ValueError(f"{field} does not fit the DMC1 container: {exc}") from None


def serialize(cipher: CipherImage) -> bytes:
    """Emit the container bytes; deterministic byte-for-byte.

    Raises ValueError, naming the field, for a value DMC1 cannot hold: flags
    outside 0..255, a width or height outside 0..2**32-1 or a fingerprint
    outside 0..2**64-1.
    """
    if bool(cipher.flags & FLAG_FINGERPRINT) != (cipher.fingerprint is not None):
        raise ValueError("fingerprint flag and fingerprint field disagree")
    parts = [CONTAINER_MAGIC, bytes([CONTAINER_VERSION]),
             _pack("<B", "flags", (cipher.flags,)),
             _pack("<I", "width", (cipher.width,)),
             _pack("<I", "height", (cipher.height,))]
    if cipher.fingerprint is not None:
        parts.append(_pack("<Q", "fingerprint", (cipher.fingerprint,)))
    parts.append(cipher.pointers.tobytes())
    return b"".join(parts)


def deserialize(data: bytes) -> CipherImage:
    """Exact inverse of serialize; bytes past the payload are ignored."""
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
    pointers = Cells.frombytes(memoryview(data)[pos:pos + 2 * count])
    return CipherImage(width, height, pointers, flags, fingerprint)
