"""One-to-many substitution: each four-base word becomes one of its occurrence
positions in the key window, chosen at random; reading the word back at the
pointed-to position inverts it for any choice of randomness.
"""

import os
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .dna import BYTE_TO_QUAD
from .errors import PointerOutOfRange, QuadNotCovered
from .imageio import PlainImage
from .reference import ReferenceKey, WINDOW_STARTS, pixel_table

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# outputs() computes a block of draws in one int, one 128-bit lane per draw:
# a lane holds a 64-bit value, so a product by a 64-bit constant still fits
# in it and never carries into the next lane
_BLOCK = 4096
_LANE_BITS = 128

_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")  # 1 in every lane
_LOW64 = _ONES * _MASK64
# lane k: (k+1)*gamma mod 2**64, from a little-endian Q and 8 pad bytes per lane
_STEPS = (int.from_bytes(struct.pack("<" + "Q8x" * _BLOCK, *range(1, _BLOCK + 1)), "little")
          * _GAMMA) & _LOW64


def _mix(z: int, low: int) -> int:
    """splitmix64's output mix of each lane of z, in its low 64 bits; low is 2**64 - 1 per lane."""
    # masked before every shift and product, so no lane reads bits of the next one
    z = (((z ^ (z >> 30)) & low) * _MIX1) & low
    z = (((z ^ (z >> 27)) & low) * _MIX2) & low
    return z ^ (z >> 31)


class RandomStream:
    """Seedable deterministic 64-bit generator (splitmix64 recurrence).

    Not a CSPRNG.  Each randbelow() consumes exactly one 64-bit output and
    reduces it modulo n; for the ranges used here (n <= 65536) the modulo
    bias is below 2**-48.  The fixed one-output-per-draw rate keeps two
    streams with equal seeds in lockstep even when asked for different
    ranges, which the paired-seed differential harness relies on.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "little")
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self._state = seed

    def next64(self) -> int:
        """Next raw 64-bit output."""
        return self.outputs(1)[0]

    def outputs(self, n: int) -> array:
        """The next n raw outputs, the same values as n next64() calls.

        Output k depends only on the state and k, so each block of up to
        4096 outputs is computed at once in 128-bit lanes of one int.
        """
        out = array("Q")
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            keep = (1 << (_LANE_BITS * m)) - 1
            low = _LOW64 & keep
            z = _mix(((_STEPS & keep) + self._state * (_ONES & keep)) & low, low)
            words = array("Q", z.to_bytes(_LANE_BITS // 8 * m, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out.extend(words[::2])
            self._skip(m)
        return out

    def _skip(self, n: int) -> None:
        """Move the stream past n outputs without computing them."""
        self._state = (self._state + n * _GAMMA) & _MASK64

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError(f"range must be positive, got {n}")
        return self.next64() % n


class Cells(Sequence):
    """Immutable row-major cells held in one uint16 buffer.

    Equal to, hashed like and shown as the tuple of its values, so a grid
    reads the same whichever way it was built.
    """

    __slots__ = ("buffer",)

    def __init__(self, buffer: array):
        self.buffer = buffer  # array('H'); never written after construction

    @classmethod
    def frombytes(cls, data) -> "Cells":
        """Cells read from little-endian 16-bit bytes."""
        buffer = array("H")
        buffer.frombytes(data)
        if sys.byteorder == "big":
            buffer.byteswap()
        return cls(buffer)

    def tobytes(self) -> bytes:
        """The cells as little-endian 16-bit bytes."""
        if sys.byteorder == "big":
            swapped = self.buffer[:]
            swapped.byteswap()
            return swapped.tobytes()
        return self.buffer.tobytes()

    def __len__(self) -> int:
        return len(self.buffer)

    def __getitem__(self, index):
        item = self.buffer[index]
        return Cells(item) if isinstance(index, slice) else item

    def __iter__(self):
        return iter(self.buffer)

    def __eq__(self, other):
        if isinstance(other, Cells):
            return self.buffer == other.buffer
        if isinstance(other, tuple):
            return tuple(self.buffer) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.buffer))

    def __repr__(self) -> str:
        return repr(tuple(self.buffer))

    def __reduce__(self):
        return Cells, (self.buffer,)


@dataclass(frozen=True)
class PointerGrid:
    """Row-major grid of 16-bit positions into the key window.

    The cells are stored as one uint16 buffer (Cells); the first one that is
    not an int in 0..65535 raises PointerOutOfRange.
    """

    width: int
    height: int
    pointers: Sequence[int]

    def __post_init__(self):
        pointers = self.pointers
        if len(pointers) != self.width * self.height:
            raise ValueError(
                f"pointer count {len(pointers)} does not match {self.width}x{self.height}"
            )
        if not isinstance(pointers, Cells):
            if isinstance(pointers, array) and pointers.typecode != "H":
                pointers = pointers.tolist()  # extend refuses an array of another typecode
            buffer = array("H")
            try:
                # extend copies a uint16 array whole and reads bytes as one cell
                # per byte, where array("H", bytes) would pair them up
                buffer.extend(pointers)
            except (OverflowError, TypeError):
                for index, p in enumerate(pointers):
                    if not (isinstance(p, int) and 0 <= p < WINDOW_STARTS):
                        raise PointerOutOfRange(index, p) from None
                raise
            object.__setattr__(self, "pointers", Cells(buffer))


def first_uncovered(pixels: bytes, counts: Sequence[int]) -> int | None:
    """Index of the first pixel whose value has no key position (counts[value] == 0), or None."""
    # empty for keys produced by build_key, which enforces coverage
    uncovered = [value for value, count in enumerate(counts) if not count and value in pixels]
    return min(map(pixels.index, uncovered)) if uncovered else None


def substitute(image: PlainImage, key: ReferenceKey, rng: RandomStream) -> PointerGrid:
    """Replace every pixel with one of its word's key positions, drawn uniformly.

    Consumes exactly one draw per cell, in row-major order, so identical
    (image, key, seed) triples produce identical grids.  Draw z picks
    options[z % len(options)], which is what rng.randbelow(len(options)) gives.
    """
    occurrences = key.index.occurrences
    pixels = image.pixels
    counts = [len(options) for options in occurrences]
    first = first_uncovered(pixels, counts)
    if first is not None:
        rng._skip(first)  # the cells before it still draw
        raise QuadNotCovered(BYTE_TO_QUAD[pixels[first]])
    pointers = array("H", [occurrences[value][z % counts[value]]
                           for value, z in zip(pixels, rng.outputs(len(pixels)))])
    return PointerGrid(image.width, image.height, pointers)


def reverse_substitute(grid: PointerGrid, key: ReferenceKey) -> PlainImage:
    """Read back the pixel whose word each pointer names; inverts substitute for any randomness."""
    table = pixel_table(key.sequence.bases)
    return PlainImage(grid.width, grid.height, bytes([table[p] for p in grid.pointers]))
