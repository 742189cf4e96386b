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

from .errors import PointerOutOfRange
from .imageio import PlainImage
from .reference import ReferenceKey, WINDOW_STARTS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# outputs() computes a block of draws in two ints, one for the even-numbered
# draws and one for the odd-numbered ones, one 128-bit lane per draw: a lane
# holds a 64-bit value, so a product by a 64-bit constant still fits in it and
# never carries into the next lane
_BLOCK = 4096
_LANES = _BLOCK // 2  # lanes per half block
_LANE_BITS = 128

_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 in every lane
_LOW64 = _ONES * _MASK64


def _steps(first: int) -> int:
    """Lane j holds (first + 2j)*gamma mod 2**64: a little-endian Q and 8 pad bytes per lane."""
    lanes = struct.pack("<" + "Q8x" * _LANES, *range(first, first + _BLOCK, 2))
    return (int.from_bytes(lanes, "little") * _GAMMA) & _LOW64


_EVEN_STEPS = _steps(1)  # draw 2j of a block is the mix of state + (2j+1)*gamma
_ODD_STEPS = _steps(2)


def _mix(z: int, low: int) -> int:
    """splitmix64's output mix of each lane of z, in its low 64 bits; low is 2**64 - 1 per lane."""
    # masked before every shift and product, so no lane reads bits of the next
    # one, and after the last shift, so every lane's high 64 bits are zero
    z = (((z ^ (z >> 30)) & low) * _MIX1) & low
    z = (((z ^ (z >> 27)) & low) * _MIX2) & low
    return (z ^ (z >> 31)) & low


def _little(buffer: array) -> array:
    """buffer's items in little-endian order: itself, or a byteswapped copy on a big-endian host."""
    if sys.byteorder == "big":
        buffer = buffer[:]
        buffer.byteswap()
    return buffer


class RandomStream:
    """Seedable deterministic 64-bit generator (splitmix64 recurrence).

    Not a CSPRNG.  Each randbelow() consumes exactly one 64-bit output and
    reduces it modulo n; for the ranges used here (n <= 65536) the modulo
    bias is below 2**-48.  Output k depends only on the seed and k, so the
    paired-seed differential count reads the one output it needs by _skip.
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
        4096 outputs is computed at once: its even- and odd-numbered draws
        in the 128-bit lanes of two ints, joined so that one to_bytes call
        yields the block's draws in order.
        """
        out = array("Q")
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            even, odd, ones = _EVEN_STEPS, _ODD_STEPS, _ONES
            even_low = odd_low = _LOW64
            if m < _BLOCK:  # only the lanes of m draws
                even_low &= (1 << _LANE_BITS * ((m + 1) // 2)) - 1
                odd_low &= (1 << _LANE_BITS * (m // 2)) - 1
                even, odd, ones = even & even_low, odd & odd_low, ones & even_low
            base = self._state * ones
            even = _mix((even + base) & even_low, even_low)
            odd = _mix((odd + base) & odd_low, odd_low)
            # lane j of the join holds draw 2j in its low 64 bits and draw 2j+1 above
            out.frombytes((even | odd << 64).to_bytes(8 * m, "little"))
            self._skip(m)
        return _little(out)

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
        return cls(_little(buffer))

    def tobytes(self) -> bytes:
        """The cells as little-endian 16-bit bytes."""
        return _little(self.buffer).tobytes()

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
        if isinstance(pointers, Cells):
            return
        if isinstance(pointers, array) and pointers.typecode == "H":
            buffer = array("H", pointers)  # copied whole: every uint16 fits
        else:
            for index, p in enumerate(pointers):
                if not (isinstance(p, int) and 0 <= p < WINDOW_STARTS):
                    raise PointerOutOfRange(index, p)
            buffer = array("H", list(pointers))  # list(): one cell per byte of bytes
        object.__setattr__(self, "pointers", Cells(buffer))


def substitute(image: PlainImage, key: ReferenceKey, rng: RandomStream) -> PointerGrid:
    """Replace every pixel with one of its word's key positions, drawn uniformly.

    Consumes exactly one draw per cell, in row-major order, so identical
    (image, key, seed) triples produce identical grids.  Draw z picks
    options[z % len(options)], which is what rng.randbelow(len(options)) gives.
    The cells are drawn and narrowed one stream block at a time, so no
    n-item list or draw array is held.
    """
    occurrences = key.index.occurrences
    pixels = image.pixels
    n = len(pixels)
    counts = [len(options) for options in occurrences]  # a ReferenceKey covers every value
    buffer = array("H", [0]) * n  # one allocation, filled in place
    for start in range(0, n, _BLOCK):
        part = pixels[start:start + _BLOCK]
        cells = [occurrences[value][z % counts[value]]
                 for value, z in zip(part, rng.outputs(len(part)))]
        try:  # struct packs faster than array("H") converts
            struct.pack_into(f"<{len(cells)}H", buffer, 2 * start, *cells)
        except struct.error:  # PointerGrid names the key position that is not a cell
            rest = n - start - len(cells)
            rng._skip(rest)  # the stream ends past all n draws, as when every cell fits
            return PointerGrid(image.width, image.height, [*buffer[:start], *cells, *bytes(rest)])
    return PointerGrid(image.width, image.height, Cells(_little(buffer)))


def reverse_substitute(grid: PointerGrid, key: ReferenceKey) -> PlainImage:
    """Read back the pixel whose word each pointer names; inverts substitute for any randomness."""
    table = key.decode_table
    cells = grid.pointers.buffer
    pixels = b"".join(bytes([table[p] for p in cells[start:start + _BLOCK]])
                      for start in range(0, len(cells), _BLOCK))
    return PlainImage(grid.width, grid.height, pixels)
