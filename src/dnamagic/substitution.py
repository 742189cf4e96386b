"""One-to-many substitution: each four-base word becomes one of its occurrence
positions in the key window, chosen at random; reading the word back at the
pointed-to position inverts it for any choice of randomness.
"""

import secrets
from dataclasses import dataclass

from .dna import BYTE_TO_QUAD, QUAD_TO_BYTE
from .errors import PointerOutOfRange, QuadNotCovered
from .imageio import PlainImage
from .reference import ReferenceKey, WINDOW_STARTS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
            seed = secrets.randbits(64)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self._state = seed

    def next64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError(f"range must be positive, got {n}")
        return self.next64() % n


@dataclass(frozen=True)
class PointerGrid:
    """Row-major grid of 16-bit positions into the key window."""

    width: int
    height: int
    pointers: tuple[int, ...]

    def __post_init__(self):
        if len(self.pointers) != self.width * self.height:
            raise ValueError(
                f"pointer count {len(self.pointers)} does not match {self.width}x{self.height}"
            )


def substitute(image: PlainImage, key: ReferenceKey, rng: RandomStream) -> PointerGrid:
    """Replace every pixel with one of its word's key positions, drawn uniformly.

    Consumes exactly one draw per cell, in row-major order, so identical
    (image, key, seed) triples produce identical grids.
    """
    occurrences = key.index.occurrences
    pointers = []
    for value in image.pixels:
        options = occurrences[value]
        if not options:
            # unreachable for keys produced by build_key, which enforces coverage
            raise QuadNotCovered(BYTE_TO_QUAD[value])
        pointers.append(options[rng.randbelow(len(options))])
    return PointerGrid(image.width, image.height, tuple(pointers))


def reverse_substitute(grid: PointerGrid, key: ReferenceKey) -> PlainImage:
    """Read back the pixel whose word each pointer names; inverts substitute for any randomness."""
    bases = key.sequence.bases
    pixels = bytearray()
    for i, p in enumerate(grid.pointers):
        if not 0 <= p < WINDOW_STARTS:
            raise PointerOutOfRange(i, p)
        pixels.append(QUAD_TO_BYTE[bases[p:p + 4]])
    return PlainImage(grid.width, grid.height, bytes(pixels))
