"""DNA digital coding: two bits per base, four bases per 8-bit pixel.

Coding table: C=00, T=01, A=10, G=11.  A pixel splits into four 2-bit
groups, most significant first, so 228 (11 10 01 00) reads as GATC.
"""

from dataclasses import dataclass

from .imageio import PlainImage

NUCLEOTIDES = "CTAG"  # indexed by 2-bit code
CODE_OF = {base: code for code, base in enumerate(NUCLEOTIDES)}


def encode_pixel(value: int) -> str:
    """Map an 8-bit intensity to its four-base word."""
    if not 0 <= value <= 255:
        raise ValueError(f"pixel value out of range: {value}")
    return "".join(NUCLEOTIDES[(value >> shift) & 0b11] for shift in (6, 4, 2, 0))


# precomputed both ways; the byte<->quad map is a bijection over all 256 values
BYTE_TO_QUAD: tuple[str, ...] = tuple(encode_pixel(v) for v in range(256))
QUAD_TO_BYTE: dict[str, int] = {quad: value for value, quad in enumerate(BYTE_TO_QUAD)}


def decode_quad(quad: str) -> int:
    """Inverse of encode_pixel."""
    try:
        return QUAD_TO_BYTE[quad]
    except KeyError:
        raise ValueError(f"not a four-base word over ACGT: {quad!r}") from None


@dataclass(frozen=True)
class DnaImage:
    """Grid of four-base words, one per pixel, row-major."""

    width: int
    height: int
    quads: tuple[str, ...]

    def __post_init__(self):
        if len(self.quads) != self.width * self.height:
            raise ValueError(
                f"quad count {len(self.quads)} does not match {self.width}x{self.height}"
            )


def synthesize(image: PlainImage) -> DnaImage:
    """Encode every pixel; dimensions are preserved."""
    return DnaImage(image.width, image.height, tuple(BYTE_TO_QUAD[p] for p in image.pixels))


def resynthesize(dna: DnaImage) -> PlainImage:
    """Decode every word back to a pixel; inverse of synthesize."""
    return PlainImage(dna.width, dna.height, bytes(QUAD_TO_BYTE[q] for q in dna.quads))
