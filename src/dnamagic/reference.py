"""Shared-key sequence handling: FASTA ingestion, the window's position->pixel
table, 4-mer occurrence indexing, and key fingerprinting.

The cipher draws pointers from a fixed window of 65536 start positions, so
every pointer fits in 16 bits.  A usable key therefore needs at least
65540 bases (every windowed start position must begin a full 4-mer, plus one
spare).  Bases past position 65539 never influence encryption or the
fingerprint.
"""

import re
import warnings
from dataclasses import dataclass
from functools import cached_property

from .dna import BYTE_TO_QUAD, NUCLEOTIDES
from .errors import EmptySequence, InvalidSymbol, QuadCoverageError, SequenceTooShort

WINDOW_STARTS = 65536
MIN_KEY_LENGTH = WINDOW_STARTS + 4

# FNV-1a, 64-bit, published constants
FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# re's \s is exactly str.isspace, and only ACGTacgt upper-case into ACGT
_INVALID_SYMBOL = re.compile(r"[^\sACGTacgt]")
# byte-level forms of the same rules, for one translate pass per record body
_UPPER = bytes.maketrans(b"acgt", b"ACGT")
_NON_BASES = bytes(b for b in range(256) if b not in b"ACGTacgt")
_ALLOWED = b"ACGTacgt" + bytes(b for b in range(256) if chr(b).isspace())

_BASE_CODES = bytes.maketrans(NUCLEOTIDES.encode("ascii"), bytes(range(4)))  # 2-bit codes


class SingleOccurrenceWarning(UserWarning):
    """Some 4-mer occurs exactly once in the key window, so its substitution
    degenerates to a fixed one-to-one mapping."""


@dataclass(frozen=True)
class NucleotideSequence:
    """Upper-case A/C/G/T sequence with the label of its originating record."""

    bases: str
    source_name: str = ""

    def __post_init__(self):
        if not self.bases.isascii() or self.bases.encode("ascii").translate(None, b"ACGT"):
            bad = sorted(set(self.bases) - set("ACGT"))
            raise ValueError(f"sequence contains symbols outside ACGT: {bad}")

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class KmerIndex:
    """For each of the 256 quad byte values, the sorted start positions where
    that quad occurs within the window."""

    occurrences: tuple[tuple[int, ...], ...]
    min_multiplicity: int


@dataclass(frozen=True)
class ReferenceKey:
    sequence: NucleotideSequence
    index: KmerIndex
    fingerprint: int

    @cached_property
    def decode_table(self) -> bytes:
        """pixel_table of the key's bases, built on first use and then kept with the key."""
        return pixel_table(self.sequence.bases)


def parse_fasta(data: bytes | str, mode: str = "strict") -> NucleotideSequence:
    """Concatenate the bases of every record in a FASTA stream.

    Only LF ends a line; a line starting with '>' is a header, and the first
    non-empty header names the result.  Whitespace (str.isspace) is dropped
    and lower-case bases are upper-cased.  In "strict" mode any other symbol
    raises InvalidSymbol carrying its offset in the input (in characters for
    str); "sanitize" mode drops such symbols silently.
    """
    if mode not in ("strict", "sanitize"):
        raise ValueError(f"unknown mode {mode!r}")
    # one byte per character keeps offsets; symbols past U+00FF become "?",
    # which is not a base, and their original text is read back from data
    raw = data.encode("latin-1", "replace") if isinstance(data, str) else data

    def text(start: int, stop: int) -> str:
        return data[start:stop] if isinstance(data, str) else raw[start:stop].decode("latin-1")

    name = ""
    chunks: list[str] = []  # decoded per record, so no whole-key bytes copy is made
    start = 0
    while start < len(raw):
        if raw.startswith(b">", start):
            stop = raw.find(b"\n", start)
            stop = len(raw) if stop < 0 else stop
            name = name or text(start + 1, stop).strip()
        else:
            # a record body runs up to the next line that starts with '>'
            stop = raw.find(b"\n>", start)
            stop = len(raw) if stop < 0 else stop
            body = raw[start:stop]
            if mode == "strict" and body.translate(None, _ALLOWED):
                # some byte is neither a base nor latin-1 whitespace; search
                # the original text, where wide whitespace is still allowed
                if bad := _INVALID_SYMBOL.search(text(start, stop)):
                    raise InvalidSymbol(start + bad.start(), bad.group())
            chunks.append(body.translate(_UPPER, _NON_BASES).decode("ascii"))
        start = stop + 1

    bases = "".join(chunks)
    if not bases:
        raise EmptySequence()
    return NucleotideSequence(bases, source_name=name)


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit checksum (non-cryptographic)."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def key_fingerprint(seq: NucleotideSequence) -> int:
    """Checksum of the first MIN_KEY_LENGTH base symbols as ASCII bytes.

    Deterministic and independent of anything past position 65539; used only
    to detect a mismatched key at decrypt time, never as key material.
    """
    if len(seq.bases) < MIN_KEY_LENGTH:
        raise SequenceTooShort(len(seq.bases), MIN_KEY_LENGTH)
    return fnv1a_64(seq.bases[:MIN_KEY_LENGTH].encode("ascii"))


def pixel_table(bases: str) -> bytes:
    """The pixel value whose word starts at each of the window's positions."""
    if len(bases) < MIN_KEY_LENGTH:
        raise SequenceTooShort(len(bases), MIN_KEY_LENGTH)
    codes = bases[:WINDOW_STARTS + 3].encode("ascii").translate(_BASE_CODES)
    # one byte lane per position; the 2-bit codes of a word's four bases
    # land in disjoint bits of its lane, so the ORs never carry
    table = 0
    for offset, shift in enumerate((6, 4, 2, 0)):
        table |= int.from_bytes(codes[offset:offset + WINDOW_STARTS], "big") << shift
    return table.to_bytes(WINDOW_STARTS, "big")


def scan_index(seq: NucleotideSequence) -> KmerIndex:
    """Bucket start positions 0..65535 by the pixel value of their word;
    quads with zero occurrences are allowed here (build_key enforces coverage)."""
    positions: list[list[int]] = [[] for _ in range(256)]
    for p, value in enumerate(pixel_table(seq.bases)):
        # scan order keeps every occurrence list strictly increasing
        positions[value].append(p)
    return KmerIndex(
        occurrences=tuple(tuple(lst) for lst in positions),
        min_multiplicity=min(len(lst) for lst in positions),
    )


def build_key(seq: NucleotideSequence) -> ReferenceKey:
    """Index the sequence and verify that every quad can be encrypted.

    Raises QuadCoverageError when any of the 256 quads never occurs in the
    window.  Warns (SingleOccurrenceWarning) when some quad occurs exactly
    once, since its substitution is then deterministic.
    """
    index = scan_index(seq)
    missing = [BYTE_TO_QUAD[v] for v, lst in enumerate(index.occurrences) if not lst]
    if missing:
        raise QuadCoverageError(missing)
    if index.min_multiplicity == 1:
        lonely = [BYTE_TO_QUAD[v] for v, lst in enumerate(index.occurrences) if len(lst) == 1]
        warnings.warn(
            f"quads occurring only once in the key window: {', '.join(lonely)}; "
            "their substitution is deterministic",
            SingleOccurrenceWarning,
            stacklevel=2,
        )
    return ReferenceKey(seq, index, key_fingerprint(seq))
