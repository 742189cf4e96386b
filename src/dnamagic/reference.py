"""Shared-key sequence handling: FASTA ingestion, 4-mer occurrence indexing,
and key fingerprinting.

The cipher draws pointers from a fixed window of 65536 start positions, so
every pointer fits in 16 bits.  A usable key therefore needs at least
65540 bases (every windowed start position must begin a full 4-mer, plus one
spare).  Bases past position 65539 never influence encryption or the
fingerprint.
"""

import re
import warnings
from dataclasses import dataclass

from .dna import BYTE_TO_QUAD, QUAD_TO_BYTE
from .errors import EmptySequence, InvalidSymbol, QuadCoverageError, SequenceTooShort

WINDOW_STARTS = 65536
MIN_KEY_LENGTH = WINDOW_STARTS + 4

# FNV-1a, 64-bit, published constants
FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# re's \s is exactly str.isspace, and only ACGTacgt upper-case into ACGT
_INVALID_SYMBOL = re.compile(r"[^\sACGTacgt]")
_NON_BASES = re.compile(r"[^ACGTacgt]+")
_NON_ACGT = re.compile(r"[^ACGT]")


class SingleOccurrenceWarning(UserWarning):
    """Some 4-mer occurs exactly once in the key window, so its substitution
    degenerates to a fixed one-to-one mapping."""


@dataclass(frozen=True)
class NucleotideSequence:
    """Upper-case A/C/G/T sequence with the label of its originating record."""

    bases: str
    source_name: str = ""

    def __post_init__(self):
        if _NON_ACGT.search(self.bases):
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
    text = data.decode("latin-1") if isinstance(data, (bytes, bytearray)) else data

    name = ""
    body: list[str] = []
    offset = 0
    for line in text.split("\n"):
        if line.startswith(">"):
            name = name or line[1:].strip()
        elif mode == "strict" and (bad := _INVALID_SYMBOL.search(line)):
            raise InvalidSymbol(offset + bad.start(), bad.group())
        else:
            body.append(line)
        offset += len(line) + 1

    bases = _NON_BASES.sub("", "".join(body)).upper()
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


def scan_index(seq: NucleotideSequence) -> KmerIndex:
    """Single scan over start positions 0..65535; quads with zero occurrences
    are allowed here (build_key enforces coverage)."""
    if len(seq.bases) < MIN_KEY_LENGTH:
        raise SequenceTooShort(len(seq.bases), MIN_KEY_LENGTH)
    positions: list[list[int]] = [[] for _ in range(256)]
    bases = seq.bases
    for p in range(WINDOW_STARTS):
        # scan order keeps every occurrence list strictly increasing
        positions[QUAD_TO_BYTE[bases[p:p + 4]]].append(p)
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
