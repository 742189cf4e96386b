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
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise

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
_RECORD_SPLIT = re.compile(rb"\n>")  # a header line starts at the '>'
# byte-level forms of the same rules, for one translate pass per piece of a chunk
_UPPER = bytes.maketrans(b"acgt", b"ACGT")
_NON_BASES = bytes(b for b in range(256) if b not in b"ACGTacgt")
_ALLOWED = b"ACGTacgt" + bytes(b for b in range(256) if chr(b).isspace())

_BASE_CODES = bytes.maketrans(NUCLEOTIDES.encode("ascii"), bytes(range(4)))  # 2-bit codes

# bytes, or characters of a str, that ingestion reads and checks at a time, so
# that beside the bases it holds no more than a few chunks
_CHUNK = 1 << 20


class SingleOccurrenceWarning(UserWarning):
    """Some 4-mer occurs exactly once in the key window, so its substitution
    degenerates to a fixed one-to-one mapping."""


@dataclass(frozen=True)
class NucleotideSequence:
    """Upper-case A/C/G/T sequence with the label of its originating record."""

    bases: str
    source_name: str = ""

    def __post_init__(self):
        bases = self.bases
        if not bases.isascii() or any(bases[i:i + _CHUNK].encode("ascii").translate(None, b"ACGT")
                                      for i in range(0, len(bases), _CHUNK)):
            bad = sorted(set(bases) - set("ACGT"))
            raise ValueError(f"sequence contains symbols outside ACGT: {bad}")

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class KmerIndex:
    """For each of the 256 quad byte values, the sorted start positions where
    that quad occurs within the window."""

    occurrences: tuple[tuple[int, ...], ...]
    min_multiplicity: int


def _words_with(index: KmerIndex, count: int) -> list[str]:
    """The words, in value order, whose value has exactly count positions in index;
    a value past the end of a short index has none."""
    lists = index.occurrences
    return [BYTE_TO_QUAD[v] for v in range(256)
            if len(lists[v] if v < len(lists) else ()) == count]


@dataclass(frozen=True)
class ReferenceKey:
    sequence: NucleotideSequence
    index: KmerIndex
    fingerprint: int

    def __post_init__(self):
        if missing := _words_with(self.index, 0):
            raise QuadCoverageError(missing)

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
    return _parse_chunks((data[i:i + _CHUNK] for i in range(0, len(data), _CHUNK)), mode)


def _parse_chunks(chunks: Iterable[bytes | bytearray | str], mode: str) -> NucleotideSequence:
    """parse_fasta of the chunks' concatenation; lines, headers and records may
    span chunk edges."""
    buffer, name = _buffer_bases(chunks, mode)
    bases = buffer.decode("ascii")
    del buffer  # before the check, so the bases are held only once from here on
    return NucleotideSequence(bases, source_name=name)


def _buffer_bases(chunks: Iterable[bytes | bytearray | str], mode: str) -> tuple[bytearray, str]:
    """The bases of the chunks, one byte each, and the name; no chunk is kept
    once its bases are buffered, and the last goes when this returns."""
    if mode not in ("strict", "sanitize"):
        raise ValueError(f"unknown mode {mode!r}")
    buffer = bytearray()  # every base so far, upper-cased, one byte each
    name = ""
    header: list[str] | None = None  # the text so far of an unfinished header line
    line_start = True  # the next chunk begins a line
    offset = 0  # of the chunk in the input
    for chunk in chunks:
        # one byte per character keeps offsets; symbols past U+00FF become "?",
        # which is not a base, and their original text is read back from chunk
        raw = chunk.encode("latin-1", "replace") if isinstance(chunk, str) else chunk

        def text(start: int, stop: int) -> str:
            return chunk[start:stop] if isinstance(chunk, str) else raw[start:stop].decode("latin-1")

        # pieces of the chunk that each end before the next line that starts with '>'
        edges = chain((0,), (m.end() - 1 for m in _RECORD_SPLIT.finditer(raw)), (len(raw),))
        for start, stop in pairwise(edges):
            if header is None and (start or line_start) and raw.startswith(b">", start):
                header, start = [], start + 1
            if header is not None:
                end = raw.find(b"\n", start, stop)
                if not name:
                    header.append(text(start, stop if end < 0 else end))
                if end < 0:  # the header line goes on in the next chunk
                    continue
                name = name or "".join(header).strip()
                header, start = None, end + 1
            body = raw[start:stop]
            if mode == "strict" and body.translate(None, _ALLOWED):
                # some byte is neither a base nor latin-1 whitespace; search
                # the original text, where wide whitespace is still allowed
                if bad := _INVALID_SYMBOL.search(text(start, stop)):
                    raise InvalidSymbol(offset + start + bad.start(), bad.group())
            buffer += body.translate(_UPPER, _NON_BASES)
        line_start = raw.endswith(b"\n")
        offset += len(raw)

    if header:  # the last line is a header without its LF
        name = name or "".join(header).strip()
    if not buffer:
        raise EmptySequence()
    return buffer, name


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit checksum (non-cryptographic)."""
    # masked once per four bytes, which is exact: XOR with a byte touches only
    # the low 8 bits, and a product's low 64 bits depend only on its factors'
    h, prime = FNV_OFFSET_BASIS, FNV_PRIME
    split = len(data) - len(data) % 4
    quads = iter(data[:split])
    for a, b, c, d in zip(quads, quads, quads, quads):
        h = (((((h ^ a) * prime ^ b) * prime ^ c) * prime ^ d) * prime) & _MASK64
    for byte in data[split:]:
        h = ((h ^ byte) * prime) & _MASK64
    return h


def _window(bases: str) -> bytes:
    """The first MIN_KEY_LENGTH bases as ASCII, the only ones a key is read from."""
    if len(bases) < MIN_KEY_LENGTH:
        raise SequenceTooShort(len(bases), MIN_KEY_LENGTH)
    return bases[:MIN_KEY_LENGTH].encode("ascii")


def key_fingerprint(seq: NucleotideSequence) -> int:
    """Checksum of the first MIN_KEY_LENGTH base symbols as ASCII bytes.

    Deterministic and independent of anything past position 65539; used only
    to detect a mismatched key at decrypt time, never as key material.
    """
    return fnv1a_64(_window(seq.bases))


def pixel_table(bases: str) -> bytes:
    """The pixel value whose word starts at each of the window's positions."""
    codes = _window(bases).translate(_BASE_CODES)
    # one byte lane per position; the 2-bit codes of a word's four bases
    # land in disjoint bits of its lane, so the ORs never carry
    table = 0
    for offset, shift in enumerate((6, 4, 2, 0)):
        table |= int.from_bytes(codes[offset:offset + WINDOW_STARTS], "big") << shift
    return table.to_bytes(WINDOW_STARTS, "big")


def scan_index(seq: NucleotideSequence) -> KmerIndex:
    """Bucket start positions 0..65535 by the pixel value of their word;
    quads with zero occurrences are allowed here (ReferenceKey enforces coverage)."""
    positions: list[list[int]] = [[] for _ in range(256)]
    for p, value in enumerate(pixel_table(seq.bases)):
        # scan order keeps every occurrence list strictly increasing
        positions[value].append(p)
    occurrences = tuple(tuple(lst) for lst in positions)
    return KmerIndex(occurrences, min(map(len, occurrences)))


def build_key(seq: NucleotideSequence) -> ReferenceKey:
    """Index the sequence into a key, which can encrypt every quad.

    Raises QuadCoverageError (from ReferenceKey) when any of the 256 quads
    never occurs in the window.  Warns (SingleOccurrenceWarning) when some
    quad occurs exactly once, since its substitution is then deterministic.
    """
    index = scan_index(seq)
    # an index that misses a word is refused by ReferenceKey before the 0 is kept
    key = ReferenceKey(seq, index, key_fingerprint(seq) if index.min_multiplicity else 0)
    if lonely := _words_with(index, 1):
        warnings.warn(f"quads occurring only once in the key window: {', '.join(lonely)}; "
                      "their substitution is deterministic", SingleOccurrenceWarning, stacklevel=2)
    return key
