"""Differential test: parse_fasta against a frozen character-at-a-time parser.

`oracle_parse_fasta` is the original per-character state machine, kept
verbatim as the reference for the FASTA rules.  The two parsers must agree
on the bases and the record name, or on the type, offset and symbol of the
error, for bytes, bytearray and str inputs in both modes, from short runs of
symbols up to multi-record files whose bodies span thousands of symbols.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnamagic import reference
from dnamagic.errors import EmptySequence, InvalidSymbol
from dnamagic.reference import NucleotideSequence, parse_fasta


def oracle_parse_fasta(data: bytes | str, mode: str = "strict") -> NucleotideSequence:
    if mode not in ("strict", "sanitize"):
        raise ValueError(f"unknown mode {mode!r}")
    text = data.decode("latin-1") if isinstance(data, (bytes, bytearray)) else data

    out: list[str] = []
    name = ""
    header_chars: list[str] = []
    in_header = False
    at_line_start = True
    for i, ch in enumerate(text):
        if ch == "\n":
            if in_header and not name:
                name = "".join(header_chars).strip()
            in_header = False
            at_line_start = True
            continue
        if at_line_start and ch == ">":
            in_header = True
            header_chars = []
            at_line_start = False
            continue
        at_line_start = False
        if in_header:
            header_chars.append(ch)
        elif ch.isspace():
            continue
        elif ch.upper() in "ACGT":
            out.append(ch.upper())
        elif mode == "strict":
            raise InvalidSymbol(i, ch)
    if in_header and not name:
        name = "".join(header_chars).strip()

    if not out:
        raise EmptySequence()
    return NucleotideSequence("".join(out), source_name=name)


def outcome(parse, data, mode):
    try:
        seq = parse(data, mode)
    except InvalidSymbol as exc:
        return ("InvalidSymbol", exc.position, exc.char)
    except EmptySequence:
        return ("EmptySequence",)
    return (seq.bases, seq.source_name)


# Single symbols and short runs that exercise every rule: bases of both cases,
# N gaps, headers, CR/LF mixes, ASCII and Unicode whitespace (\x1c, \x85 and
# \xa0 are str.isspace), and punctuation.
LATIN1_PIECES = [
    "A", "C", "G", "T", "a", "c", "g", "t", "ACGT", "acgtn", "N", "n", "NNNN",
    ">", ">name", "> spaced name ", "\n", "\n>", "\r", "\r\n", "\n\n",
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
    "-", "*", ".", "1", "U", "x", "\x00", "\xdf", "\xe4", "\xff",
]
# Characters outside latin-1, reachable only through str input: Unicode
# whitespace, letters whose case mapping is special, and astral symbols.
WIDE_PIECES = ["\u2028", "\u3000", "\u0131", "\u017f", "\u212a", "\ufb00", "\u03a9", "\U0001f600"]

latin1_text = st.lists(st.sampled_from(LATIN1_PIECES), max_size=40).map("".join)
wide_text = st.lists(st.sampled_from(LATIN1_PIECES + WIDE_PIECES), max_size=40).map("".join)
inputs = st.one_of(
    latin1_text.map(lambda text: text.encode("latin-1")),
    st.binary(max_size=60),
    wide_text,
    st.text(max_size=40),
)


@settings(max_examples=600, deadline=None)
@given(data=inputs, mode=st.sampled_from(["strict", "sanitize"]))
def test_parse_fasta_matches_frozen_oracle(data, mode):
    assert outcome(parse_fasta, data, mode) == outcome(oracle_parse_fasta, data, mode)



# Multi-record files: an optional header at offset 0, records joined at "\n>",
# LF or CRLF line ends, bodies of up to a few thousand mostly-base symbols
# with a rare piece mixed in ('>' after column 0, junk, latin-1 or wide
# whitespace, a line break or a new header), and a last header that may lack
# its LF.  Bodies come from a drawn seed, since drawing each symbol is slow.
@st.composite
def fasta_files(draw):
    wide = draw(st.booleans())
    pieces = LATIN1_PIECES + WIDE_PIECES if wide else LATIN1_PIECES
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dirt = draw(st.sampled_from([0.0, 0.0002, 0.002, 0.02]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    names = st.lists(st.sampled_from(pieces), max_size=4).map("".join)

    parts = []
    for r in range(draw(st.integers(1, 4))):
        if r or draw(st.booleans()):
            parts.append(">" + draw(names) + eol)
        width = draw(st.integers(1, 80))
        body = [rng.choice(pieces) if rng.random() < dirt else rng.choice("ACGTACGTacgt")
                for _ in range(draw(st.integers(0, 4000)))]
        parts.extend("".join(body[i:i + width]) + eol for i in range(0, len(body), width))
    if draw(st.booleans()):
        parts.append(">" + draw(names))  # a last header without its LF

    text = "".join(parts)
    if wide:
        return text
    raw = text.encode("latin-1")
    return draw(st.sampled_from([raw, bytearray(raw), text]))


@settings(max_examples=150, deadline=None)
@given(data=fasta_files(), mode=st.sampled_from(["strict", "sanitize"]))
def test_parse_fasta_matches_frozen_oracle_at_record_scale(data, mode):
    assert outcome(parse_fasta, data, mode) == outcome(oracle_parse_fasta, data, mode)


# parse_fasta reads its input a chunk at a time; chunks this small put every
# header, record split, CRLF, wide whitespace and invalid symbol on some edge
@pytest.mark.parametrize("chunk", [1, 2, 3, 61])
@settings(max_examples=150, deadline=None)
@given(data=st.one_of(inputs, fasta_files()), mode=st.sampled_from(["strict", "sanitize"]))
def test_parse_fasta_matches_frozen_oracle_across_chunk_edges(chunk, data, mode):
    with mock.patch.object(reference, "_CHUNK", chunk):
        assert outcome(parse_fasta, data, mode) == outcome(oracle_parse_fasta, data, mode)


def test_invalid_symbol_in_last_of_four_large_records():
    rng = random.Random(4)
    records = []
    for r in range(4):
        bases = "".join(rng.choices("ACGTacgt", k=50_000))
        lines = [bases[i:i + 60] for i in range(0, len(bases), 60)]
        records.append(f">chr{r + 1} record {r}\n" + "\n".join(lines) + "\n")
    last = records[-1]
    cut = len(last) - 1000
    records[-1] = last[:cut] + "N" + last[cut:]
    text = "".join(records)
    for data in (text.encode("latin-1"), bytearray(text.encode("latin-1")), text):
        expected = outcome(oracle_parse_fasta, data, "strict")
        assert expected == ("InvalidSymbol", text.index("N"), "N")
        assert outcome(parse_fasta, data, "strict") == expected
