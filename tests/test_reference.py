"""FASTA parsing, 4-mer indexing, and key fingerprinting."""

import random
import re

import pytest

from conftest import random_bases
from dnamagic.errors import (
    EmptySequence,
    InvalidSymbol,
    QuadCoverageError,
    SequenceTooShort,
)
from dnamagic.reference import (
    MIN_KEY_LENGTH,
    WINDOW_STARTS,
    NucleotideSequence,
    SingleOccurrenceWarning,
    build_key,
    fnv1a_64,
    key_fingerprint,
    parse_fasta,
    scan_index,
)


# ---- parse_fasta ----

def test_parse_minimal_record():
    seq = parse_fasta(b">h\nACGT\n")
    assert seq.bases == "ACGT"
    assert seq.source_name == "h"


def test_strict_rejects_invalid_symbol_at_offset():
    with pytest.raises(InvalidSymbol) as exc:
        parse_fasta(b">h\nacgtN\n", mode="strict")
    assert exc.value.position == 7  # byte offset of 'N' in the input
    assert exc.value.char == "N"


def test_sanitize_drops_invalid_symbols():
    assert parse_fasta(b">h\nacgtN\n", mode="sanitize").bases == "ACGT"


def test_lowercase_uppercased_and_whitespace_stripped():
    assert parse_fasta(b">h\n ac GT\t\nacgt\n").bases == "ACGTACGT"


def test_multi_record_concatenation_in_order():
    seq = parse_fasta(b">first\nAC\n>second\nGT\n")
    assert seq.bases == "ACGT"
    assert seq.source_name == "first"


def test_headerless_input_accepted():
    assert parse_fasta(b"ACGT\nTTTT\n").bases == "ACGTTTTT"


def test_crlf_line_endings():
    assert parse_fasta(b">h\r\nACGT\r\n").bases == "ACGT"


def test_empty_input_raises():
    with pytest.raises(EmptySequence):
        parse_fasta(b">only a header\n")
    with pytest.raises(EmptySequence):
        parse_fasta(b"")


def test_empty_first_header_lets_a_later_header_name_the_key():
    seq = parse_fasta(b">\nAC\n>  \nGT\n> second \nAA\n>third\n")
    assert seq.bases == "ACGTAA"
    assert seq.source_name == "second"


def test_header_marker_after_column_zero_is_invalid():
    with pytest.raises(InvalidSymbol) as exc:
        parse_fasta(b">h\nAC >x\n")
    assert (exc.value.position, exc.value.char) == (6, ">")
    assert parse_fasta(b">h\nAC >x\n", mode="sanitize").bases == "AC"


def test_str_input_reports_character_offsets():
    with pytest.raises(InvalidSymbol) as exc:
        parse_fasta(">\u00e9\u4e2d\nAC\u3000GTx\n")
    assert (exc.value.position, exc.value.char) == (9, "x")  # its UTF-8 byte offset is 14


def test_unicode_whitespace_inside_sequence_lines_is_dropped():
    assert parse_fasta(b">h\nAC\x85GT\xa0AC\x1cGT\n").bases == "ACGTACGT"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        parse_fasta(b"ACGT", mode="lenient")


def test_parse_is_idempotent_on_clean_sequences():
    rng = random.Random(5)
    bases = random_bases(rng, 500)
    once = parse_fasta((">r\n" + bases).encode())
    twice = parse_fasta(once.bases)
    assert twice.bases == once.bases == bases


def test_sequence_length_is_its_base_count():
    assert len(NucleotideSequence("ACGTA")) == 5


def test_sequence_type_rejects_non_acgt():
    with pytest.raises(ValueError):
        NucleotideSequence("ACGU")
    # the message lists every offending symbol once, sorted
    with pytest.raises(ValueError, match=re.escape("outside ACGT: ['N', 'U', 'a']")):
        NucleotideSequence("ACGTUaNNU")
    # non-ASCII symbols are listed the same way
    for bases, bad in [("ACGT\xc4", "['\xc4']"), ("ACGT\u0130", "['\u0130']"),
                       ("ACGT\U0001f600", "['\U0001f600']")]:
        with pytest.raises(ValueError, match=re.escape(f"outside ACGT: {bad}")):
            NucleotideSequence(bases)
    assert NucleotideSequence("").bases == ""


# ---- fingerprint ----

def test_fnv1a_64_published_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fingerprint_deterministic_and_prefix_only():
    rng = random.Random(6)
    prefix = random_bases(rng, MIN_KEY_LENGTH)
    a = NucleotideSequence(prefix)
    b = NucleotideSequence(prefix + "ACGTACGT")  # differs only past the window
    assert key_fingerprint(a) == key_fingerprint(b)


def test_fingerprint_sensitive_to_first_base():
    rng = random.Random(7)
    for _ in range(100):
        bases = random_bases(rng, MIN_KEY_LENGTH)
        flipped = ("A" if bases[0] != "A" else "C") + bases[1:]
        assert key_fingerprint(NucleotideSequence(bases)) != \
            key_fingerprint(NucleotideSequence(flipped))


def test_fingerprint_requires_min_length():
    with pytest.raises(SequenceTooShort):
        key_fingerprint(NucleotideSequence("ACGT" * 25))
    with pytest.raises(SequenceTooShort):
        key_fingerprint(NucleotideSequence("A" * (MIN_KEY_LENGTH - 1)))


# ---- index construction ----

def test_build_key_rejects_short_sequence():
    with pytest.raises(SequenceTooShort) as exc:
        build_key(NucleotideSequence("ACGT" * 25))
    assert exc.value.actual_length == 100


def test_cycling_sequence_fails_coverage():
    seq = NucleotideSequence(("ACGT" * (MIN_KEY_LENGTH // 4 + 1))[:MIN_KEY_LENGTH])
    # brute-force oracle over the periodic sequence
    present = {seq.bases[p:p + 4] for p in range(WINDOW_STARTS)}
    assert present == {"ACGT", "CGTA", "GTAC", "TACG"}
    with pytest.raises(QuadCoverageError) as exc:
        build_key(seq)
    expected_missing = sorted(set(
        a + b + c + d for a in "ACGT" for b in "ACGT" for c in "ACGT" for d in "ACGT"
    ) - present)
    assert sorted(exc.value.missing) == expected_missing
    assert "AAAA" in exc.value.missing
    assert str(exc.value) == ("252 quads never occur in the key window: "
                              "CCCC, CCCT, CCCA, CCCG, CCTC, CCTT, CCTA, CCTG (+244 more)")


def test_random_sequences_build_with_comfortable_multiplicity():
    for seed in range(10):
        rng = random.Random(1000 + seed)
        key = build_key(NucleotideSequence(random_bases(rng, MIN_KEY_LENGTH)))
        assert key.index.min_multiplicity >= 2


def test_index_partitions_the_window(random_key):
    lengths = [len(lst) for lst in random_key.index.occurrences]
    assert sum(lengths) == WINDOW_STARTS
    assert random_key.index.min_multiplicity == min(lengths)
    all_positions = sorted(p for lst in random_key.index.occurrences for p in lst)
    assert all_positions == list(range(WINDOW_STARTS))


def test_occurrence_lists_strictly_increasing(random_key):
    for lst in random_key.index.occurrences:
        assert all(a < b for a, b in zip(lst, lst[1:]))


def test_index_positions_decode_to_their_quad(random_key):
    from dnamagic.dna import BYTE_TO_QUAD
    rng = random.Random(8)
    bases = random_key.sequence.bases
    for _ in range(1000):
        value = rng.randrange(256)
        lst = random_key.index.occurrences[value]
        p = lst[rng.randrange(len(lst))]
        assert bases[p:p + 4] == BYTE_TO_QUAD[value]


def test_build_key_warns_when_a_quad_occurs_once():
    rng = random.Random(5150)
    s = random_bases(rng, MIN_KEY_LENGTH)
    # remove every windowed GGGG, then plant exactly one (A guards stop runs)
    while True:
        i = s.find("GGGG")
        if i < 0 or i >= WINDOW_STARTS:
            break
        s = s[:i + 1] + "C" + s[i + 2:]
    s = s[:999] + "AGGGGA" + s[1005:]
    assert [p for p in range(WINDOW_STARTS) if s[p:p + 4] == "GGGG"] == [1000]
    with pytest.warns(SingleOccurrenceWarning):
        key = build_key(NucleotideSequence(s))
    assert key.index.min_multiplicity == 1
    assert key.index.occurrences[int("11111111", 2)] == (1000,)


def test_scan_index_allows_zero_coverage():
    seq = NucleotideSequence(("ACGT" * (MIN_KEY_LENGTH // 4 + 1))[:MIN_KEY_LENGTH])
    index = scan_index(seq)
    assert index.min_multiplicity == 0
    assert sum(len(lst) for lst in index.occurrences) == WINDOW_STARTS
