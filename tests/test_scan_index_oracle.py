"""Differential test: scan_index against the frozen per-position scan.

`oracle_scan_index` is the original scan, kept verbatim as the reference: it
looks every windowed 4-mer up by its string.  The table-driven scan_index
must give the same occurrence lists and minimum multiplicity, on skewed
random sequences (with missing and single-occurrence words) and on the
benchmark's genome-like key.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dnamagic.dna import QUAD_TO_BYTE
from dnamagic.errors import SequenceTooShort
from dnamagic.reference import (
    MIN_KEY_LENGTH,
    WINDOW_STARTS,
    KmerIndex,
    NucleotideSequence,
    parse_fasta,
    scan_index,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.inputs import genome_fasta  # noqa: E402


def oracle_scan_index(seq: NucleotideSequence) -> KmerIndex:
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


def skewed_sequence(seed: int, weights: list[int], length: int) -> NucleotideSequence:
    return NucleotideSequence("".join(random.Random(seed).choices("ACGT", weights, k=length)))


# no shrink phase: each example costs tens of milliseconds, a smaller seed or
# length explains nothing, and the failing example is printed either way
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.sampled_from([0, 1, 2, 5, 40, 400]), min_size=4, max_size=4)
       .filter(any),
       length=st.integers(MIN_KEY_LENGTH, 66_000))
def test_scan_index_matches_frozen_oracle(seed, weights, length):
    seq = skewed_sequence(seed, weights, length)
    assert scan_index(seq) == oracle_scan_index(seq)


def test_skewed_sequence_has_missing_and_single_words():
    # one rare base: words with three of it are missing, some with two occur once
    seq = skewed_sequence(7, [400, 400, 400, 1], MIN_KEY_LENGTH)
    index = scan_index(seq)
    counts = [len(lst) for lst in index.occurrences]
    assert index.min_multiplicity == 0 and 1 in counts
    assert index == oracle_scan_index(seq)


def test_scan_index_matches_frozen_oracle_on_genome_key():
    seq = parse_fasta(genome_fasta(1), mode="sanitize")
    assert scan_index(seq) == oracle_scan_index(seq)


def test_scan_index_rejects_one_base_short():
    with pytest.raises(SequenceTooShort) as exc:
        scan_index(NucleotideSequence("A" * (MIN_KEY_LENGTH - 1)))
    assert exc.value.actual_length == MIN_KEY_LENGTH - 1
