"""Contract fuzz for key files: any bytes end in a value or a DnamagicError.

`parse_fasta` in either mode returns a NucleotideSequence or raises a
DnamagicError that survives pickle with an equal message, and `dnamagic
keyinfo` on the same bytes exits 0, 1 or 2 without raising.  Inputs include
arbitrary bytes, header-shaped ones and files long enough to pass the
key-length check.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_pickles, random_bases
from dnamagic.cli import run
from dnamagic.errors import DnamagicError
from dnamagic.reference import MIN_KEY_LENGTH, NucleotideSequence, parse_fasta

PIECES = [b">", b"\n>", b"\n", b"\r\n", b"ACGT", b"acgt", b"N", b" ", b"\x85", b"\xa0",
          b"\x00", b"\xff", b"\xc3\xa9"]
KEY_BODY = random_bases(random.Random(66), MIN_KEY_LENGTH).encode("ascii")

noise = st.one_of(st.binary(max_size=80),
                  st.lists(st.sampled_from(PIECES), max_size=30).map(b"".join))
key_files = st.tuples(noise, st.sampled_from([b"", KEY_BODY]), noise).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(data=key_files, mode=st.sampled_from(["strict", "sanitize"]))
def test_parse_fasta_returns_a_sequence_or_a_dnamagic_error(data, mode):
    try:
        seq = parse_fasta(data, mode)
    except DnamagicError as exc:
        assert_pickles(exc)
        return
    assert isinstance(seq, NucleotideSequence)


@settings(max_examples=60, deadline=None)
@given(data=key_files, mode=st.sampled_from(["strict", "sanitize"]))
def test_keyinfo_exits_0_1_or_2_on_any_key_file(tmp_path_factory, data, mode):
    path = tmp_path_factory.mktemp("keys") / "key.fasta"
    path.write_bytes(data)
    assert run(["keyinfo", "--key", str(path), "--mode", mode]) in (0, 1, 2)
