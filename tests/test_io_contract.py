"""Contract fuzz for image and container files: any bytes end in a value or a
DnamagicError.

`read_pgm` returns a PlainImage and `deserialize` a CipherImage, or each
raises a DnamagicError, and `dnamagic decrypt`, `analyze` (on either input)
and `attack` on the same bytes exit 0, 1 or 2 without raising.  Inputs are
arbitrary bytes, PGM files built from header tokens, `DMC1`-prefixed bytes,
and 8x8 PGM and DMC1 files with a span of bytes replaced.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image
from dnamagic.cipher import CipherImage, deserialize, encrypt, serialize
from dnamagic.cli import run
from dnamagic.errors import DnamagicError
from dnamagic.imageio import PlainImage, read_pgm, write_pgm
from dnamagic.substitution import RandomStream

PLAIN = random_image(random.Random(81), 8)
PGM = write_pgm(PLAIN)
HEADER_PIECES = [b"P2", b"P5", b"P6", b"8", b"4", b"0", b"255", b"65535", b"1" * 4301,
                 b"-1", b"x", b" ", b"\n", b"\t", b"\r\n", b"#", b"# c\n", b"\x85", b"\xa0",
                 b"\x00", b"\xff"]


def spliced(blob: bytes):
    """blob with a span of up to 8 bytes replaced by up to 8 arbitrary bytes."""
    return st.tuples(st.integers(0, len(blob)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: blob[:t[0]] + t[2] + blob[t[0] + t[1]:])


header_built = st.tuples(
    st.sampled_from([b"P2 ", b"P5 "]),
    st.lists(st.sampled_from(HEADER_PIECES), max_size=12).map(b"".join),
    st.binary(max_size=80),
).map(b"".join)
pgm_files = st.one_of(st.binary(max_size=100), header_built, spliced(PGM))


@pytest.fixture(scope="module")
def files(tmp_path_factory, random_key):
    """Key, an 8x8 plaintext and its DMC1 ciphertext on disk."""
    root = tmp_path_factory.mktemp("io-contract")
    (root / "key.fasta").write_text(">contract key\n" + random_key.sequence.bases + "\n")
    (root / "plain.pgm").write_bytes(PGM)
    (root / "cipher.dmc").write_bytes(
        serialize(encrypt(PLAIN, random_key, RandomStream(82), include_fingerprint=True)))
    return root


def dmc1_files(blob: bytes):
    return st.one_of(st.binary(max_size=100),
                     st.binary(max_size=100).map(lambda rest: b"DMC1" + rest),
                     spliced(blob))


@settings(max_examples=400, deadline=None)
@given(data=pgm_files)
def test_read_pgm_returns_an_image_or_a_dnamagic_error(data):
    try:
        image = read_pgm(data)
    except DnamagicError:
        return
    assert isinstance(image, PlainImage)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_deserialize_returns_a_cipher_or_a_dnamagic_error(files, data):
    blob = data.draw(dmc1_files((files / "cipher.dmc").read_bytes()))
    try:
        cipher = deserialize(blob)
    except DnamagicError:
        return
    assert isinstance(cipher, CipherImage)


def command(slot: str, path: str, files) -> list[str]:
    """A CLI call whose input `slot` reads `path` and every other input is valid."""
    plain, cipher, key = str(files / "plain.pgm"), str(files / "cipher.dmc"), str(files / "key.fasta")
    if slot == "decrypt":
        return ["decrypt", "--in", path, "--key", key, "--out", str(files / "out.pgm")]
    if slot in ("analyze-plain", "analyze-cipher"):
        plain, cipher = (path, cipher) if slot == "analyze-plain" else (plain, path)
        return ["analyze", "--plain", plain, "--cipher", cipher, "--seed", "1"]
    files_in = {"known-plain": plain, "known-cipher": cipher, "target": cipher, "truth": plain}
    files_in[slot.removeprefix("attack-")] = path
    return ["attack"] + [arg for name, value in files_in.items() for arg in (f"--{name}", value)]


PGM_SLOTS = ["analyze-plain", "attack-known-plain", "attack-truth"]
DMC1_SLOTS = ["decrypt", "analyze-cipher", "attack-known-cipher", "attack-target"]


@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(PGM_SLOTS + DMC1_SLOTS), data=st.data())
def test_cli_exits_0_1_or_2_on_any_image_or_container_file(files, slot, data):
    strategy = pgm_files if slot in PGM_SLOTS else dmc1_files((files / "cipher.dmc").read_bytes())
    path = files / "fuzzed"
    path.write_bytes(data.draw(strategy))
    assert run(command(slot, str(path), files)) in (0, 1, 2)
