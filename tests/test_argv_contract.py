"""Contract fuzz for the command line: any argv ends in exit code 0, 1 or 2.

Each argv is a subcommand (or an unknown one) followed either by its
required flags and some of its optional ones, each with a value of its kind,
or by any of the flags with any values and up to three stray tokens.
Values come from a boundary set of numbers, the two key modes and relative
paths.  The paths name a fixed set of files: an 8x8 PGM, a DMC1 built from
it, the suite's 65,540-base key, garbage bytes, a directory and a missing
name.  Every example runs in a fresh directory holding those files, so a
command that writes cannot change what a later example reads.
"""

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_image
from dnamagic.cipher import encrypt, serialize
from dnamagic.cli import run
from dnamagic.imageio import write_pgm
from dnamagic.substitution import RandomStream

# each subcommand's required flags, then its optional ones ("bogus" is an unknown
# subcommand); --fingerprint takes no value
COMMAND_FLAGS = {
    "encrypt": (["--in", "--key", "--out"], ["--seed", "--fingerprint", "--mode"]),
    "decrypt": (["--in", "--key", "--out"], ["--mode"]),
    "analyze": (["--plain", "--cipher"],
                ["--csv", "--sample-n", "--seed", "--key", "--trials", "--mode"]),
    "attack": (["--known-plain", "--known-cipher", "--target", "--truth"], []),
    "magic": (["--order"], []),
    "keyinfo": (["--key"], ["--mode"]),
    "bogus": ([], []),
}
NUMBER_FLAGS = {"--seed", "--sample-n", "--trials", "--order"}
NUMBERS = ["0", "1", "5", "1024", "1028", "40000", "-4", str(1 << 64), "0x10", "1e3", ""]
PATHS = ["plain.pgm", "cipher.dmc", "key.fasta", "garbage.bin", "dir", "missing.pgm"]
MODES = ["strict", "sanitize"]
FLAGS = sorted({flag for required, optional in COMMAND_FLAGS.values()
                 for flag in required + optional} | {"--help"})
TOKENS = FLAGS + NUMBERS + PATHS + MODES
# the largest `magic` order an example may print; larger accepted orders only
# cost time, and the limit itself is tested in test_magic_square
MAX_FUZZ_ORDER = 64


def _option(flag: str, complete: bool):
    """The flag and a value: one of its kind when complete, else any token."""
    if flag == "--fingerprint":
        return st.just([flag])
    kind = NUMBERS if flag in NUMBER_FLAGS else MODES if flag == "--mode" else PATHS
    return st.sampled_from(kind if complete else TOKENS).map(lambda value: [flag, value])


def _argv(command: str, complete: bool):
    """Every required flag and no stray token when complete, else any subset and strays."""
    required, optional = COMMAND_FLAGS[command]
    options = {flag: _option(flag, complete) for flag in required + optional}
    flags = (st.fixed_dictionaries({f: options[f] for f in required},
                                   optional={f: options[f] for f in optional}) if complete
             else st.fixed_dictionaries({}, optional=options))
    strays = st.lists(st.sampled_from(TOKENS), max_size=0 if complete else 3)
    return st.tuples(flags, strays).map(
        lambda t: [command, *(token for option in t[0].values() for token in option), *t[1]])


argvs = st.tuples(st.sampled_from(list(COMMAND_FLAGS)), st.booleans()).flatmap(
    lambda t: _argv(*t))


def _bounded(argv: list[str]) -> bool:
    """False for a `magic` run that could print an order above MAX_FUZZ_ORDER."""
    return argv[0] != "magic" or not any(
        token.isdigit() and int(token) > MAX_FUZZ_ORDER for token in argv[1:])


@pytest.fixture(scope="module")
def template(tmp_path_factory, random_key):
    """The files every example starts from; `dir` is a directory, `missing.pgm` absent."""
    root = tmp_path_factory.mktemp("argv-template")
    rng = random.Random(91)
    plain = random_image(rng, 8)
    (root / "plain.pgm").write_bytes(write_pgm(plain))
    (root / "cipher.dmc").write_bytes(serialize(encrypt(plain, random_key, RandomStream(92))))
    (root / "key.fasta").write_text(">argv key\n" + random_key.sequence.bases + "\n")
    (root / "garbage.bin").write_bytes(rng.randbytes(64))
    (root / "dir").mkdir()
    return root


@settings(max_examples=500, deadline=None)
@given(argv=argvs)
def test_run_exits_0_1_or_2_for_any_argv(template, argv):
    assume(_bounded(argv))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as fresh:
        shutil.copytree(template, fresh, dirs_exist_ok=True)
        os.chdir(fresh)
        try:
            code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
