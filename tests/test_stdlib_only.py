"""The library and CLI import nothing outside the standard library.

`pyproject.toml` declares `dependencies = []`, and numpy stays out of the
cipher path.  A `python -I -S` interpreter, which sees neither site-packages
nor PYTHONPATH, imports `dnamagic.cli` and runs one library round trip; every
top-level module this newly imports must be stdlib or `dnamagic` itself.
Unseeded streams read `os.urandom`, so no CLI start loads `secrets` and the
OpenSSL-backed hashing modules it pulls in.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import random
import sys

sys.path.insert(0, {src!r})
before = set(sys.modules)

import dnamagic.cli
from dnamagic import (PlainImage, NucleotideSequence, RandomStream, build_key, decrypt,
                      deserialize, encrypt, serialize)

rng = random.Random(5)
key = build_key(NucleotideSequence("".join(rng.choices("ACGT", k=65540))))
image = PlainImage(64, 64, rng.randbytes(64 * 64))
assert decrypt(deserialize(serialize(encrypt(image, key, RandomStream(7)))), key) == image

RandomStream()
print(" ".join({{name.partition(".")[0] for name in set(sys.modules) - before}}))
"""


@pytest.fixture(scope="module")
def new_modules() -> set[str]:
    """Top-level modules that importing the CLI and one round trip load."""
    result = subprocess.run([sys.executable, "-I", "-S", "-c", SCRIPT.format(src=str(SRC))],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_library_and_cli_import_only_the_standard_library(new_modules):
    assert new_modules - set(sys.stdlib_module_names) - {"dnamagic"} == set()


def test_cli_import_loads_no_secrets_or_hashing_modules(new_modules):
    assert new_modules & {"secrets", "hmac", "_hashlib"} == set()
