import random

import pytest

from dnamagic.errors import NotDoublyEven, OrderTooLarge
from dnamagic.imageio import PlainImage
from dnamagic.magic_square import MAX_ORDER, MagicSquare
from dnamagic.reference import NucleotideSequence, build_key

KEY_SEED = 20240811


def random_bases(rng: random.Random, length: int) -> str:
    return "".join(rng.choices("ACGT", k=length))


def random_image(rng: random.Random, width: int, height: int | None = None) -> PlainImage:
    height = width if height is None else height
    return PlainImage(width, height, rng.randbytes(width * height))


# Frozen copy of the nested-loop magic-square constructor that the library
# used before it built the square from scramble_square; kept verbatim as the
# independent reference for the scramble.
_INVERT = {(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)}


def oracle_doubly_even(n: int) -> MagicSquare:
    if n < 4 or n % 4 != 0:
        raise NotDoublyEven(n)
    if n > MAX_ORDER:
        raise OrderTooLarge(n, MAX_ORDER)
    total = n * n + 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = i * n + j + 1
            if (i % 4, j % 4) in _INVERT:
                v = total - v
            row.append(v)
        rows.append(tuple(row))
    return MagicSquare(n, tuple(rows))


@pytest.fixture(scope="session")
def random_key():
    """One uniformly random 65540-base key shared across the suite."""
    rng = random.Random(KEY_SEED)
    return build_key(NucleotideSequence(random_bases(rng, 65540), source_name="test-key"))
