"""Differential test: the draw-counted change rate against the frozen encrypt-based one.

`oracle_cells_changed_by_bump` and `oracle_differential_sensitivity` are the
implementation that encrypted the original and the bumped image every trial
and compared the cipher cells, kept verbatim as the reference.
`differential_sensitivity` counts the same cells from the two streams' draws.
It must return the same float, compared with ==, or fail with the same error
type and message: for square images of side 4 to 32, constant images and
images holding pixel 255 (whose bump wraps to 0), 1 to 4 trials and any 64-bit
seed, under the shared test key, a key with two positions per value and a key
whose values share positions; and for images that are not square or whose side
is not a multiple of 4, and trials < 1.  A key missing an image pixel's or only
a bumped value's positions cannot be built.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnamagic.analysis import differential_sensitivity
from dnamagic.cipher import encrypt
from dnamagic.dna import BYTE_TO_QUAD
from dnamagic.errors import DnamagicError, QuadCoverageError
from dnamagic.imageio import PlainImage
from dnamagic.reference import KmerIndex, NucleotideSequence, ReferenceKey
from dnamagic.substitution import RandomStream


def oracle_cells_changed_by_bump(image: PlainImage, key: ReferenceKey, index: int,
                                 original_rng: RandomStream, bumped_rng: RandomStream) -> int:
    """Cells changed by bumping pixel `index` by 1 (mod 256) and re-encrypting."""
    bumped = bytearray(image.pixels)
    bumped[index] = (bumped[index] + 1) % 256
    c1 = encrypt(image, key, original_rng)
    c2 = encrypt(PlainImage(image.width, image.height, bytes(bumped)), key, bumped_rng)
    return sum(1 for a, b in zip(c1.pointers, c2.pointers) if a != b)


def oracle_differential_sensitivity(image: PlainImage, key: ReferenceKey, trials: int,
                                    rng: RandomStream) -> float:
    """Mean fraction of cipher cells changed by bumping one random pixel by 1
    (mod 256), re-encrypting original and modified images with independent
    fresh randomness each trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = image.width * image.height
    total = 0.0
    for _ in range(trials):
        total += oracle_cells_changed_by_bump(image, key, rng.randbelow(n),
                                              RandomStream(rng.next64()),
                                              RandomStream(rng.next64())) / n
    return total / trials


# two key positions per value, so a cell keeps its pointer with odds 1/2
TWO_POSITIONS = tuple((2 * v, 2 * v + 1) for v in range(256))
# one to three positions per value, shared between values, so the bumped cell
# too keeps its pointer at times and shows which seed drew for which image
OVERLAPPING = tuple(tuple(range(1 + v % 3)) for v in range(256))


def hand_built_key(occurrences) -> ReferenceKey:
    return ReferenceKey(NucleotideSequence("A" * 8), KmerIndex(tuple(occurrences), 0), 0)


def outcome(call):
    try:
        return call()
    except (DnamagicError, ValueError) as exc:
        return type(exc), str(exc)


def same_outcome(image: PlainImage, key: ReferenceKey, trials: int, seed: int):
    new = outcome(lambda: differential_sensitivity(image, key, trials, RandomStream(seed)))
    old = outcome(lambda: oracle_differential_sensitivity(image, key, trials, RandomStream(seed)))
    assert new == old
    return new


seeds = st.integers(0, (1 << 64) - 1)


@st.composite
def square_images(draw):
    side = draw(st.sampled_from(range(4, 33, 4)))
    n = side * side
    kind = draw(st.sampled_from(["random", "constant", "with_255"]))
    if kind == "constant":
        pixels = bytes([draw(st.integers(0, 255))]) * n
    else:
        pixels = bytearray(random.Random(draw(seeds)).randbytes(n))
        if kind == "with_255":
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=64)):
                pixels[i] = 255
    return PlainImage(side, side, bytes(pixels))


@pytest.mark.parametrize("key_name", ["shared", "two_positions", "overlapping"])
@settings(max_examples=150, deadline=None)
@given(image=square_images(), trials=st.integers(1, 4), seed=seeds)
def test_change_rate_equals_frozen_oracle(random_key, key_name, image, trials, seed):
    key = {"shared": random_key, "two_positions": hand_built_key(TWO_POSITIONS),
           "overlapping": hand_built_key(OVERLAPPING)}[key_name]
    assert isinstance(same_outcome(image, key, trials, seed), float)


@st.composite
def error_cases(draw):
    """Bad dimensions or trials < 1, with the lists of a key emptied for values the image
    holds or for the values its pixels bump to."""
    if draw(st.booleans()):
        width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    else:
        width = height = draw(st.sampled_from([4, 8]))
    emptied = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    near = [(v + shift) % 256 for v in emptied for shift in (-1, 0)]  # holds, or bumps into, v
    values = st.sampled_from(near) | st.integers(0, 255)
    pixels = bytes(draw(st.lists(values, min_size=width * height, max_size=width * height)))
    occurrences = [() if v in emptied else options for v, options in enumerate(TWO_POSITIONS)]
    trials = draw(st.integers(-2, 4))
    return PlainImage(width, height, pixels), occurrences, trials, draw(seeds)


@settings(max_examples=400, deadline=None)
@given(case=error_cases())
def test_errors_equal_frozen_oracle(case):
    image, occurrences, trials, seed = case
    with pytest.raises(QuadCoverageError) as exc:
        hand_built_key(occurrences)
    assert exc.value.missing == [BYTE_TO_QUAD[v] for v, options in enumerate(occurrences)
                                 if not options]
    same_outcome(image, hand_built_key(TWO_POSITIONS), trials, seed)


def test_errors_cover_each_case():
    """One fixed instance per error path, so each is hit whatever hypothesis draws."""
    full = hand_built_key(TWO_POSITIONS)
    assert same_outcome(PlainImage(8, 4, bytes(32)), full, 1, 7)[1] == (
        "image must be square with side a positive multiple of 4, got 8x4")
    assert same_outcome(PlainImage(4, 4, bytes(16)), full, 0, 7) == (
        ValueError, "trials must be at least 1, got 0")
    # a key missing 17 cannot be built, so neither an image holding 17 nor one bumping into it
    # meets it
    with pytest.raises(QuadCoverageError) as exc:
        hand_built_key(() if v == 17 else options for v, options in enumerate(TWO_POSITIONS))
    assert exc.value.missing == [BYTE_TO_QUAD[17]]
