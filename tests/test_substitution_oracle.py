"""Differential test: pixel-valued substitution against the frozen DNA-string one.

`oracle_substitute` and `oracle_reverse_substitute` are the original
implementations, kept verbatim as the reference: they take and return
`DnaImage` grids of four-base words.  The byte-level functions must draw the
same pointers from the same stream, decode the same pixels, and fail with the
same error type and attributes, for random images, seeds and keys whose
occurrence lists include singletons and empty lists.  The block-drawn
`RandomStream.outputs` and `RandomStream.next64` share one mix; both must
equal the frozen scalar generator `OracleStream`, across block boundaries and
across the wrap of the state past 2**64.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bases, random_image
from dnamagic.dna import (
    BYTE_TO_QUAD,
    QUAD_TO_BYTE,
    DnaImage,
    resynthesize,
    synthesize,
)
from dnamagic.errors import PointerOutOfRange, QuadNotCovered
from dnamagic.imageio import PlainImage
from dnamagic.reference import KmerIndex, NucleotideSequence, ReferenceKey, WINDOW_STARTS, scan_index
from dnamagic.substitution import PointerGrid, RandomStream, reverse_substitute, substitute


def oracle_substitute(dna: DnaImage, key: ReferenceKey, rng: RandomStream) -> PointerGrid:
    occurrences = key.index.occurrences
    pointers = []
    for quad in dna.quads:
        options = occurrences[QUAD_TO_BYTE[quad]]
        if not options:
            # unreachable for keys produced by build_key, which enforces coverage
            raise QuadNotCovered(quad)
        pointers.append(options[rng.randbelow(len(options))])
    return PointerGrid(dna.width, dna.height, tuple(pointers))


def oracle_reverse_substitute(grid: PointerGrid, key: ReferenceKey) -> DnaImage:
    bases = key.sequence.bases
    quads = []
    for i, p in enumerate(grid.pointers):
        if not 0 <= p < WINDOW_STARTS:
            raise PointerOutOfRange(i, p)
        quads.append(bases[p:p + 4])
    return DnaImage(grid.width, grid.height, tuple(quads))


SEQUENCE = NucleotideSequence(random_bases(random.Random(5150), WINDOW_STARTS + 4))
FULL_INDEX = scan_index(SEQUENCE)


def stub_key(overrides: dict) -> ReferenceKey:
    occurrences = list(FULL_INDEX.occurrences)
    for value, positions in overrides.items():
        occurrences[value] = positions
    return ReferenceKey(SEQUENCE, KmerIndex(tuple(occurrences), min(map(len, occurrences))), 0)


def outcome(call):
    try:
        return call()
    except QuadNotCovered as exc:
        return ("QuadNotCovered", exc.quad)
    except PointerOutOfRange as exc:
        return ("PointerOutOfRange", exc.index, exc.value)


positions = st.integers(0, WINDOW_STARTS - 1)
occurrence_lists = st.one_of(
    st.just(()),
    st.tuples(positions),
    st.lists(positions, min_size=2, max_size=6, unique=True).map(lambda ps: tuple(sorted(ps))),
)


@st.composite
def cases(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    overrides = draw(st.dictionaries(st.integers(0, 255), occurrence_lists, max_size=4))
    values = st.integers(0, 255)
    if overrides:
        # favour the overridden entries, so empty and singleton lists are hit
        values = st.sampled_from(sorted(overrides)) | values
    pixels = bytes(draw(st.lists(values, min_size=width * height, max_size=width * height)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    return PlainImage(width, height, pixels), stub_key(overrides), seed


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_substitute_matches_frozen_oracle(case):
    image, key, seed = case
    new_rng, old_rng = RandomStream(seed), RandomStream(seed)
    new = outcome(lambda: substitute(image, key, new_rng))
    old = outcome(lambda: oracle_substitute(synthesize(image), key, old_rng))
    assert new == old
    # one draw per cell up to the same point: the streams stay in lockstep
    assert new_rng.next64() == old_rng.next64()
    if isinstance(new, PointerGrid):
        # overridden lists need not point at their own word, so compare
        # decodings rather than expect the image back
        assert reverse_substitute(new, key) == resynthesize(oracle_reverse_substitute(new, key))


out_of_range = st.sampled_from([-(1 << 16), -1, WINDOW_STARTS, WINDOW_STARTS + 1, 1 << 20])


@st.composite
def grids(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    cells = positions | out_of_range if draw(st.booleans()) else positions
    pointers = draw(st.lists(cells, min_size=width * height, max_size=width * height))
    return width, height, tuple(pointers)


@settings(max_examples=300, deadline=None)
@given(grid=grids())
def test_reverse_substitute_matches_frozen_oracle(grid):
    width, height, cells = grid
    key = stub_key({})
    # the library rejects a bad cell where the grid is built; the oracle reads the cells as given
    new = outcome(lambda: reverse_substitute(PointerGrid(width, height, cells), key))
    fields = SimpleNamespace(width=width, height=height, pointers=cells)
    old = outcome(lambda: resynthesize(oracle_reverse_substitute(fields, key)))
    assert new == old


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class OracleStream:
    """The scalar splitmix64 generator as first written, kept verbatim."""

    def __init__(self, seed: int):
        self._state = seed

    def next64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


# 2**64 - 1 and 2**64 - _GAMMA wrap the state on the first and second draw
SEEDS = [0, 1, (1 << 64) - 1, (1 << 64) - _GAMMA, random.Random(4096).getrandbits(64)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193, 12293])
def test_outputs_match_next64_calls(seed, n):
    blocked, serial, oracle = RandomStream(seed), RandomStream(seed), OracleStream(seed)
    expected = [oracle.next64() for _ in range(n)]
    assert list(blocked.outputs(n)) == expected
    assert [serial.next64() for _ in range(n)] == expected
    assert blocked.next64() == serial.next64() == oracle.next64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width,height", [(64, 64), (4097, 1), (91, 90), (129, 64)])
def test_substitute_matches_frozen_oracle_past_one_block(width, height, seed):
    image = random_image(random.Random(width * height), width, height)
    key = stub_key({0: (5,), 1: (3, 9), 2: (11, 12, 13)})
    new_rng, old_rng = RandomStream(seed), RandomStream(seed)
    assert substitute(image, key, new_rng) == oracle_substitute(synthesize(image), key, old_rng)
    assert new_rng.next64() == old_rng.next64()


@pytest.mark.parametrize("seed", SEEDS)
def test_uncovered_word_the_image_never_uses_is_no_error(seed):
    image = random_image(random.Random(7), 91, 90)
    image = PlainImage(91, 90, image.pixels.replace(b"\x07", b"\x08"))
    key = stub_key({7: ()})
    new_rng, old_rng = RandomStream(seed), RandomStream(seed)
    assert substitute(image, key, new_rng) == oracle_substitute(synthesize(image), key, old_rng)
    assert new_rng.next64() == old_rng.next64()


@pytest.mark.parametrize("seed", SEEDS)
def test_uncovered_word_in_the_third_block_fails_like_the_oracle(seed):
    rng = random.Random(9000)
    pixels = bytearray(rng.randrange(8, 256) for _ in range(120 * 100))
    # 7 is the first uncovered cell; 0 comes later but first in set order
    pixels[9000] = 7
    pixels[11000] = 0
    image = PlainImage(120, 100, bytes(pixels))
    key = stub_key({0: (), 7: ()})
    new_rng, old_rng = RandomStream(seed), RandomStream(seed)
    new = outcome(lambda: substitute(image, key, new_rng))
    old = outcome(lambda: oracle_substitute(synthesize(image), key, old_rng))
    assert new == old == ("QuadNotCovered", BYTE_TO_QUAD[7])
    assert new_rng.next64() == old_rng.next64()
